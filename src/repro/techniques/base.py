"""Technique interface: how redundancy-elimination schemes plug into the
pipeline.

A technique observes the Geometry Pipeline (draw-state changes and
primitive binning — the same taps the paper's Signature Unit uses) and
answers two questions on the raster side:

* :meth:`Technique.should_skip_tile` — skip the whole Raster Pipeline
  for this tile?  (Rendering Elimination)
* :meth:`Technique.should_flush_tile` — after rendering, write the tile
  to the Frame Buffer?  (Transaction Elimination answers False for
  redundant tiles.)

It may also install a fragment memo filter on the fragment stage
(Fragment Memoization).  The baseline implements every hook as a no-op,
so the unmodified pipeline is literally the baseline technique.

:meth:`stages_bypassed` encodes Fig. 3: which Raster Pipeline stages
each technique saves for a redundant tile/fragment.
"""

from __future__ import annotations

import weakref

#: The Raster Pipeline stages of Fig. 3, in order.
RASTER_STAGES = (
    "tile_scheduler",
    "rasterizer",
    "early_depth",
    "fragment_processing",
    "blend",
    "tile_flush",
)


class Technique:
    """Base class and the explicit do-nothing baseline."""

    name = "baseline"

    def __init__(self) -> None:
        self._gpu = None

    @property
    def gpu(self):
        """The GPU this technique is installed on, or None.

        Held weakly: the GPU owns its technique, and a strong reference
        back would make a cycle, leaving a finished engine for the
        cyclic garbage collector instead of freeing it at once."""
        return self._gpu() if self._gpu is not None else None

    # Lifecycle --------------------------------------------------------
    def attach(self, gpu) -> None:
        """Called once when the technique is installed on a GPU."""
        self._gpu = weakref.ref(gpu)

    def begin_frame(self, frame_index: int, has_uploads: bool) -> None:
        """Called before the frame's command stream is processed."""

    def end_frame(self) -> None:
        """Called after the frame's last tile, before buffer swap."""

    # Geometry-side taps (PolygonListBuilder listener protocol) ---------
    def on_draw_state(self, state) -> None:
        """A drawcall's snapshotted state is about to be binned."""

    def on_primitive(self, prim, tile_ids) -> None:
        """One primitive was just sorted into ``tile_ids``."""

    def on_geometry_complete(self) -> None:
        """The whole frame's geometry has been binned; tiles are about
        to be scheduled (signatures are final at this point)."""

    # Raster-side decisions ---------------------------------------------
    def should_skip_tile(self, tile_id: int) -> bool:
        """True to bypass the entire Raster Pipeline for this tile."""
        return False

    def should_flush_tile(self, tile_id: int, tile_colors) -> bool:
        """False to suppress the Color Buffer flush for this tile."""
        return True

    # Overheads ----------------------------------------------------------
    def geometry_stall_cycles(self) -> int:
        """Extra Geometry Pipeline cycles this frame (e.g. OT-queue
        overflow stalls); reset by the caller's frame accounting."""
        return 0

    def raster_overhead_cycles(self) -> int:
        """Extra Raster Pipeline cycles this frame (signature compares)."""
        return 0

    # Checkpointing ------------------------------------------------------
    def state_dict(self) -> dict:
        """Cross-frame technique state for RenderSession checkpoints.

        The baseline carries nothing across frames.  Subclasses return
        whatever their ``begin_frame`` does not rebuild from scratch
        (signature history, content banks, memo tables)."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Inverse of :meth:`state_dict`; baseline has nothing to do."""

    @classmethod
    def stages_bypassed(cls) -> tuple:
        """Raster stages this technique saves for redundant work (Fig. 3)."""
        return ()
