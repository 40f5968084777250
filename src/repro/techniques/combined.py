"""RE + TE combined (an extension the paper's analysis invites).

Fig. 15a shows two redundant-tile populations: tiles with equal inputs
(Rendering Elimination skips their whole Raster Pipeline) and tiles
whose inputs changed but whose colors did not — occluded movers, pans
over flat color — which RE must render (its "false negatives") but
whose Color-Buffer flush Transaction Elimination can still suppress.

The two mechanisms are orthogonal: RE decides *before* rastering from
input signatures, TE decides *after* rastering from output signatures.
:class:`CombinedElimination` runs both, paying both (small) overheads:

* tiles RE skips never reach TE (no colors are produced, and the Frame
  Buffer already holds the right pixels);
* tiles RE renders still get TE's output-signature check, recovering
  the flush savings on the equal-colors-different-inputs population.

On workloads like ``abi`` (flat-sky panning) or ``hop`` (black-on-black
movers) this strictly dominates either technique alone.

One subtlety: because RE-skipped tiles produce no colors to hash, TE's
signature bank would go stale for them.  Skipping a tile, however,
means its pixels are *unchanged* from the reference frame, so the
combined technique carries the previous signature forward for skipped
tiles — exactly what the hardware would read back from its own bank.
"""

from __future__ import annotations

from ..config import GpuConfig
from .base import RASTER_STAGES, Technique
from .transaction_elimination import TransactionElimination


class CombinedElimination(Technique):
    """Rendering Elimination with Transaction Elimination backstop."""

    name = "re+te"

    def __init__(self, config: GpuConfig, compare_distance: int = 2,
                 exact: bool = False) -> None:
        super().__init__()
        # Imported here: repro.core depends on repro.techniques.base, so
        # a module-level import would be circular.
        from ..core.rendering_elimination import RenderingElimination

        self.config = config
        self.re = RenderingElimination(
            config, exact=exact, compare_distance=compare_distance
        )
        self.te = TransactionElimination(config, compare_distance=compare_distance)
        self._skipped_this_frame: set = set()

    # Lifecycle ----------------------------------------------------------
    def attach(self, gpu) -> None:
        super().attach(gpu)
        self.re.attach(gpu)
        self.te.attach(gpu)

    def begin_frame(self, frame_index: int, has_uploads: bool) -> None:
        self._skipped_this_frame = set()
        self.re.begin_frame(frame_index, has_uploads)
        self.te.begin_frame(frame_index, has_uploads)

    def on_geometry_complete(self) -> None:
        self.re.on_geometry_complete()
        self.te.on_geometry_complete()

    def end_frame(self) -> None:
        # Carry TE signatures forward for tiles RE skipped: their pixels
        # are untouched, so the reference-frame signature still holds.
        buffer = self.te.signature_buffer
        if buffer.reference_bank_valid():
            ref = (buffer._current - buffer.compare_distance) % len(
                buffer._banks
            )
            for tile_id in self._skipped_this_frame:
                buffer.write(tile_id, int(buffer._banks[ref][tile_id]))
        self.re.end_frame()
        self.te.end_frame()

    # Geometry taps -------------------------------------------------------
    def on_draw_state(self, state) -> None:
        self.re.on_draw_state(state)

    def on_drawcall(self, batch, prims, tiles) -> None:
        self.re.on_drawcall(batch, prims, tiles)

    # Raster decisions ------------------------------------------------------
    def should_skip_tile(self, tile_id: int) -> bool:
        if self.re.should_skip_tile(tile_id):
            self._skipped_this_frame.add(tile_id)
            return True
        return False

    def should_flush_tile(self, tile_id: int, tile_colors) -> bool:
        return self.te.should_flush_tile(tile_id, tile_colors)

    # Overheads -----------------------------------------------------------
    def geometry_stall_cycles(self) -> int:
        return self.re.geometry_stall_cycles()

    def raster_overhead_cycles(self) -> int:
        return self.re.raster_overhead_cycles()

    # Checkpointing -------------------------------------------------------
    def state_dict(self) -> dict:
        return {"re": self.re.state_dict(), "te": self.te.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        self.re.load_state_dict(state["re"])
        self.te.load_state_dict(state["te"])

    # Introspection ----------------------------------------------------------
    def current_signatures(self):
        return self.re.current_signatures()

    @property
    def disabled_this_frame(self) -> bool:
        return self.re.disabled_this_frame

    @disabled_this_frame.setter
    def disabled_this_frame(self, value) -> None:
        # Base-class __init__ assigns this attribute; delegate silently.
        if hasattr(self, "re"):
            self.re.disabled_this_frame = value

    @classmethod
    def stages_bypassed(cls) -> tuple:
        return RASTER_STAGES
