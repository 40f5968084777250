"""Rendering Elimination: the paper's technique as a pipeline plug-in.

Geometry side: the Signature Unit incrementally signs every tile's
inputs while the Polygon List Builder bins primitives.  Raster side:
before any work is spent on a tile, its current-frame signature is
compared with the signature of the frame the Back buffer still holds
(two frames back under double buffering); a match bypasses the entire
Raster Pipeline and the Frame Buffer keeps its colors.

Driver-level disable conditions (Section III-E) are honoured:

* frames containing shader/texture *uploads* (the signature does not
  cover global data, so comparisons spanning an upload are unsafe — all
  signature history is invalidated);
* an optional periodic refresh (``re_refresh_period_frames``) that
  forces full rendering to guarantee Frame Buffer refreshes;
* an explicit ``multiple_render_targets`` flag that disables RE wholesale.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..config import GpuConfig
from ..techniques.base import RASTER_STAGES, Technique
from .signature_buffer import SignatureBuffer
from .signature_unit import SignatureUnit

#: Raster-side cycles to read a Signature Buffer entry and compare
#: (Section V: "a few cycles").
COMPARE_CYCLES = 2


@dataclasses.dataclass
class ReFrameRecord:
    """Per-frame RE bookkeeping kept for analysis."""

    frame_index: int
    disabled: bool
    tiles_skipped: int
    tiles_compared: int
    signatures: np.ndarray


class RenderingElimination(Technique):
    """The Rendering Elimination technique of Section III."""

    name = "re"

    def __init__(self, config: GpuConfig, exact: bool = False,
                 compare_distance: int = 2,
                 multiple_render_targets: bool = False) -> None:
        super().__init__()
        self.config = config
        self.signature_unit = SignatureUnit(config, exact=exact)
        self.signature_buffer = SignatureBuffer(
            config.num_tiles, compare_distance=compare_distance
        )
        self.multiple_render_targets = multiple_render_targets
        self.refresh_period = config.re_refresh_period_frames
        self.disabled_this_frame = False
        self.frame_records: list = []
        self._frame_index = 0
        self._tiles_skipped = 0
        self._tiles_compared = 0
        self._stall_baseline = 0

    # Lifecycle ----------------------------------------------------------
    def begin_frame(self, frame_index: int, has_uploads: bool) -> None:
        self._frame_index = frame_index
        self._tiles_skipped = 0
        self._tiles_compared = 0
        # Signature Unit counters are cumulative across the run (the
        # harness diffs them per frame); stalls are reported per frame
        # via a baseline.
        self._stall_baseline = self.signature_unit.stats.stall_cycles

        refresh_due = (
            self.refresh_period > 0
            and frame_index > 0
            and frame_index % self.refresh_period == 0
        )
        self.disabled_this_frame = (
            has_uploads or refresh_due or self.multiple_render_targets
        )
        if has_uploads or self.multiple_render_targets:
            # Global data changed under the signatures' feet: nothing in
            # the history can be trusted for comparison any more.
            self.signature_buffer.invalidate_all()

        self.signature_buffer.begin_frame()
        self.signature_unit.begin_frame(self.signature_buffer)

    def on_geometry_complete(self) -> None:
        if not self.disabled_this_frame:
            self.signature_buffer.commit_frame()

    def end_frame(self) -> None:
        self.frame_records.append(
            ReFrameRecord(
                frame_index=self._frame_index,
                disabled=self.disabled_this_frame,
                tiles_skipped=self._tiles_skipped,
                tiles_compared=self._tiles_compared,
                signatures=self.signature_buffer.current.copy(),
            )
        )

    # Geometry taps -------------------------------------------------------
    def on_draw_state(self, state) -> None:
        self.signature_unit.on_draw_state(state)

    def on_drawcall(self, batch, prims, tiles) -> None:
        self.signature_unit.on_drawcall(batch, prims, tiles)

    def on_primitive(self, prim, tile_ids) -> None:
        """Sign one primitive on its own.  The pipeline signs whole
        drawcalls through :meth:`on_drawcall`; ``bench/layers.py``
        still traces this name."""
        self.signature_unit.on_primitive(prim, tile_ids)

    # Raster decision -------------------------------------------------------
    def should_skip_tile(self, tile_id: int) -> bool:
        if self.disabled_this_frame:
            return False
        self._tiles_compared += 1
        tracer = self.gpu.tracer if self.gpu is not None else None
        if self.signature_buffer.matches_reference(tile_id):
            self._tiles_skipped += 1
            if tracer:
                tracer.instant("signature_hit", tile=tile_id)
            return True
        if tracer:
            tracer.instant("signature_miss", tile=tile_id)
        return False

    # Overheads -----------------------------------------------------------
    def geometry_stall_cycles(self) -> int:
        return self.signature_unit.stats.stall_cycles - self._stall_baseline

    def raster_overhead_cycles(self) -> int:
        return self._tiles_compared * COMPARE_CYCLES

    # Checkpointing -------------------------------------------------------
    def state_dict(self) -> dict:
        """Signature history plus the unit's cumulative counters (the
        per-frame stall/overhead figures are diffs against those
        counters, so they must survive a restore)."""
        return {
            "signature_buffer": self.signature_buffer.state_dict(),
            "signature_unit": self.signature_unit.state_dict(),
            "disabled_this_frame": self.disabled_this_frame,
            "frame_records": [
                {
                    "frame_index": record.frame_index,
                    "disabled": record.disabled,
                    "tiles_skipped": record.tiles_skipped,
                    "tiles_compared": record.tiles_compared,
                    "signatures": record.signatures,
                }
                for record in self.frame_records
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        self.signature_buffer.load_state_dict(state["signature_buffer"])
        self.signature_unit.load_state_dict(state["signature_unit"])
        self.disabled_this_frame = bool(state["disabled_this_frame"])
        self.frame_records = [
            ReFrameRecord(
                frame_index=int(record["frame_index"]),
                disabled=bool(record["disabled"]),
                tiles_skipped=int(record["tiles_skipped"]),
                tiles_compared=int(record["tiles_compared"]),
                signatures=np.asarray(
                    record["signatures"], dtype=np.uint32
                ),
            )
            for record in state["frame_records"]
        ]

    # Introspection ----------------------------------------------------------
    def current_signatures(self) -> np.ndarray:
        """Copy of the per-tile signatures of the frame just signed."""
        return self.signature_buffer.current.copy()

    @property
    def storage_bytes(self) -> int:
        """On-chip storage added by RE: Signature Buffer + CRC LUTs +
        OT queue + constants bitmap."""
        ot_queue = self.config.ot_queue_entries * 2  # ~2 B per tile id
        bitmap = (self.config.num_tiles + 7) // 8
        return (
            self.signature_buffer.storage_bytes
            + self.signature_unit.lut_storage_bytes
            + ot_queue
            + bitmap
        )

    @classmethod
    def stages_bypassed(cls) -> tuple:
        return RASTER_STAGES  # the whole Raster Pipeline (Fig. 3)
