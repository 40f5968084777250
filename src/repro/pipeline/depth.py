"""Early Depth Test stage.

Operates on the on-chip depth buffer before fragment shading,
discarding fragments occluded by previously processed geometry (LESS
comparison).  Fragments culled here never reach the fragment processors
— the effect that produces the paper's "equal colors, different inputs"
tiles when a moving object is hidden behind opaque geometry.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..engine.stage import Stage


@dataclasses.dataclass
class DepthStats:
    fragments_tested: int = 0
    fragments_passed: int = 0
    fragments_culled: int = 0


class DepthStage(Stage):
    """Early-Z over a depth buffer: one tile's, or the whole screen's."""

    metrics_group = "depth"

    def __init__(self) -> None:
        self.stats = DepthStats()

    def test(self, depth_tile: np.ndarray, local_xs: np.ndarray,
             local_ys: np.ndarray, depth: np.ndarray,
             depth_test: bool = True, depth_write: bool = True) -> np.ndarray:
        """Run the early-Z test; returns the pass mask.

        ``depth_tile`` is the depth array the coordinates index (a
        tile's, with tile-local coordinates, or the screen's, with
        absolute ones), updated in place for passing fragments when
        ``depth_write`` is set.  No pixel may repeat within one call: the
        per-tile path passes one primitive's fragments, which the fill
        rule keeps distinct, and the per-drawcall path passes one ordered
        pass, which holds at most one fragment per pixel.  The vectorized
        compare-then-scatter is then the sequential test.
        """
        count = len(local_xs)
        self.stats.fragments_tested += count
        if not depth_test:
            mask = np.ones(count, dtype=bool)
            if depth_write:
                depth_tile[local_ys, local_xs] = depth
            self.stats.fragments_passed += count
            return mask

        # Strict LESS.
        mask = depth < depth_tile[local_ys, local_xs]
        if depth_write and mask.any():
            depth_tile[local_ys[mask], local_xs[mask]] = depth[mask]
        passed = int(mask.sum())
        self.stats.fragments_passed += passed
        self.stats.fragments_culled += count - passed
        return mask
