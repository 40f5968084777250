"""Early Depth Test stage.

Operates on the per-tile on-chip depth buffer before fragment shading,
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
    """Early-Z over one tile's depth buffer."""

    metrics_group = "depth"

    def __init__(self) -> None:
        self.stats = DepthStats()

    def test(self, depth_tile: np.ndarray, local_xs: np.ndarray,
             local_ys: np.ndarray, depth: np.ndarray,
             depth_test: bool = True, depth_write: bool = True) -> np.ndarray:
        """Run the early-Z test; returns the pass mask.

        ``depth_tile`` is the tile-local depth array, updated in place
        for passing fragments when ``depth_write`` is set.
        """
        count = len(local_xs)
        self.stats.fragments_tested += count
        if not depth_test:
            mask = np.ones(count, dtype=bool)
            if depth_write:
                depth_tile[local_ys, local_xs] = depth
            self.stats.fragments_passed += count
            return mask

        # Strict LESS.  A batch is one primitive's fragments in one
        # tile, so under the fill rule no pixel repeats within it and
        # the vectorized compare-then-scatter is the sequential test.
        mask = depth < depth_tile[local_ys, local_xs]
        if depth_write and mask.any():
            depth_tile[local_ys[mask], local_xs[mask]] = depth[mask]
        passed = int(mask.sum())
        self.stats.fragments_passed += passed
        self.stats.fragments_culled += count - passed
        return mask
