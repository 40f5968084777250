"""Blending unit: merge shaded colors into the on-chip Color Buffer."""

from __future__ import annotations

import dataclasses

import numpy as np

from ..engine.stage import Stage


@dataclasses.dataclass
class BlendStats:
    fragments_blended: int = 0
    alpha_blends: int = 0


class BlendStage(Stage):
    """Writes fragment colors into a color array: one tile's, or the
    whole screen's."""

    metrics_group = "blend"

    def __init__(self) -> None:
        self.stats = BlendStats()

    def blend(self, color_tile: np.ndarray, local_xs: np.ndarray,
              local_ys: np.ndarray, colors: np.ndarray,
              alpha: bool = False) -> None:
        """REPLACE or SRC_ALPHA/ONE_MINUS_SRC_ALPHA blending.

        No pixel may repeat within one call, so the vectorized writes
        are race-free: a per-tile batch is one primitive's fragments,
        which the rasterizer's fill rule keeps distinct, and a
        per-drawcall batch is one ordered pass, which holds each pixel's
        fragments of the same rank, so program order is kept across
        passes.
        """
        count = len(local_xs)
        self.stats.fragments_blended += count
        if count == 0:
            return
        if not alpha:
            color_tile[local_ys, local_xs] = colors
            return
        self.stats.alpha_blends += count
        src_alpha = colors[:, 3:4]
        dst = color_tile[local_ys, local_xs]
        out = colors * src_alpha + dst * (1.0 - src_alpha)
        out[:, 3] = np.clip(src_alpha[:, 0] + dst[:, 3] * (1.0 - src_alpha[:, 0]), 0.0, 1.0)
        color_tile[local_ys, local_xs] = out
