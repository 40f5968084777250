"""Primitive Assembly: triangles out of shaded vertices, clipped and
culled, mapped to screen space.

The screen-space convention: pixel (0, 0) is top-left; NDC y is flipped
so +y in clip space points up on screen, matching OpenGL.  Depth maps
from NDC [-1, 1] to [0, 1] with smaller values closer.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..engine.stage import Stage
from ..geometry import clipping
from ..geometry.primitives import PrimitiveBatch


@dataclasses.dataclass
class AssemblyStats:
    triangles_in: int = 0
    triangles_out: int = 0
    culled_near: int = 0
    culled_backface: int = 0
    culled_viewport: int = 0
    culled_degenerate: int = 0


class PrimitiveAssembly(Stage):
    """Assemble, clip and cull one drawcall's triangles."""

    metrics_group = "assembly"

    def __init__(self, screen_width: int, screen_height: int) -> None:
        self.width = screen_width
        self.height = screen_height
        self.stats = AssemblyStats()

    def assemble(self, invocation, shaded) -> PrimitiveBatch:
        """Returns the drawcall's surviving triangles as one batch."""
        indices = invocation.buffer.indices
        clip_all = shaded.clip
        self.stats.triangles_in += len(indices)

        # Vectorized screen mapping for all vertices once.
        w = clip_all[:, 3:4]
        safe_w = np.where(np.abs(w) < clipping.W_EPSILON, 1.0, w)
        ndc = clip_all[:, :3] / safe_w
        screen_x = (ndc[:, 0] + 1.0) * 0.5 * self.width
        screen_y = (1.0 - (ndc[:, 1] + 1.0) * 0.5) * self.height
        depth = (ndc[:, 2] + 1.0) * 0.5
        screen_all = np.stack([screen_x, screen_y], axis=1).astype(np.float32)

        # Vectorized culling over all triangles at once; every test is
        # the same elementwise arithmetic the per-triangle versions in
        # repro.geometry.clipping perform, so the surviving set (and
        # each cull counter) is identical to the scalar loop.
        tri_w = clip_all[:, 3][indices]                      # (m, 3)
        near_ok = np.all(tri_w > clipping.W_EPSILON, axis=1)
        tri_screen = screen_all[indices]                     # (m, 3, 2)
        tri_sx = tri_screen[:, :, 0]
        tri_sy = tri_screen[:, :, 1]
        sx_min = tri_sx.min(axis=1)
        sx_max = tri_sx.max(axis=1)
        sy_min = tri_sy.min(axis=1)
        sy_max = tri_sy.max(axis=1)
        vp_ok = ~(
            (sx_max < 0) | (sx_min >= self.width)
            | (sy_max < 0) | (sy_min >= self.height)
        )
        # Signed area in float32 (matching Primitive.signed_area2's
        # scalar float32 arithmetic), compared in float64 as the scalar
        # clipping helpers do.
        x0, y0 = tri_screen[:, 0, 0], tri_screen[:, 0, 1]
        x1, y1 = tri_screen[:, 1, 0], tri_screen[:, 1, 1]
        x2, y2 = tri_screen[:, 2, 0], tri_screen[:, 2, 1]
        area2 = (
            (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        ).astype(np.float64)
        degenerate = np.abs(area2) < 1e-9
        backfacing = area2 <= 0.0

        reached_vp = near_ok
        reached_area = reached_vp & vp_ok
        keep = reached_area & ~degenerate
        self.stats.culled_near += int(np.count_nonzero(~near_ok))
        self.stats.culled_viewport += int(np.count_nonzero(reached_vp & ~vp_ok))
        self.stats.culled_degenerate += int(
            np.count_nonzero(reached_area & degenerate)
        )
        if invocation.cull_backfaces:
            self.stats.culled_backface += int(
                np.count_nonzero(keep & backfacing)
            )
            keep &= ~backfacing

        # Integer pixel bounds, precomputed for the binner.
        bounds = np.stack([
            np.floor(sx_min).astype(np.int64),
            np.floor(sy_min).astype(np.int64),
            np.ceil(sx_max).astype(np.int64) + 1,
            np.ceil(sy_max).astype(np.int64) + 1,
        ], axis=1)

        kept = np.flatnonzero(keep)
        tris = indices[kept]
        batch = PrimitiveBatch(
            invocation.state,
            screen=tri_screen[kept],
            depth=depth.astype(np.float32)[tris],
            clip=clip_all.astype(np.float32)[tris],
            varyings={
                name: values[tris] for name, values in shaded.varyings.items()
            },
            bounds=bounds[kept],
        )
        self.stats.triangles_out += len(kept)
        return batch
