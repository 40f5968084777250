"""Fragment Processors: shade surviving fragments and fetch textures.

Shading is vectorized per batch — one (primitive, tile) batch on the
per-tile path, one ordered pass of a drawcall on the per-drawcall path —
and is functionally one shader invocation per fragment, costed as such
by the timing model.  Texture fetches go to the memory hierarchy
(texture cache, L2, DRAM on the "texels" stream) as a line-granular
address stream in fetch order, so texel locality (or its absence) is
measured, not assumed.

A technique may install a fragment *memo filter* (Fragment Memoization,
Section V-A): the filter observes each batch's shading inputs and
reports how many fragments its LUT would have reused.  Colors are always
computed functionally — the filter only affects the activity counters —
which mirrors the paper's evaluation where memoization changes work, not
(measurably) output.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..engine.stage import Stage
from ..errors import PipelineError
from ..memory.hierarchy import MemoryHierarchy
from ..textures.sampler import sample_nearest


@dataclasses.dataclass
class FragmentStats:
    fragments_shaded: int = 0
    fragments_memoized: int = 0
    shader_instructions: int = 0
    texture_fetches: int = 0
    texture_cache_accesses: int = 0
    stall_cycles: int = 0


class ShadeMemo:
    """Hit and miss counters of the retired cross-frame shade memo.

    The per-drawcall path shades each drawcall once per pass, which
    leaves a per-batch shade memo little to save, and the per-tile path
    never used it; so nothing consults it.  The class remains only
    because the benchmark reads :func:`shared_shade_memo`'s counters,
    which stay 0.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0


_SHARED_SHADE_MEMO = ShadeMemo()


def shared_shade_memo() -> ShadeMemo:
    """The process-wide :class:`ShadeMemo`, which nothing fills."""
    return _SHARED_SHADE_MEMO


class FragmentStage(Stage):
    """Shades fragment batches with texture-cache simulation."""

    metrics_group = "fragment"

    def __init__(self, memory: MemoryHierarchy) -> None:
        self.memory = memory
        self.stats = FragmentStats()
        self.memo_filter = None  # optional technique hook

    def shade(self, state, prims, counts, xs: np.ndarray, ys: np.ndarray,
              bary: np.ndarray) -> tuple:
        """Shade fragments of one draw state.

        ``prims[i]`` produced the next ``counts[i]`` rows of ``xs``,
        ``ys`` and ``bary``.  The per-tile path passes one primitive's
        fragments in one tile; the per-drawcall path passes one ordered
        pass of a drawcall.  Each primitive's varyings are interpolated
        by its own ``bary @ values`` product, which gives a row the same
        bits whatever rows share the product with it, and the shader then
        runs once over every row.

        Returns ``(colors, texels)``: one color row per fragment, and the
        texel byte addresses the fetches made, in fetch order (every
        fragment's address for the first fetch, then for the second, and
        so on).  The caller sends ``texels`` to the memory hierarchy.
        """
        count = len(xs)
        if count == 0:
            return np.empty((0, 4), dtype=np.float32), _NO_TEXELS

        bounds = np.cumsum(counts).tolist()
        runs = [
            (prim, lo, hi)
            for prim, lo, hi in zip(prims, [0] + bounds, bounds) if hi > lo
        ]
        varyings = {}
        for name in runs[0][0].varyings:
            parts = [
                bary[lo:hi] @ prim.varyings[name].astype(np.float32)
                for prim, lo, hi in runs
            ]
            varyings[name] = (
                parts[0] if len(parts) == 1 else np.concatenate(parts)
            ).astype(np.float32)
        screen = np.empty((count, 2), dtype=np.float32)
        screen[:, 0] = xs
        screen[:, 1] = ys
        varyings["_screen"] = screen

        fetch_addresses = []

        def fetch(unit: int, uv: np.ndarray) -> np.ndarray:
            if unit >= len(state.textures) or state.textures[unit] is None:
                raise PipelineError(
                    f"shader {state.shader.name!r} fetched unbound unit {unit}"
                )
            if len(uv) != count:
                raise PipelineError(
                    f"shader {state.shader.name!r} fetched {len(uv)} texels "
                    f"for {count} fragments; a fetch samples one per fragment"
                )
            result = sample_nearest(state.textures[unit], uv)
            fetch_addresses.append(result.addresses)
            self.stats.texture_fetches += len(uv)
            return result.colors

        colors = state.shader.run_fragment(varyings, state.constants, fetch)
        if len(colors) != count:
            raise PipelineError(
                f"shader {state.shader.name!r} returned {len(colors)} colors "
                f"for {count} fragments"
            )

        # Memoization hook: decides how many of these fragments would
        # have been reused instead of shaded.  It runs on the per-tile
        # path only, where a batch is one primitive's fragments.
        memoized = 0
        if self.memo_filter is not None:
            memoized = self.memo_filter(runs[0][0], varyings)
        shaded = count - memoized
        self.stats.fragments_shaded += shaded
        self.stats.fragments_memoized += memoized
        self.stats.shader_instructions += (
            shaded * state.shader.fragment_instructions
        )

        # Texture traffic: memoized fragments skip their fetches too; we
        # scale the simulated address stream by the shaded fraction.
        if not fetch_addresses:
            return colors, _NO_TEXELS
        texels = np.concatenate(fetch_addresses)
        if memoized:
            texels = texels[:max(0, int(round(len(texels) * shaded / count)))]
        return colors, texels

    def fetch_texels(self, raw_count: int, lines: np.ndarray) -> None:
        """Send one texel line stream (fresh, or replayed from a memo)
        to the memory hierarchy; ``raw_count`` texel fetches made it."""
        self.stats.texture_cache_accesses += raw_count
        self.memory.fetch_texels(lines, self.stats)


#: The texel stream of a batch that fetched nothing.
_NO_TEXELS = np.zeros(0, dtype=np.int64)
