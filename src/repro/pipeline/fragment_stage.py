"""Fragment Processors: shade surviving fragments and fetch textures.

Shading is vectorized per (primitive, tile) batch — functionally one
shader invocation per fragment, costed as such by the timing model.
Texture fetches go to the memory hierarchy (texture cache, L2, DRAM on
the "texels" stream) as a line-granular address stream in fetch order,
so texel locality (or its absence) is measured, not assumed.

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
    """Cross-frame memo of exact shade results, keyed by content.

    Shading one (primitive, tile) batch is a pure function of the
    shader, the bound constants and textures, the primitive's
    post-transform attributes and the masked fragment set; frame-coherent
    workloads resubmit identical batches every frame.  The memo stores
    the computed colors plus the texel line stream, so a hit appends the
    identical lines to the memory log — every activity counter stays
    bit-identical to a recomputation.  Purely an execution-speed cache,
    bounded by retained fragments with LRU eviction.
    """

    def __init__(self, fragment_budget: int = 2_000_000) -> None:
        self.fragment_budget = fragment_budget
        self._entries: dict = {}
        self._retained_fragments = 0
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple):
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            # Re-insert to mark as most recently used.
            del self._entries[key]
            self._entries[key] = entry
        else:
            self.misses += 1
        return entry

    def put(self, key: tuple, entry: tuple, count: int) -> None:
        entries = self._entries
        entries[key] = entry
        self._retained_fragments += count
        while (self._retained_fragments > self.fragment_budget
               and len(entries) > 1):
            evicted_colors = entries.pop(next(iter(entries)))[0]
            self._retained_fragments -= len(evicted_colors)


#: Process-wide shade memo: keys are content-stable, so hits are exact
#: even across independent Gpu instances (the suite renders the same
#: frames once per technique).
_SHARED_SHADE_MEMO = ShadeMemo()


def shared_shade_memo() -> ShadeMemo:
    """The process-wide :class:`ShadeMemo` used by batched-mode GPUs."""
    return _SHARED_SHADE_MEMO


class FragmentStage(Stage):
    """Shades fragment batches with texture-cache simulation."""

    metrics_group = "fragment"

    def __init__(self, memory: MemoryHierarchy) -> None:
        self.memory = memory
        self.stats = FragmentStats()
        self.memo_filter = None  # optional technique hook
        self.shade_memo = None   # optional cross-frame ShadeMemo
        # When a list, every texel line stream sent to the hierarchy is
        # also appended as ``(raw_access_count, lines)`` so the tile
        # scheduler's TileMemo can replay it verbatim later.
        self.traffic_log = None

    def begin_frame(self, ctx=None) -> None:
        self.traffic_log = None

    def shade(self, batch, pass_mask: np.ndarray) -> tuple:
        """Shade the fragments of ``batch`` selected by ``pass_mask``.

        Returns ``(local_xs_unused, colors)`` where colors has one row
        per passing fragment, in batch order.
        """
        prim = batch.prim
        state = prim.state
        count = int(np.count_nonzero(pass_mask))
        if count == 0:
            return np.empty((0, 4), dtype=np.float32)

        bary = batch.bary[pass_mask]
        xs = batch.xs[pass_mask]
        ys = batch.ys[pass_mask]

        # Cross-frame shade memo (exact): disabled whenever a technique's
        # memo filter is installed, since the filter is stateful and must
        # observe every batch.
        memo = self.shade_memo if self.memo_filter is None else None
        key = None
        if memo is not None:
            key = (
                id(state.shader),
                tuple(
                    t.content_token if t is not None else None
                    for t in state.textures
                ),
                state.constants_bytes(),
                prim.attribute_bytes(),
                bary.tobytes(),
                xs.tobytes(),
                ys.tobytes(),
            )
            entry = memo.get(key)
            if entry is not None:
                colors, texels, fetch_count = entry[:3]
                self.stats.texture_fetches += fetch_count
                self.stats.fragments_shaded += count
                self.stats.shader_instructions += (
                    count * state.shader.fragment_instructions
                )
                if texels is not None:
                    self.fetch_texels(*texels)
                return colors

        fetches_before = self.stats.texture_fetches
        varyings = {
            name: (bary @ values.astype(np.float32)).astype(np.float32)
            for name, values in prim.varyings.items()
        }
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
        # have been reused instead of shaded.
        memoized = 0
        if self.memo_filter is not None:
            memoized = self.memo_filter(prim, varyings)
        shaded = count - memoized
        self.stats.fragments_shaded += shaded
        self.stats.fragments_memoized += memoized
        self.stats.shader_instructions += (
            shaded * state.shader.fragment_instructions
        )

        # Texture traffic: memoized fragments skip their fetches too; we
        # scale the simulated address stream by the shaded fraction.
        texels = None
        if fetch_addresses:
            addresses = np.concatenate(fetch_addresses)
            if memoized and count:
                keep = max(0, int(round(len(addresses) * shaded / count)))
                addresses = addresses[:keep]
            texels = (len(addresses), self.memory.texel_lines(addresses))
            self.fetch_texels(*texels)
        if memo is not None:
            # The entry pins the shader object so its id (part of the
            # key) cannot be recycled for a different shader.
            memo.put(
                key,
                (colors, texels,
                 self.stats.texture_fetches - fetches_before, state.shader),
                count,
            )
        return colors

    def fetch_texels(self, raw_count: int, lines: np.ndarray) -> None:
        """Send one texel line stream (fresh, or replayed from a memo)
        to the memory hierarchy; ``raw_count`` texel fetches made it."""
        self.stats.texture_cache_accesses += raw_count
        if self.traffic_log is not None:
            self.traffic_log.append((raw_count, lines))
        self.memory.fetch_texels(lines, self.stats)
