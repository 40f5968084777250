"""Shading is batch-invariant: a fragment's color and texel addresses do
not depend on which other fragments share its shading call.

The per-tile path shades one primitive's fragments in one tile per
call; the per-drawcall path shades a whole drawcall's fragments at once.
Both must give every fragment the same bits, for every builtin shader.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GpuConfig
from repro.geometry import DrawState, Primitive, mat4
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.fragment_stage import FragmentStage
from repro.shaders import PROGRAMS, pack_constants
from repro.textures.texture import Texture

MAX_FRAGMENTS = 300


def random_primitive(rng, state) -> Primitive:
    return Primitive(
        screen=np.zeros((3, 2), np.float32),
        depth=np.zeros(3, np.float32),
        clip=np.zeros((3, 4), np.float32),
        varyings={
            "uv": rng.uniform(-4, 4, (3, 2)).astype(np.float32),
            "normal": rng.uniform(-1, 1, (3, 3)).astype(np.float32),
        },
        state=state,
    )


def shade_pieces(stage, state, prims, owners, xs, ys, bary, cuts):
    """Shade rows ``cuts[i]:cuts[i + 1]`` one call each, row ``j``
    belonging to ``prims[owners[j]]``; return the colors and the
    per-fetch texel addresses, rows concatenated."""
    colors, texels = [], []
    for lo, hi in zip(cuts, cuts[1:]):
        if hi == lo:
            continue
        rows = owners[lo:hi]
        firsts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        counts = np.diff(np.r_[firsts, hi - lo])
        piece_colors, piece_texels = stage.shade(
            state, [prims[rows[i]] for i in firsts], counts,
            xs[lo:hi], ys[lo:hi], bary[lo:hi],
        )
        colors.append(piece_colors)
        texels.append(piece_texels.reshape(-1, hi - lo))
    return np.concatenate(colors), np.concatenate(texels, axis=1)


@pytest.mark.parametrize("program", sorted(PROGRAMS), ids=str)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       count=st.integers(1, MAX_FRAGMENTS),
       prims=st.integers(1, 4),
       cuts=st.lists(st.integers(0, MAX_FRAGMENTS), max_size=6))
def test_shading_whole_equals_shading_split(program, seed, count, prims,
                                            cuts):
    rng = np.random.default_rng(seed)
    size = int(rng.choice([4, 8, 32]))
    texture = Texture(rng.random((size, size, 4), dtype=np.float32),
                      texture_id=int(rng.integers(0, 64)))
    constants = pack_constants(
        mat4.ortho2d(), tint=rng.random(4, dtype=np.float32),
        params=rng.uniform(-2, 2, 4).astype(np.float32),
    )
    state = DrawState(shader=PROGRAMS[program], constants=constants,
                      textures=(texture,))
    stage = FragmentStage(MemoryHierarchy(GpuConfig.small()))
    primitives = [random_primitive(rng, state) for _ in range(prims)]
    # Rows belong to the primitives in runs, in primitive order.
    owners = np.sort(rng.integers(0, prims, count))
    bary = rng.random((count, 3), dtype=np.float32)
    bary /= bary.sum(axis=1, keepdims=True)
    xs = rng.integers(0, 96, count).astype(np.int32)
    ys = rng.integers(0, 64, count).astype(np.int32)

    whole_colors, whole_texels = shade_pieces(
        stage, state, primitives, owners, xs, ys, bary, [0, count])
    split = sorted(min(cut, count) for cut in cuts)
    split_colors, split_texels = shade_pieces(
        stage, state, primitives, owners, xs, ys, bary,
        [0] + split + [count])
    assert whole_colors.tobytes() == split_colors.tobytes()
    assert np.array_equal(whole_texels, split_texels)
