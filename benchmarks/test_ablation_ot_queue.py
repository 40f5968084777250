"""Ablation: Overlapped-Tiles queue depth vs geometry stalls.

The paper reports only 0.64% extra geometry cycles because the OT queue
absorbs most primitives' tile lists; only rare large primitives (many
overlapped tiles) overflow it.  Sweeping the depth shows stalls falling
monotonically toward zero as the queue grows past the workloads'
typical overlap counts.

Stall cycles use round-half-up on the fractional drain time (see
``SignatureUnit._count_stalls``); the expectations below are written
against that rounding — a deep queue still reaches exactly zero because
zero overflow contributes zero drain time before rounding.
"""

import dataclasses

import pytest

from repro.config import GpuConfig
from repro.core import RenderingElimination
from repro.geometry import mat4, quad_buffer
from repro.pipeline import CommandStream, Gpu
from repro.shaders import FLAT_COLOR, pack_constants

DEPTHS = (4, 16, 64, 256)


def _big_primitive_frame() -> CommandStream:
    """One untessellated full-screen quad: each of its two triangles
    overlaps every tile — the 'rare large primitive' of Section V."""
    stream = CommandStream()
    stream.set_shader(FLAT_COLOR)
    stream.set_constants(pack_constants(mat4.ortho2d()))
    stream.draw(quad_buffer(0.0, 0.0, 1.0, 1.0, z=0.5))
    return stream


def geometry_stalls(depth: int, frames: int = 4) -> int:
    config = dataclasses.replace(GpuConfig.small(), ot_queue_entries=depth)
    gpu = Gpu(config, RenderingElimination(config))
    total = 0
    for _ in range(frames):
        stats = gpu.render_frame(_big_primitive_frame())
        total += stats.technique_geometry_stall_cycles
    return total


@pytest.mark.parametrize("depth", DEPTHS)
def test_ablation_ot_queue_depth(benchmark, depth):
    stalls = benchmark.pedantic(
        geometry_stalls, args=(depth,), rounds=1, iterations=1
    )
    assert stalls >= 0


def test_stalls_fall_with_depth(benchmark):
    stalls = benchmark.pedantic(
        lambda: [geometry_stalls(depth) for depth in DEPTHS],
        rounds=1, iterations=1,
    )
    # Monotone non-increasing, and a deep-enough queue removes them.
    assert all(a >= b for a, b in zip(stalls, stalls[1:]))
    assert stalls[0] > 0, "a 4-entry queue must overflow on big layers"
    assert stalls[-1] == 0, "a 256-entry queue absorbs everything"
