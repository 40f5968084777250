"""Vertex Fetcher + Vertex Processors.

Fetches the drawcall's vertex attributes through the memory hierarchy
(vertex cache, then DRAM on the "vertices" stream) and runs the bound vertex
shader over the whole vertex buffer in one vectorized call — one
invocation per vertex, as the hardware's single vertex processor would
issue them.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..engine.stage import Stage
from ..geometry.vec import homogenize
from ..memory.hierarchy import MemoryHierarchy


@dataclasses.dataclass
class VertexStageStats:
    vertices_fetched: int = 0
    vertices_shaded: int = 0
    shader_instructions: int = 0
    fetch_bytes: int = 0
    stall_cycles: int = 0

    def reset(self) -> None:
        self.vertices_fetched = 0
        self.vertices_shaded = 0
        self.shader_instructions = 0
        self.fetch_bytes = 0
        self.stall_cycles = 0


@dataclasses.dataclass
class ShadedVertices:
    """Output of the vertex stage for one drawcall."""

    clip: np.ndarray      # (n, 4) clip-space positions
    varyings: dict        # name -> (n, k)


class VertexStage(Stage):
    """Vertex fetch and shading for one drawcall at a time."""

    metrics_group = "vertex"

    def __init__(self, memory: MemoryHierarchy) -> None:
        self.memory = memory
        self.stats = VertexStageStats()

    def run(self, invocation) -> ShadedVertices:
        buffer = invocation.buffer
        state = invocation.state

        # Fetch: every referenced vertex is read once per drawcall, in
        # address order.
        used = np.unique(invocation.buffer.indices)
        addresses = buffer.vertex_addresses(used)
        per_vertex = buffer.vertex_bytes()
        # A vertex may straddle cache lines; touch both end lines.
        all_addrs = np.concatenate([addresses, addresses + per_vertex - 1])
        self.memory.fetch_vertices(np.sort(all_addrs), self.stats)

        self.stats.vertices_fetched += len(used)
        self.stats.fetch_bytes += len(used) * per_vertex

        # Shade.
        positions = homogenize(buffer.positions)
        clip, varyings = state.shader.run_vertex(
            positions, buffer.attributes, state.constants
        )
        self.stats.vertices_shaded += buffer.num_vertices
        self.stats.shader_instructions += (
            buffer.num_vertices * state.shader.vertex_instructions
        )
        return ShadedVertices(clip=clip, varyings=varyings)
