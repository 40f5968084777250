"""Geometry substrate: vectors, matrices, meshes and assembled primitives."""

from . import clipping, mat4, vec
from .meshes import box_buffer, grid_buffer, ring_strip_buffer
from .primitives import (
    DrawState,
    Primitive,
    PrimitiveBatch,
    VertexBuffer,
    quad_buffer,
)

__all__ = [
    "clipping",
    "mat4",
    "vec",
    "box_buffer",
    "grid_buffer",
    "ring_strip_buffer",
    "DrawState",
    "Primitive",
    "PrimitiveBatch",
    "VertexBuffer",
    "quad_buffer",
]
