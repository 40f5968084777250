"""Vertex buffers and assembled primitives.

Two representations flow through the pipeline:

* :class:`VertexBuffer` — what a drawcall submits: object-space positions,
  per-vertex attributes, and a triangle index list.
* :class:`PrimitiveBatch` — what Primitive Assembly emits per drawcall:
  the surviving triangles as arrays, one row per triangle, including the
  *post-transform* data that Rendering Elimination signs (clip-space
  positions and varyings, serialized by :func:`attribute_rows`).
* :class:`Primitive` — one screen-space triangle with interpolatable
  varyings: a handle on one row of a batch, which the raster side reads.

The paper counts a primitive "attribute" as 48 bytes — three vertices of
four float32 components — so :meth:`Primitive.num_attributes` reports the
position plus each varying (padded to vec4) as one attribute each.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from ..errors import PipelineError
from .vec import as_points


class VertexBuffer:
    """Indexed triangle mesh with named per-vertex attributes."""

    def __init__(self, positions, indices, attributes=None,
                 buffer_id: int = 0) -> None:
        self.buffer_id = buffer_id
        self.positions = as_points(positions, 3)
        self.indices = np.asarray(indices, dtype=np.int32)
        if self.indices.ndim != 2 or self.indices.shape[1] != 3:
            raise PipelineError(
                f"indices must be (m, 3) triangles, got {self.indices.shape}"
            )
        if self.indices.size and self.indices.max() >= len(self.positions):
            raise PipelineError("index out of range of vertex positions")
        self.attributes: dict = {}
        for name, values in (attributes or {}).items():
            values = np.asarray(values, dtype=np.float32)
            if values.ndim != 2 or values.shape[0] != len(self.positions):
                raise PipelineError(
                    f"attribute {name!r} must have one row per vertex"
                )
            self.attributes[name] = values

    @property
    def num_vertices(self) -> int:
        return len(self.positions)

    @property
    def num_triangles(self) -> int:
        return len(self.indices)

    def vertex_bytes(self) -> int:
        """Bytes fetched per vertex by the Vertex Fetcher."""
        per_vertex = self.positions.shape[1] * 4
        for values in self.attributes.values():
            per_vertex += values.shape[1] * 4
        return per_vertex

    def vertex_addresses(self, vertex_indices) -> "np.ndarray":
        """Simulated byte addresses of the fetched vertices, placing each
        buffer in a disjoint 16-MB region keyed by ``buffer_id``."""
        base = self.buffer_id * (1 << 24)
        stride = self.vertex_bytes()
        indices = np.asarray(vertex_indices, dtype=np.int64)
        return base + indices * stride


@dataclasses.dataclass
class DrawState:
    """Pipeline state bound when a drawcall executes.

    ``constants`` is the flat float32 uniform block — the "scene
    constants" whose bytes enter the tile signature; ``constants_version``
    increments whenever the application uploads new constants, letting the
    Signature Unit clear its per-drawcall bitmap exactly when the paper
    says it should.
    """

    shader: "typing.Any"               # repro.shaders.program.ShaderProgram
    constants: np.ndarray
    textures: tuple = ()
    drawcall_id: int = 0
    constants_version: int = 0
    depth_test: bool = True
    depth_write: bool = True
    cull_backfaces: bool = False

    _constants_bytes: typing.Optional[bytes] = dataclasses.field(
        default=None, repr=False, compare=False
    )

    def constants_bytes(self) -> bytes:
        """Serialized uniform block, cached per ``constants_version``:
        uploads replace the DrawState (or bump the version via a new
        instance), so the bytes are immutable for this object's life."""
        if self._constants_bytes is None:
            self._constants_bytes = np.ascontiguousarray(
                self.constants, dtype=np.float32
            ).tobytes()
        return self._constants_bytes


#: Parameter-Buffer header bytes stored with each primitive's attributes.
PB_HEADER_BYTES = 16


def attribute_rows(clip: np.ndarray, varyings: dict) -> np.ndarray:
    """The bytes Rendering Elimination signs for ``n`` primitives, as an
    ``(n, L)`` uint8 array: per primitive, its clip-space positions
    ``clip`` (n, 3, 4), then each varying (n, 3, k) in sorted name
    order, padded to vec4 when narrower, all as float32.

    Sorted names make the byte stream deterministic.  The paper counts
    each vec4 attribute of the three vertices as 48 bytes.
    """
    n = len(clip)
    parts = [np.asarray(clip, dtype=np.float32).reshape(n, 12)]
    for name in sorted(varyings):
        values = varyings[name]
        width = values.shape[2]
        if width < 4:
            padded = np.zeros((n, 3, 4), dtype=np.float32)
            padded[:, :, :width] = values
            values, width = padded, 4
        parts.append(np.asarray(values, dtype=np.float32).reshape(n, 3 * width))
    return np.concatenate(parts, axis=1).view(np.uint8)


@dataclasses.dataclass
class Primitive:
    """One assembled, screen-space triangle."""

    screen: np.ndarray                 # (3, 2) pixel coordinates
    depth: np.ndarray                  # (3,) depth in [0, 1]
    clip: np.ndarray                   # (3, 4) clip-space positions
    varyings: dict                     # name -> (3, k) float32
    state: DrawState
    prim_id: int = 0
    pb_offset: int = -1                # byte offset in the Parameter Buffer
    _attr_bytes: typing.Optional[bytes] = dataclasses.field(
        default=None, repr=False, compare=False
    )
    _geometry_bytes: typing.Optional[bytes] = dataclasses.field(
        default=None, repr=False, compare=False
    )
    _bounds: typing.Optional[tuple] = dataclasses.field(
        default=None, repr=False, compare=False
    )

    def signed_area2(self) -> float:
        """Twice the signed area of the screen-space triangle."""
        (x0, y0), (x1, y1), (x2, y2) = self.screen
        return float((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))

    @property
    def num_attributes(self) -> int:
        """Attribute count in the paper's 48-byte units: position + one
        per varying."""
        return 1 + len(self.varyings)

    def attribute_bytes(self) -> bytes:
        """The data Rendering Elimination signs for this primitive, as
        :func:`attribute_rows` lays it out.

        Cached: a primitive's post-transform data is immutable once
        assembled, and Primitive Assembly fills the cache from its
        batch's rows.
        """
        if self._attr_bytes is None:
            self._attr_bytes = attribute_rows(
                np.asarray(self.clip)[None],
                {name: values[None] for name, values in self.varyings.items()},
            ).tobytes()
        return self._attr_bytes

    def geometry_bytes(self) -> bytes:
        """Screen positions then vertex depths, the bytes that decide
        which pixels the primitive covers and their barycentrics.

        Cached like :meth:`attribute_bytes`: the raster and tile memos
        key on these bytes once per primitive, or once per tile it
        overlaps."""
        if self._geometry_bytes is None:
            self._geometry_bytes = self.screen.tobytes() + self.depth.tobytes()
        return self._geometry_bytes

    def parameter_buffer_bytes(self) -> int:
        """Bytes this primitive occupies in the Parameter Buffer."""
        return len(self.attribute_bytes()) + PB_HEADER_BYTES

    def bounds(self) -> tuple:
        """Integer pixel bounding box (x0, y0, x1, y1), inclusive-exclusive.

        Primitive Assembly fills this from its batch's bounds; the lazy
        path below serves primitives built directly in tests.
        """
        if self._bounds is None:
            xs = self.screen[:, 0]
            ys = self.screen[:, 1]
            self._bounds = (
                int(np.floor(xs.min())),
                int(np.floor(ys.min())),
                int(np.ceil(xs.max())) + 1,
                int(np.ceil(ys.max())) + 1,
            )
        return self._bounds


class PrimitiveBatch:
    """One drawcall's assembled primitives, as arrays with one row per
    primitive.

    * ``screen`` (n, 3, 2), ``depth`` (n, 3) and ``clip`` (n, 3, 4);
    * ``varyings``: name -> (n, 3, k);
    * ``bounds`` (n, 4) int64, each primitive's :meth:`Primitive.bounds`;
    * ``attributes`` (n, L) uint8, each primitive's
      :meth:`Primitive.attribute_bytes` (see :func:`attribute_rows`);
    * ``primitives``: the :class:`Primitive` of each row.

    Every primitive of a drawcall has the same varying layout, so they
    share the row length L and the Parameter-Buffer size.  The arrays
    are read-only, and the handles built from them hold row views, not
    the batch.
    """

    def __init__(self, state: DrawState, screen: np.ndarray,
                 depth: np.ndarray, clip: np.ndarray, varyings: dict,
                 bounds: np.ndarray, first_id: int = 0,
                 primitives: typing.Optional[list] = None) -> None:
        self.state = state
        self.screen = screen
        self.depth = depth
        self.clip = clip
        self.varyings = varyings
        self.bounds = bounds
        self.attributes = attribute_rows(clip, varyings)
        for array in (screen, depth, clip, bounds, self.attributes,
                      *varyings.values()):
            array.flags.writeable = False
        if primitives is None:
            primitives = self._handles(first_id)
        self.primitives = primitives

    @classmethod
    def from_primitives(cls, state: DrawState,
                        prims: list) -> "PrimitiveBatch":
        """Batch primitives built one at a time, keeping the objects."""
        prims = list(prims)
        n = len(prims)
        layouts = {
            tuple((name, values.shape[1])
                  for name, values in sorted(prim.varyings.items()))
            for prim in prims
        }
        if len(layouts) > 1:
            raise PipelineError(
                "the primitives of one drawcall must share a varying layout"
            )
        varyings = {
            name: np.array([prim.varyings[name] for prim in prims])
            for name, _ in (layouts.pop() if layouts else ())
        }
        return cls(
            state,
            screen=np.array([p.screen for p in prims],
                            dtype=np.float32).reshape(n, 3, 2),
            depth=np.array([p.depth for p in prims],
                           dtype=np.float32).reshape(n, 3),
            clip=np.array([p.clip for p in prims],
                          dtype=np.float32).reshape(n, 3, 4),
            varyings=varyings,
            bounds=np.array([p.bounds() for p in prims],
                            dtype=np.int64).reshape(n, 4),
            primitives=prims,
        )

    @property
    def parameter_buffer_bytes(self) -> int:
        """Bytes each primitive occupies in the Parameter Buffer."""
        return self.attributes.shape[1] + PB_HEADER_BYTES

    def _handles(self, first_id: int) -> list:
        """One :class:`Primitive` per row, holding row views, with its
        bounds, attribute bytes and geometry bytes filled in from the
        batch."""
        n = len(self.screen)
        names = list(self.varyings)
        if len(names) == 1:
            # The common layout, built without a zip per primitive.
            name, = names
            varyings = [{name: row} for row in self.varyings[name]]
        elif names:
            varyings = [dict(zip(names, rows)) for rows in zip(
                *(list(self.varyings[name]) for name in names)
            )]
        else:
            varyings = [{} for _ in range(n)]
        attr = self.attributes.tobytes()
        attr_len = self.attributes.shape[1]
        geometry = np.concatenate([
            self.screen.reshape(n, 6).view(np.uint8),
            self.depth.reshape(n, 3).view(np.uint8),
        ], axis=1)
        geom_len = geometry.shape[1]
        geometry = geometry.tobytes()
        state = self.state
        # Positional arguments, in field order: the dataclass __init__
        # takes them at half the cost of keywords.
        return [
            Primitive(screen, depth, clip, varying, state, prim_id, -1,
                      attr[a:a + attr_len], geometry[g:g + geom_len], bounds)
            for screen, depth, clip, varying, prim_id, a, g, bounds in zip(
                self.screen, self.depth, self.clip, varyings,
                range(first_id, first_id + n),
                range(0, n * attr_len, attr_len),
                range(0, n * geom_len, geom_len),
                map(tuple, self.bounds.tolist()),
            )
        ]


def quad_buffer(x0: float, y0: float, x1: float, y1: float, z: float = 0.5,
                uv_scale: float = 1.0, attributes=None,
                subdivide: int = 1) -> VertexBuffer:
    """Axis-aligned quad in normalized [0,1] screen space.

    The workhorse mesh of the 2D workloads.  ``uv`` coordinates are
    generated automatically and scaled by ``uv_scale``.  ``subdivide``
    tessellates the quad into an NxN grid (2*N*N triangles), which is
    how the workloads model the geometric detail of real game layers —
    it multiplies Parameter Buffer traffic and binning work without
    changing the rendered image.
    """
    if subdivide < 1:
        raise PipelineError("subdivide must be >= 1")
    n = subdivide
    xs = np.linspace(x0, x1, n + 1, dtype=np.float32)
    ys = np.linspace(y0, y1, n + 1, dtype=np.float32)
    us = np.linspace(0.0, uv_scale, n + 1, dtype=np.float32)

    positions = []
    uv = []
    for row in range(n + 1):
        for col in range(n + 1):
            positions.append([xs[col], ys[row], z])
            uv.append([us[col], us[row]])

    indices = []
    stride = n + 1
    for row in range(n):
        for col in range(n):
            a = row * stride + col
            b = a + 1
            c = a + stride + 1
            d = a + stride
            indices.append([a, b, c])
            indices.append([a, c, d])

    attrs = {"uv": np.asarray(uv, dtype=np.float32)}
    for name, values in (attributes or {}).items():
        attrs[name] = values
    return VertexBuffer(positions, indices, attrs)
