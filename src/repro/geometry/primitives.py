"""Vertex buffers and assembled primitives.

Two representations flow through the pipeline:

* :class:`VertexBuffer` — what a drawcall submits: object-space positions,
  per-vertex attributes, and a triangle index list.
* :class:`PrimitiveBatch` — what Primitive Assembly emits per drawcall:
  the surviving triangles as arrays, one row per triangle, including the
  *post-transform* data that Rendering Elimination signs (clip-space
  positions and varyings, serialized by :func:`attribute_rows`).  The
  Parameter Buffer lists rows of these batches, and the raster side
  reads them.

:class:`Primitive` is one triangle as a standalone object.  It is how
hand-built triangles enter a batch (:meth:`PrimitiveBatch.from_primitives`)
and how a single row reads as one object (:meth:`PrimitiveBatch.primitive`).

The paper counts a primitive "attribute" as 48 bytes — three vertices of
four float32 components — so :attr:`PrimitiveBatch.num_attributes` counts
the position plus each varying (padded to vec4) as one attribute each.
"""

from __future__ import annotations

import copy
import dataclasses
import typing

import numpy as np

from ..errors import PipelineError
from .vec import as_points


#: Bytes of the address region each vertex buffer owns: buffer ``b``'s
#: vertices live at ``b << 24`` onward (:meth:`VertexBuffer.vertex_addresses`).
BUFFER_REGION_BYTES = 1 << 24


class VertexBuffer:
    """Indexed triangle mesh with named per-vertex attributes.

    The buffer owns its arrays: each is copied at construction and made
    read-only, so its bytes, named once by :attr:`content_token`, stay
    what they were.  ``buffer_id`` picks the buffer's address region; it
    may be reassigned (scenes number their buffers after building them).
    """

    def __init__(self, positions, indices, attributes=None,
                 buffer_id: int = 0) -> None:
        self.positions = _owned(as_points(positions, 3))
        self.indices = _owned(_triangle_indices(indices,
                                                len(self.positions)))
        self.attributes: dict = {}
        for name, values in (attributes or {}).items():
            values = np.asarray(values, dtype=np.float32)
            if values.ndim != 2 or values.shape[0] != len(self.positions):
                raise PipelineError(
                    f"attribute {name!r} must have one row per vertex"
                )
            self.attributes[name] = _owned(values)
        size = self.num_vertices * self.vertex_bytes()
        if size > BUFFER_REGION_BYTES:
            raise PipelineError(
                f"vertex buffer of {size} bytes exceeds its "
                f"{BUFFER_REGION_BYTES}-byte address region"
            )
        self.buffer_id = buffer_id
        self._content_token = None

    @property
    def buffer_id(self) -> int:
        return self._buffer_id

    @buffer_id.setter
    def buffer_id(self, value: int) -> None:
        if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
                or value < 0):
            raise PipelineError(
                f"buffer_id must be a non-negative integer, got {value!r}"
            )
        self._buffer_id = int(value)

    @property
    def content_token(self) -> tuple:
        """The buffer's vertex data as bytes, computed once: positions,
        indices, then each attribute's name, width and values in
        insertion order.  ``buffer_id`` is not part of it."""
        if self._content_token is None:
            self._content_token = (
                self.positions.tobytes(), self.indices.tobytes(),
                tuple((name, values.shape[1], values.tobytes())
                      for name, values in self.attributes.items()),
            )
        return self._content_token

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
        base = self.buffer_id * BUFFER_REGION_BYTES
        stride = self.vertex_bytes()
        indices = np.asarray(vertex_indices, dtype=np.int64)
        return base + indices * stride


def _owned(array: np.ndarray) -> np.ndarray:
    """A read-only copy of ``array``."""
    owned = array.copy()
    owned.flags.writeable = False
    return owned


def _triangle_indices(indices, num_vertices: int) -> np.ndarray:
    """``indices`` as an ``(m, 3)`` int32 array, refusing any index that
    is not a whole number in ``[0, num_vertices)``."""
    raw = np.asarray(indices)
    if raw.ndim != 2 or raw.shape[1] != 3:
        raise PipelineError(
            f"indices must be (m, 3) triangles, got {raw.shape}"
        )
    if not raw.size:
        return raw.astype(np.int32)
    if raw.dtype.kind not in "iuf" or (
            raw.dtype.kind == "f"
            and not np.array_equal(raw, np.floor(raw))):
        raise PipelineError("indices must be whole numbers")
    if raw.min() < 0:
        raise PipelineError("negative vertex index")
    if raw.max() >= num_vertices:
        raise PipelineError("index out of range of vertex positions")
    return raw.astype(np.int32)


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
        :func:`attribute_rows` lays it out."""
        return attribute_rows(
            np.asarray(self.clip)[None],
            {name: values[None] for name, values in self.varyings.items()},
        ).tobytes()

    def parameter_buffer_bytes(self) -> int:
        """Bytes this primitive occupies in the Parameter Buffer."""
        return len(self.attribute_bytes()) + PB_HEADER_BYTES

    def bounds(self) -> tuple:
        """Integer pixel bounding box (x0, y0, x1, y1), inclusive-exclusive."""
        xs = self.screen[:, 0]
        ys = self.screen[:, 1]
        return (
            int(np.floor(xs.min())),
            int(np.floor(ys.min())),
            int(np.ceil(xs.max())) + 1,
            int(np.ceil(ys.max())) + 1,
        )


class PrimitiveBatch:
    """One drawcall's assembled primitives, as arrays with one row per
    primitive.

    * ``screen`` (n, 3, 2), ``depth`` (n, 3) and ``clip`` (n, 3, 4);
    * ``varyings``: name -> (n, 3, k);
    * ``bounds`` (n, 4) int64, each row's :meth:`Primitive.bounds`;
    * ``attributes`` (n, L) uint8, each row's
      :meth:`Primitive.attribute_bytes` (see :func:`attribute_rows`);
    * ``pb_offsets`` (n,) int64, each row's byte offset in the Parameter
      Buffer once the Polygon List Builder has binned it, else -1.

    Every primitive of a drawcall has the same varying layout, so they
    share the row length L, the attribute count and the Parameter-Buffer
    size.  All arrays but ``pb_offsets`` are read-only, and ``derived``
    caches what later stages compute from them alone (:attr:`row_bytes`,
    the Signature Unit's block CRCs); :meth:`rebind` shares both with a
    batch for another drawcall of the same geometry.
    """

    def __init__(self, state: DrawState, screen: np.ndarray,
                 depth: np.ndarray, clip: np.ndarray, varyings: dict,
                 bounds: np.ndarray) -> None:
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
        self.pb_offsets = np.full(len(screen), -1, dtype=np.int64)
        self.derived: dict = {}

    def rebind(self, state: DrawState) -> "PrimitiveBatch":
        """A batch of the same primitives drawn under ``state``: it
        shares this batch's read-only arrays and ``derived`` cache, and
        has its own state and unbinned ``pb_offsets``."""
        twin = copy.copy(self)
        twin.state = state
        twin.pb_offsets = np.full(len(self.screen), -1, dtype=np.int64)
        return twin

    @classmethod
    def from_primitives(cls, state: DrawState,
                        prims: list) -> "PrimitiveBatch":
        """Batch primitives built one at a time."""
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
        )

    @property
    def parameter_buffer_bytes(self) -> int:
        """Bytes each primitive occupies in the Parameter Buffer."""
        return self.attributes.shape[1] + PB_HEADER_BYTES

    @property
    def num_attributes(self) -> int:
        """Each primitive's :attr:`Primitive.num_attributes`."""
        return 1 + len(self.varyings)

    @property
    def geometry_bytes(self) -> bytes:
        """Every row's screen positions then vertex depths, row after
        row: the bytes that decide the pixels the batch covers and their
        barycentrics."""
        return self._bytes()[0]

    @property
    def row_bytes(self) -> list:
        """Each row's ``(geometry, attributes)`` bytes: its slice of
        :attr:`geometry_bytes` and its :attr:`attributes` row.

        Built once per geometry, so every memo key that names a row holds
        these two objects, not a copy of its own.
        """
        return self._bytes()[1]

    def _bytes(self) -> tuple:
        cached = self.derived.get("bytes")
        if cached is None:
            n = len(self.screen)
            geometry = np.concatenate([
                self.screen.reshape(n, 6).view(np.uint8),
                self.depth.reshape(n, 3).view(np.uint8),
            ], axis=1)
            geom_len, attr_len = geometry.shape[1], self.attributes.shape[1]
            geometry, attr = geometry.tobytes(), self.attributes.tobytes()
            cached = self.derived["bytes"] = (geometry, [
                (geometry[g:g + geom_len], attr[a:a + attr_len])
                for g, a in zip(range(0, n * geom_len, geom_len),
                                range(0, n * attr_len, attr_len))
            ])
        return cached

    def primitive(self, row: int) -> Primitive:
        """Row ``row`` as one :class:`Primitive` of read-only row views."""
        return Primitive(
            self.screen[row], self.depth[row], self.clip[row],
            {name: values[row] for name, values in self.varyings.items()},
            self.state,
        )


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
