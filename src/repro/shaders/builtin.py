"""Built-in shader library used by the synthetic workloads.

Four programs cover the spectrum the benchmark games need:

* ``flat_color``      — untextured solid color (cheap 2D UI layers);
* ``textured``        — one texture fetch modulated by a tint;
* ``scrolling``       — textured with a uv offset taken from the
  constants, the mechanism behind camera panning in 2D games (the pan
  changes the constants, hence every covered tile's signature);
* ``lit_textured``    — texture plus a Lambert term against a light
  direction from the constants (the expensive 3D-game shader).

Instruction counts approximate real mobile shaders (transform,
addressing, filtering arithmetic, format conversions): a flat fill is
~16 ops, a textured modulate ~40, and the lit path ~80; vertex
shaders (transform + attribute setup) run ~48-96 ops.
"""

from __future__ import annotations

import numpy as np

from ..geometry import mat4
from .program import (
    ShaderProgram,
    mvp_from_constants,
    params_from_constants,
    tint_from_constants,
)


def _transform_vertex(positions, attributes, constants):
    """Common vertex body: MVP transform, pass uv through."""
    mvp = mvp_from_constants(constants)
    clip = mat4.transform(mvp, positions)
    varyings = {"uv": attributes["uv"].astype(np.float32)}
    return clip, varyings


def _vs_flat(positions, attributes, constants):
    mvp = mvp_from_constants(constants)
    clip = mat4.transform(mvp, positions)
    return clip, {}


def _fs_flat_counted(varyings, constants, fetch):
    # The fragment stage always injects the "_screen" pseudo-varying, so
    # shaders with no real varyings can still size their output batch.
    count = varyings["_screen"].shape[0]
    tint = tint_from_constants(constants)
    return np.broadcast_to(tint, (count, 4)).copy()


def _fs_textured(varyings, constants, fetch):
    tint = tint_from_constants(constants)
    texel = fetch(0, varyings["uv"])
    return texel * tint


def _fs_scrolling(varyings, constants, fetch):
    tint = tint_from_constants(constants)
    offset = params_from_constants(constants)[:2]
    texel = fetch(0, varyings["uv"] + offset)
    return texel * tint


def _vs_lit(positions, attributes, constants):
    mvp = mvp_from_constants(constants)
    clip = mat4.transform(mvp, positions)
    varyings = {
        "uv": attributes["uv"].astype(np.float32),
        "normal": attributes["normal"].astype(np.float32),
    }
    return clip, varyings


def _fs_lit(varyings, constants, fetch):
    tint = tint_from_constants(constants)
    light = params_from_constants(constants)[:3]
    norm = np.linalg.norm(light)
    light = light / norm if norm > 0 else np.array([0.0, 0.0, 1.0], np.float32)
    texel = fetch(0, varyings["uv"])
    normals = varyings["normal"][:, :3]
    lengths = np.linalg.norm(normals, axis=1, keepdims=True)
    normals = normals / np.where(lengths == 0, 1.0, lengths)
    # An elementwise dot, not ``normals @ light``: a matrix-vector
    # product may round a row differently depending on the other rows
    # in the batch, and the batch a fragment lands in is a host detail.
    dot = (normals[:, 0] * light[0] + normals[:, 1] * light[1]
           + normals[:, 2] * light[2])
    lambert = np.clip(dot, 0.2, 1.0)[:, None]  # 0.2 ambient floor
    color = texel * tint
    color[:, :3] *= lambert
    return color


FLAT_COLOR = ShaderProgram(
    name="flat_color", program_id=1,
    vertex_fn=_vs_flat, fragment_fn=_fs_flat_counted,
    vertex_instructions=48, fragment_instructions=16,
    texture_fetches=0,
)

TEXTURED = ShaderProgram(
    name="textured", program_id=2,
    vertex_fn=_transform_vertex, fragment_fn=_fs_textured,
    vertex_instructions=56, fragment_instructions=40,
    texture_fetches=1,
)

SCROLLING = ShaderProgram(
    name="scrolling", program_id=3,
    vertex_fn=_transform_vertex, fragment_fn=_fs_scrolling,
    vertex_instructions=56, fragment_instructions=44,
    texture_fetches=1,
)

LIT_TEXTURED = ShaderProgram(
    name="lit_textured", program_id=4,
    vertex_fn=_vs_lit, fragment_fn=_fs_lit,
    vertex_instructions=96, fragment_instructions=80,
    texture_fetches=1,
)

ALPHA_TEXTURED = ShaderProgram(
    name="alpha_textured", program_id=5,
    vertex_fn=_transform_vertex, fragment_fn=_fs_textured,
    vertex_instructions=56, fragment_instructions=44,
    texture_fetches=1, uses_alpha_blend=True,
)

#: All built-in programs by name.
PROGRAMS = {
    program.name: program
    for program in (FLAT_COLOR, TEXTURED, SCROLLING, LIT_TEXTURED, ALPHA_TEXTURED)
}
