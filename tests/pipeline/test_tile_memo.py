"""The host memo keys are complete: no change to an input is a hit.

The geometry, raster and tile memos are process-wide, so a drawcall or
tile computed by one batched GPU can be replayed by any later one.  A
replay is exact only if the key holds everything that decides the
result: a drawcall's batch, vertex line stream, counters and tile
overlaps, or a tile's colors, counters and texel line streams.  Each
test renders a frame once to seed the memos, then renders a copy with
one input changed on a fresh batched GPU and on the scalar reference,
``Gpu(batched=False)``, which never consults a memo: every
:class:`FrameStats` field and every color must agree.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.config import GpuConfig
from repro.geometry import VertexBuffer, mat4, quad_buffer
from repro.harness.runner import make_technique
from repro.pipeline import CommandStream, Gpu
from repro.shaders import ALPHA_TEXTURED, FLAT_COLOR, TEXTURED, pack_constants
from repro.textures import (
    checker_texture,
    flat_texture,
    gradient_texture,
    noise_texture,
)
from repro.workloads.games import build_scene

PROJ = mat4.ortho2d()


def with_texture_lines(config: GpuConfig, line_bytes: int) -> GpuConfig:
    """``config`` with texture-cache lines of ``line_bytes`` bytes."""
    return dataclasses.replace(config, texture_cache=dataclasses.replace(
        config.texture_cache, line_bytes=line_bytes,
    ))


def with_vertex_lines(config: GpuConfig, line_bytes: int) -> GpuConfig:
    """``config`` with vertex-cache lines of ``line_bytes`` bytes."""
    return dataclasses.replace(config, vertex_cache=dataclasses.replace(
        config.vertex_cache, line_bytes=line_bytes,
    ))


def assert_same_frame(a, b, label):
    stats_a, stats_b = dataclasses.asdict(a), dataclasses.asdict(b)
    colors_a, colors_b = stats_a.pop("frame_colors"), stats_b.pop("frame_colors")
    diffs = {key: (stats_a[key], stats_b[key])
             for key in stats_a if stats_a[key] != stats_b[key]}
    assert not diffs, f"{label}: {diffs}"
    assert np.array_equal(colors_a, colors_b), label


def first_frame(config, alias, technique="baseline", batched=True):
    gpu = Gpu(config, make_technique(technique, config), batched=batched)
    scene = build_scene(alias)
    stream = next(iter(scene.frames(1)))
    return gpu.render_frame(stream, clear_color=scene.clear_color)


def test_texture_line_size_is_part_of_the_key():
    """A TileMemo entry replays its texel lines cut at the line size it
    was rendered with; a GPU with other lines must not replay it."""
    config = GpuConfig.small()
    first_frame(config, "mst")                  # seeds the memo, 64-B lines
    narrow = with_texture_lines(config, 32)
    assert_same_frame(first_frame(narrow, "mst"),
                      first_frame(narrow, "mst", batched=False),
                      "mst at 32-byte texture lines")


# --- Random frames, one input changed -----------------------------------
SHADERS = (FLAT_COLOR, TEXTURED, ALPHA_TEXTURED)

unit = st.floats(0.0, 1.0, allow_nan=False, width=32)
color = st.tuples(unit, unit, unit, st.sampled_from([0.5, 1.0]))
texture = st.fixed_dictionaries({
    "kind": st.sampled_from(["flat", "checker", "gradient", "noise"]),
    "colors": st.tuples(color, color),
    "cells": st.sampled_from([2, 4]),
    "seed": st.integers(0, 3),
    "amplitude": st.sampled_from([0.25, 0.5]),
})
drawcall = st.fixed_dictionaries({
    "rect": st.tuples(unit, unit, unit, unit),
    "z": st.floats(0.05, 0.95, allow_nan=False),
    "uv_scale": st.sampled_from([1.0, 2.5]),
    "shader": st.integers(0, len(SHADERS) - 1),
    "tint": st.tuples(unit, unit, unit, st.sampled_from([0.5, 1.0])),
    "texture": texture,
    "depth_test": st.booleans(),
    "depth_write": st.booleans(),
})
frame = st.fixed_dictionaries({
    "drawcalls": st.lists(drawcall, min_size=1, max_size=3),
    "clear": st.tuples(unit, unit, unit),
    "line_bytes": st.just(64),
    "vertex_line_bytes": st.just(64),
    "screen_width": st.just(96),
})

#: Each texture input: the constructor it belongs to, and its argument.
TEXTURE_INPUTS = {
    "texture_content": ("noise", "seed"),
    "noise_base_color": ("noise", "colors"),
    "noise_amplitude": ("noise", "amplitude"),
    "flat_color": ("flat", "colors"),
    "checker_colors": ("checker", "colors"),
    "checker_cells": ("checker", "cells"),
    "gradient_colors": ("gradient", "colors"),
}

#: One input of the frame, and how to change it.
PERTURBATIONS = (
    "vertex_position", "vertex_depth", "varying", "constants", "shader",
    "depth_test", "depth_write", "clear_color", "texture_line_size",
    "buffer_id", "index_order", "cull_backfaces", "renamed_attribute",
    "vertex_line_size", "screen_size",
    *TEXTURE_INPUTS,
)

#: A frame whose colors both depth flags decide: a textured quad behind
#: a full-screen background.  Turning off the background's depth writes
#: (drawcall 0) or the quad's depth test (drawcall 1) shows the quad.
BEHIND = {
    "drawcalls": [
        {"rect": (0.0, 0.0, 0.95, 0.95), "z": 0.5, "uv_scale": 1.0,
         "shader": 0, "tint": (0.2, 0.4, 0.6, 1.0),
         "texture": {"kind": "noise", "colors": ((0.5, 0.5, 0.5, 1.0),) * 2,
                     "cells": 2, "seed": 0, "amplitude": 0.5},
         "depth_test": True, "depth_write": True},
        {"rect": (0.2, 0.2, 0.6, 0.6), "z": 0.7, "uv_scale": 2.5,
         "shader": 1, "tint": (1.0, 1.0, 1.0, 1.0),
         "texture": {"kind": "noise", "colors": ((0.5, 0.5, 0.5, 1.0),) * 2,
                     "cells": 2, "seed": 1, "amplitude": 0.5},
         "depth_test": True, "depth_write": True},
    ],
    "clear": (0.0, 0.0, 0.0),
    "line_bytes": 64,
    "vertex_line_bytes": 64,
    "screen_width": 96,
}


#: One textured quad in front: every change to its drawcall shows.
FRONT = {
    "drawcalls": [
        {"rect": (0.1, 0.15, 0.5, 0.6), "z": 0.5, "uv_scale": 1.0,
         "shader": 1, "tint": (1.0, 1.0, 1.0, 1.0),
         "texture": {"kind": "noise", "colors": ((0.5, 0.5, 0.5, 1.0),) * 2,
                     "cells": 2, "seed": 2, "amplitude": 0.5},
         "depth_test": True, "depth_write": True},
    ],
    "clear": (0.0, 0.0, 0.0),
    "line_bytes": 64,
    "vertex_line_bytes": 64,
    "screen_width": 96,
}


def quad(spec) -> VertexBuffer:
    x0, y0, x1, y1 = spec["rect"]
    return quad_buffer(min(x0, x1), min(y0, y1), max(x0, x1) + 0.05,
                       max(y0, y1) + 0.05, z=spec["z"],
                       uv_scale=spec["uv_scale"])


def overlapping_quads(spec) -> VertexBuffer:
    """The drawcall's quad, then a copy shifted to overlap it with uv
    twice as dense, in one buffer: their triangle order decides which
    one's texels the overlap shows."""
    first = quad(spec)
    second = quad({**spec, "rect": tuple(c + 0.1 for c in spec["rect"]),
                   "uv_scale": 2 * spec["uv_scale"]})
    return VertexBuffer(
        np.concatenate([first.positions, second.positions]),
        np.concatenate([first.indices, second.indices + first.num_vertices]),
        {"uv": np.concatenate([first.attributes["uv"],
                               second.attributes["uv"]])},
    )


def texture_of(spec):
    """The drawcall's texture: always id 1 and 32x32 texels, so only
    its recipe tells two apart."""
    kind, (color_a, color_b) = spec["kind"], spec["colors"]
    if kind == "flat":
        return flat_texture(color_a, 1, size=32)
    if kind == "checker":
        return checker_texture(color_a, color_b, 1, size=32,
                               cells=spec["cells"])
    if kind == "gradient":
        return gradient_texture(color_a, color_b, 1, size=32)
    return noise_texture(1, size=32, seed=spec["seed"], base_color=color_a,
                         amplitude=spec["amplitude"])


def stream_of(spec) -> CommandStream:
    stream = CommandStream()
    for draw in spec["drawcalls"]:
        buffer = draw.get("buffer") or quad(draw)
        stream.set_shader(SHADERS[draw["shader"]])
        stream.set_texture(0, texture_of(draw["texture"]))
        stream.set_constants(pack_constants(PROJ, tint=draw["tint"]))
        stream.draw(buffer, depth_test=draw["depth_test"],
                    depth_write=draw["depth_write"],
                    cull_backfaces=draw.get("cull_backfaces", False))
    return stream


def copied(spec, index: int):
    """A copy of ``spec``, and the copy's drawcall ``index``."""
    spec = {**spec, "drawcalls": [
        {**d, "texture": dict(d["texture"])} for d in spec["drawcalls"]
    ]}
    return spec, spec["drawcalls"][index % len(spec["drawcalls"])]


def prepared(spec, kind: str, index: int):
    """``spec``, with drawcall ``index`` given what changing the input
    ``kind`` needs: a texture that has the input, when it is a
    texture's; or a buffer whose triangle order shows in its colors,
    whose triangles face away (so culling shows), or with a second
    attribute to trade names with "uv"."""
    spec, draw = copied(spec, index)
    if kind in TEXTURE_INPUTS:
        draw["texture"]["kind"] = TEXTURE_INPUTS[kind][0]
    elif kind == "index_order":
        draw["buffer"] = overlapping_quads(draw)
    elif kind == "cull_backfaces":
        buffer = quad(draw)
        draw["buffer"] = VertexBuffer(buffer.positions,
                                      buffer.indices[:, [0, 2, 1]],
                                      buffer.attributes)
    elif kind == "renamed_attribute":
        buffer = quad(draw)
        uv = buffer.attributes["uv"]
        draw["buffer"] = VertexBuffer(buffer.positions, buffer.indices,
                                      {"uv": uv, "st": uv * 2.5})
    return spec


def perturbed(spec, kind: str, index: int):
    """A copy of ``spec`` with one input changed, in drawcall ``index``
    where the input belongs to a drawcall."""
    spec, draw = copied(spec, index)
    if kind in ("vertex_position", "vertex_depth", "varying"):
        buffer = quad(draw)
        positions = buffer.positions.copy()
        uv = buffer.attributes["uv"].copy()
        if kind == "vertex_position":
            positions[0, 0] += 0.1
        elif kind == "vertex_depth":
            positions[0, 2] = 1.0 - positions[0, 2]
        else:
            uv[0, 0] += 0.25
        draw["buffer"] = VertexBuffer(positions, buffer.indices, {"uv": uv})
    elif kind == "constants":
        draw["tint"] = (1.0 - draw["tint"][0],) + tuple(draw["tint"][1:])
    elif kind in TEXTURE_INPUTS:         # same texture_id, new texels
        texture = draw["texture"]
        argument = TEXTURE_INPUTS[kind][1]
        if argument == "colors":
            (first, *rest), other = texture["colors"]
            texture["colors"] = (((first + 0.5) % 1.0, *rest), other)
        elif argument == "seed":
            texture["seed"] += 10
        elif argument == "cells":
            texture["cells"] = 6 - texture["cells"]               # 2 <-> 4
        else:
            texture["amplitude"] = 0.75 - texture["amplitude"]    # 0.25 <-> 0.5
    elif kind == "shader":
        draw["shader"] = (draw["shader"] + 1) % len(SHADERS)
    elif kind in ("depth_test", "depth_write"):
        draw[kind] = not draw[kind]
    elif kind == "clear_color":
        spec["clear"] = (1.0 - spec["clear"][0],) + tuple(spec["clear"][1:])
    elif kind == "texture_line_size":
        spec["line_bytes"] = 32
    elif kind == "buffer_id":
        # The same vertex data in another address region: its lines no
        # longer meet the other drawcalls' (all in region 0).
        buffer = quad(draw)
        buffer.buffer_id = 3
        draw["buffer"] = buffer
    elif kind == "index_order":
        buffer = draw["buffer"]
        draw["buffer"] = VertexBuffer(buffer.positions, buffer.indices[::-1],
                                      buffer.attributes)
    elif kind == "cull_backfaces":
        draw["cull_backfaces"] = True
    elif kind == "renamed_attribute":
        # The same arrays in the same order, under each other's names.
        attributes = draw["buffer"].attributes
        draw["buffer"] = VertexBuffer(
            draw["buffer"].positions, draw["buffer"].indices,
            {"st": attributes["uv"], "uv": attributes["st"]},
        )
    elif kind == "vertex_line_size":
        spec["vertex_line_bytes"] = 32
    else:
        spec["screen_width"] = 80
    return spec


def render(spec, batched=True):
    config = dataclasses.replace(
        with_vertex_lines(
            with_texture_lines(GpuConfig.small(), spec["line_bytes"]),
            spec["vertex_line_bytes"],
        ),
        screen_width=spec["screen_width"],
    )
    gpu = Gpu(config, batched=batched)
    return gpu.render_frame(stream_of(spec),
                            clear_color=(*spec["clear"], 1.0))


@pytest.mark.parametrize("kind", PERTURBATIONS)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=frame, index=st.integers(0, 2))
@example(spec=BEHIND, index=0)
@example(spec=BEHIND, index=1)
@example(spec=FRONT, index=0)
def test_changing_any_input_never_replays_a_stale_tile(kind, spec, index):
    spec = prepared(spec, kind, index)
    render(spec)                                 # seeds the memos
    changed = perturbed(spec, kind, index)
    assert_same_frame(render(changed), render(changed, batched=False),
                      f"{kind} changed")
