"""The TileMemo key is complete: no change to a tile's inputs is a hit.

The TileMemo is process-wide, so a tile rendered by one batched GPU can
be replayed by any later one.  A replay is exact only if the key holds
everything that decides the tile's colors, counters and texel line
streams.  Each test renders a frame once to seed the memo, then renders
a copy with one input changed on a fresh batched GPU and on the scalar
reference, ``Gpu(batched=False)``, which never consults a memo: every
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
}


def quad(spec) -> VertexBuffer:
    x0, y0, x1, y1 = spec["rect"]
    return quad_buffer(min(x0, x1), min(y0, y1), max(x0, x1) + 0.05,
                       max(y0, y1) + 0.05, z=spec["z"],
                       uv_scale=spec["uv_scale"])


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
                    depth_write=draw["depth_write"])
    return stream


def copied(spec, index: int):
    """A copy of ``spec``, and the copy's drawcall ``index``."""
    spec = {**spec, "drawcalls": [
        {**d, "texture": dict(d["texture"])} for d in spec["drawcalls"]
    ]}
    return spec, spec["drawcalls"][index % len(spec["drawcalls"])]


def retextured(spec, kind: str, index: int):
    """``spec``, with drawcall ``index`` bound to a texture that has
    the input ``kind`` when that input is a texture's."""
    if kind not in TEXTURE_INPUTS:
        return spec
    spec, draw = copied(spec, index)
    draw["texture"]["kind"] = TEXTURE_INPUTS[kind][0]
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
    else:
        spec["line_bytes"] = 32
    return spec


def render(spec, batched=True):
    config = with_texture_lines(GpuConfig.small(), spec["line_bytes"])
    gpu = Gpu(config, batched=batched)
    return gpu.render_frame(stream_of(spec),
                            clear_color=(*spec["clear"], 1.0))


@pytest.mark.parametrize("kind", PERTURBATIONS)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=frame, index=st.integers(0, 2))
@example(spec=BEHIND, index=0)
@example(spec=BEHIND, index=1)
def test_changing_any_input_never_replays_a_stale_tile(kind, spec, index):
    spec = retextured(spec, kind, index)
    render(spec)                                 # seeds the TileMemo
    changed = perturbed(spec, kind, index)
    assert_same_frame(render(changed), render(changed, batched=False),
                      f"{kind} changed")
