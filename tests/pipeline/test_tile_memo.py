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
from repro.textures import noise_texture
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
drawcall = st.fixed_dictionaries({
    "rect": st.tuples(unit, unit, unit, unit),
    "z": st.floats(0.05, 0.95, allow_nan=False),
    "uv_scale": st.sampled_from([1.0, 2.5]),
    "shader": st.integers(0, len(SHADERS) - 1),
    "tint": st.tuples(unit, unit, unit, st.sampled_from([0.5, 1.0])),
    "texture_seed": st.integers(0, 3),
    "depth_test": st.booleans(),
    "depth_write": st.booleans(),
})
frame = st.fixed_dictionaries({
    "drawcalls": st.lists(drawcall, min_size=1, max_size=3),
    "clear": st.tuples(unit, unit, unit),
    "line_bytes": st.just(64),
})

#: One input of the frame, and how to change it.
PERTURBATIONS = (
    "vertex_position", "vertex_depth", "varying", "constants",
    "texture_content", "shader", "depth_test", "depth_write",
    "clear_color", "texture_line_size",
)

#: A frame whose colors both depth flags decide: a textured quad behind
#: a full-screen background.  Turning off the background's depth writes
#: (drawcall 0) or the quad's depth test (drawcall 1) shows the quad.
BEHIND = {
    "drawcalls": [
        {"rect": (0.0, 0.0, 0.95, 0.95), "z": 0.5, "uv_scale": 1.0,
         "shader": 0, "tint": (0.2, 0.4, 0.6, 1.0), "texture_seed": 0,
         "depth_test": True, "depth_write": True},
        {"rect": (0.2, 0.2, 0.6, 0.6), "z": 0.7, "uv_scale": 2.5,
         "shader": 1, "tint": (1.0, 1.0, 1.0, 1.0), "texture_seed": 1,
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


def stream_of(spec) -> CommandStream:
    stream = CommandStream()
    for draw in spec["drawcalls"]:
        buffer = draw.get("buffer") or quad(draw)
        stream.set_shader(SHADERS[draw["shader"]])
        stream.set_texture(0, noise_texture(
            texture_id=1, size=32, seed=draw["texture_seed"],
        ))
        stream.set_constants(pack_constants(PROJ, tint=draw["tint"]))
        stream.draw(buffer, depth_test=draw["depth_test"],
                    depth_write=draw["depth_write"])
    return stream


def perturbed(spec, kind: str, index: int):
    """A copy of ``spec`` with one input changed, in drawcall ``index``
    where the input belongs to a drawcall."""
    spec = {**spec, "drawcalls": [dict(d) for d in spec["drawcalls"]]}
    draw = spec["drawcalls"][index % len(spec["drawcalls"])]
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
    elif kind == "texture_content":
        draw["texture_seed"] += 10       # same texture_id, new texels
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
    render(spec)                                 # seeds the TileMemo
    changed = perturbed(spec, kind, index)
    assert_same_frame(render(changed), render(changed, batched=False),
                      f"{kind} changed")
