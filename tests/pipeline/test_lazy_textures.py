"""Procedural textures generate their texels only when sampled.

A recipe texture's TileMemo key names its recipe, not its texels, so a
cell whose tiles all replay from the TileMemo or are skipped never
generates a texture, and a GPU that renders every tile generates each
texture it samples once.
"""

from repro.config import GpuConfig
from repro.harness.runner import run_workload
from repro.pipeline import Gpu, fragment_stage
from repro.workloads.games import build_scene

CONFIG = GpuConfig.small()
FRAMES = 8


def test_memo_replayed_cells_generate_no_texture(generated_textures):
    for alias in ("ccs", "mst"):
        run_workload(alias, "baseline", CONFIG, num_frames=FRAMES)
        for technique in ("re", "te"):
            generated_textures.clear()
            run_workload(alias, technique, CONFIG, num_frames=FRAMES)
            assert generated_textures == [], f"{alias}/{technique}"


def test_scalar_gpu_generates_each_sampled_texture_once(generated_textures,
                                                        monkeypatch):
    sampled = set()
    sample = fragment_stage.sample_nearest

    def recording(texture, uv):
        sampled.add(texture)
        return sample(texture, uv)

    monkeypatch.setattr(fragment_stage, "sample_nearest", recording)
    for alias in ("ccs", "mst"):
        gpu = Gpu(CONFIG, batched=False)
        scene = build_scene(alias)
        for stream in scene.frames(FRAMES):
            gpu.render_frame(stream, clear_color=scene.clear_color)
    assert sampled
    assert len(generated_textures) == len(set(generated_textures))
    assert set(generated_textures) == sampled
