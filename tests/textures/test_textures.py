"""Textures and samplers."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import PipelineError
from repro.textures import (
    TEXTURE_ADDRESS_STRIDE,
    Texture,
    checker_texture,
    flat_texture,
    gradient_texture,
    noise_texture,
    sample_bilinear,
    sample_nearest,
)


class TestTextureConstruction:
    def test_flat_texture_is_uniform(self):
        tex = flat_texture((0.2, 0.4, 0.6, 1.0), texture_id=1)
        assert np.allclose(tex.data, [0.2, 0.4, 0.6, 1.0])

    def test_checker_has_both_colors(self):
        tex = checker_texture((1, 1, 1, 1), (0, 0, 0, 1), texture_id=2)
        assert tex.data[..., 0].max() == 1.0
        assert tex.data[..., 0].min() == 0.0

    def test_gradient_interpolates(self):
        tex = gradient_texture((0, 0, 0, 1), (1, 1, 1, 1), texture_id=3, size=32)
        assert tex.data[0, 0, 0] < tex.data[-1, 0, 0]

    def test_noise_is_deterministic(self):
        a = noise_texture(texture_id=4, seed=7)
        b = noise_texture(texture_id=4, seed=7)
        assert np.array_equal(a.data, b.data)
        c = noise_texture(texture_id=4, seed=8)
        assert not np.array_equal(a.data, c.data)

    def test_rejects_bad_shape(self):
        with pytest.raises(PipelineError):
            Texture(np.zeros((4, 4, 3)), texture_id=0)

    def test_address_spaces_disjoint(self):
        a = flat_texture((1, 1, 1, 1), texture_id=0)
        b = flat_texture((1, 1, 1, 1), texture_id=1)
        assert b.base_address - a.base_address == TEXTURE_ADDRESS_STRIDE
        assert a.base_address + a.nbytes <= b.base_address


class TestSampling:
    def test_nearest_picks_exact_texel(self):
        tex = checker_texture((1, 0, 0, 1), (0, 0, 1, 1), texture_id=1,
                              size=8, cells=8)
        # Center of texel (0,0): a "color_a" cell.
        result = sample_nearest(tex, np.array([[0.0625, 0.0625]]))
        assert np.allclose(result.colors[0], [1, 0, 0, 1])

    def test_nearest_wraps(self):
        tex = flat_texture((0.5, 0.5, 0.5, 1.0), texture_id=1)
        result = sample_nearest(tex, np.array([[1.5, -0.25]]))
        assert np.allclose(result.colors[0], [0.5, 0.5, 0.5, 1.0])

    def test_nearest_one_address_per_sample(self):
        tex = flat_texture((1, 1, 1, 1), texture_id=1)
        uv = np.random.default_rng(0).random((10, 2)).astype(np.float32)
        result = sample_nearest(tex, uv)
        assert result.addresses.shape == (10,)
        assert np.all(result.addresses >= tex.base_address)

    def test_bilinear_four_addresses_per_sample(self):
        tex = flat_texture((1, 1, 1, 1), texture_id=1)
        result = sample_bilinear(tex, np.array([[0.5, 0.5], [0.2, 0.8]]))
        assert result.addresses.shape == (8,)

    def test_bilinear_interpolates_between_texels(self):
        data = np.zeros((1, 2, 4), dtype=np.float32)
        data[0, 1] = 1.0
        tex = Texture(data, texture_id=1)
        # Halfway between the two texel centers.
        result = sample_bilinear(tex, np.array([[0.5, 0.5]]))
        assert result.colors[0, 0] == pytest.approx(0.5, abs=1e-6)

    def test_bad_uv_shape_rejected(self):
        tex = flat_texture((1, 1, 1, 1), texture_id=1)
        with pytest.raises(PipelineError):
            sample_nearest(tex, np.zeros((5, 3)))


class TestValidation:
    """Bad recipes fail where they are built, not in the first frame
    that samples them, and generate nothing."""

    @pytest.mark.parametrize("build", [
        lambda: flat_texture((1, 1, 1, 1), 1, size=0),
        lambda: checker_texture((1, 1, 1, 1), (0, 0, 0, 1), 1, size=0),
        lambda: gradient_texture((1, 1, 1, 1), (0, 0, 0, 1), 1, size=-4),
        lambda: noise_texture(1, size=0),
    ])
    def test_size_below_one(self, build, generated_textures):
        with pytest.raises(PipelineError, match="size"):
            build()
        assert generated_textures == []

    def test_cells_below_one(self, generated_textures):
        with pytest.raises(PipelineError, match="cells"):
            checker_texture((1, 1, 1, 1), (0, 0, 0, 1), 1, cells=0)
        assert generated_textures == []

    @pytest.mark.parametrize("build", [
        lambda: flat_texture((1, 1, 1), 1),
        lambda: checker_texture((1, 1, 1, 1), (0, 0, 0), 1),
        lambda: gradient_texture((1, 1, 1, 1, 1), (0, 0, 0, 1), 1),
        lambda: noise_texture(1, base_color=(0.5, 0.5, 0.5)),
    ])
    def test_color_without_four_components(self, build, generated_textures):
        with pytest.raises(PipelineError, match="4 components"):
            build()
        assert generated_textures == []

    @pytest.mark.parametrize("build", [
        lambda: flat_texture((1, 1, 1, 1), -1),
        lambda: Texture(np.zeros((4, 4, 4)), texture_id=-1),
    ])
    def test_negative_texture_id(self, build, generated_textures):
        with pytest.raises(PipelineError, match="texture_id"):
            build()
        assert generated_textures == []

    def test_empty_explicit_data(self, generated_textures):
        with pytest.raises(PipelineError, match="non-empty"):
            Texture(np.zeros((0, 4, 4)), texture_id=1)
        assert generated_textures == []

    def test_negative_noise_seed(self, generated_textures):
        with pytest.raises(PipelineError, match="seed"):
            noise_texture(1, seed=-1)
        assert generated_textures == []


# --- Recipe textures -----------------------------------------------------
# The constructors as they generated texels before textures were lazy:
# a recipe's data must equal them bit for bit.
def eager_flat(color, texture_id, size=8):
    return np.broadcast_to(
        np.asarray(color, dtype=np.float32), (size, size, 4)
    ).copy()


def eager_checker(color_a, color_b, texture_id, size=64, cells=8):
    ys, xs = np.mgrid[0:size, 0:size]
    mask = ((xs * cells // size) + (ys * cells // size)) % 2 == 0
    data = np.where(
        mask[..., None],
        np.asarray(color_a, dtype=np.float32),
        np.asarray(color_b, dtype=np.float32),
    )
    return data.astype(np.float32)


def eager_gradient(color_top, color_bottom, texture_id, size=64):
    t = np.linspace(0.0, 1.0, size, dtype=np.float32)[:, None, None]
    top = np.asarray(color_top, dtype=np.float32)
    bottom = np.asarray(color_bottom, dtype=np.float32)
    data = top * (1.0 - t) + bottom * t
    return np.broadcast_to(data, (size, size, 4)).copy()


def eager_noise(texture_id, size=64, seed=0, base_color=(0.5, 0.5, 0.5, 1.0),
                amplitude=0.5):
    rng = np.random.default_rng(seed)
    noise = rng.random((size, size, 1), dtype=np.float32) * amplitude
    base = np.asarray(base_color, dtype=np.float32)
    data = np.clip(base + noise - amplitude / 2.0, 0.0, 1.0)
    data[..., 3] = base[3]
    return data.astype(np.float32)


# Few values per argument, so that two draws often build equal recipes.
level = st.sampled_from([0.0, 0.25, 1.0])
color = st.tuples(level, level, level, st.sampled_from([0.5, 1.0]))
common = {"texture_id": st.integers(0, 2), "size": st.integers(1, 6)}

#: constructor -> (eager reference, a strategy per argument)
RECIPES = {
    flat_texture: (eager_flat, {"color": color, **common}),
    checker_texture: (eager_checker, {
        "color_a": color, "color_b": color, "cells": st.integers(1, 4),
        **common,
    }),
    gradient_texture: (eager_gradient, {
        "color_top": color, "color_bottom": color, **common,
    }),
    noise_texture: (eager_noise, {
        "seed": st.integers(0, 2), "base_color": color,
        "amplitude": st.sampled_from([0.0, 0.25, 0.5]), **common,
    }),
}


def texels(texture) -> tuple:
    """Everything sampling reads: addresses and exact texel bytes."""
    return (texture.texture_id, texture.data.shape, texture.data.tobytes())


@pytest.mark.parametrize("constructor", RECIPES, ids=lambda f: f.__name__)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_recipe_token_names_the_texels(constructor, data, generated_textures):
    eager, params = RECIPES[constructor]
    args = data.draw(st.fixed_dictionaries(params), label="args")
    name = data.draw(st.sampled_from(sorted(params)), label="changed")
    changed = {**args, name: data.draw(params[name], label="to")}
    a, b = constructor(**args), constructor(**changed)

    generated_textures.clear()
    same_token = a.content_token == b.content_token
    assert generated_textures == []               # tokens generate nothing
    assert a.data.tobytes() == eager(**args).tobytes()
    assert a.data.dtype == np.float32 and not a.data.flags.writeable
    if same_token:
        assert texels(a) == texels(b)
    if texels(a) != texels(b):
        assert not same_token
    assert generated_textures == [a, b]           # once each
