"""Texture objects and procedural texture constructors.

Workloads build their art from deterministic procedural textures (flat
colors, checkerboards, gradients, seeded noise) so runs are exactly
reproducible without asset files.  A procedural texture is a recipe: it
records its generator and the generator's arguments, generates its
texels the first time something reads :attr:`Texture.data`, and names
its content by the recipe.  A cell whose tiles all come from the
tile memo or are skipped therefore never generates or hashes a texel.
Each texture owns a ``texture_id`` that places it in a disjoint region
of the simulated address space, letting the texture caches distinguish
fetches from different textures.
"""

from __future__ import annotations

import hashlib
import numbers

import numpy as np

from ..errors import PipelineError

#: Address-space stride between textures: texel byte addresses are
#: ``texture_id * TEXTURE_ADDRESS_STRIDE + offset``.
TEXTURE_ADDRESS_STRIDE = 1 << 28

#: Bytes per texel (RGBA8 in memory; the simulator computes in float).
TEXEL_BYTES = 4


class Texture:
    """A 2D RGBA texture with float32 components in [0, 1].

    ``Texture(data, texture_id)`` holds explicit texels (trace replay,
    tests); the procedural constructors below build recipe textures.
    """

    def __init__(self, data, texture_id: int) -> None:
        data = np.asarray(data, dtype=np.float32)
        if data.ndim != 3 or data.shape[2] != 4 or data.size == 0:
            raise PipelineError(
                f"texture data must be non-empty (h, w, 4), got {data.shape}"
            )
        self._bind(texture_id, data.shape[1], data.shape[0], None, ())
        self._data = data

    def _bind(self, texture_id, width, height, generator, args) -> None:
        if texture_id < 0:
            raise PipelineError("texture_id must be non-negative")
        self.texture_id = texture_id
        self.width = width
        self.height = height
        self.generator = generator
        self.args = args
        self._content_token = None

    @property
    def data(self) -> np.ndarray:
        """The (height, width, 4) texels; a recipe texture generates
        them here on first read and keeps them read-only."""
        if self._data is None:
            self._data = self._generate()
        return self._data

    def _generate(self) -> np.ndarray:
        data = self.generator(self.width, *self.args)
        data.flags.writeable = False
        return data

    @property
    def base_address(self) -> int:
        return self.texture_id * TEXTURE_ADDRESS_STRIDE

    def texel_addresses(self, tx: np.ndarray, ty: np.ndarray) -> np.ndarray:
        """Byte addresses of the texels at integer coords (tx, ty)."""
        offsets = (ty.astype(np.int64) * self.width + tx.astype(np.int64))
        return self.base_address + offsets * TEXEL_BYTES

    @property
    def nbytes(self) -> int:
        return self.width * self.height * TEXEL_BYTES

    @property
    def content_token(self) -> tuple:
        """Content-stable identity: equal tokens mean equal sampling
        behaviour (same texel addresses and colors).

        A recipe texture's token holds its generator and arguments, with
        arrays as their float32 bytes, so building it generates nothing;
        an explicit texture's holds the SHA-1 of its texels.  Computed
        once: texels never change after construction.
        """
        if self._content_token is None:
            if self.generator is None:
                content = hashlib.sha1(
                    np.ascontiguousarray(self._data).tobytes()
                ).digest()
            else:
                content = (self.generator, *(
                    arg.tobytes() if isinstance(arg, np.ndarray) else arg
                    for arg in self.args
                ))
            self._content_token = (
                self.texture_id, self.width, self.height, content
            )
        return self._content_token


def _recipe(generator, texture_id: int, size: int, *args) -> Texture:
    """A ``size`` x ``size`` texture whose texels are
    ``generator(size, *args)``, generated on the first read of
    :attr:`Texture.data`.  ``args`` are the exact values the generator
    uses: ints, floats and float32 arrays."""
    size = _integer("size", size, 1)
    texture = Texture.__new__(Texture)
    texture._bind(texture_id, size, size, generator, args)
    texture._data = None
    return texture


def _integer(name: str, value, minimum: int) -> int:
    """``value`` as an int, refused unless it is an integer >= ``minimum``."""
    if not isinstance(value, numbers.Integral) or value < minimum:
        raise PipelineError(
            f"texture {name} must be an integer >= {minimum}, got {value!r}"
        )
    return int(value)


def _color(name: str, value) -> np.ndarray:
    """``value`` as a read-only float32 RGBA array."""
    color = np.array(value, dtype=np.float32)
    if color.shape != (4,):
        raise PipelineError(
            f"texture {name} must have 4 components, got {value!r}"
        )
    color.flags.writeable = False
    return color


def _flat(size: int, color: np.ndarray) -> np.ndarray:
    return np.broadcast_to(color, (size, size, 4)).copy()


def _checker(size: int, color_a: np.ndarray, color_b: np.ndarray,
             cells: int) -> np.ndarray:
    ys, xs = np.mgrid[0:size, 0:size]
    mask = ((xs * cells // size) + (ys * cells // size)) % 2 == 0
    return np.where(mask[..., None], color_a, color_b)


def _gradient(size: int, top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    t = np.linspace(0.0, 1.0, size, dtype=np.float32)[:, None, None]
    data = top * (1.0 - t) + bottom * t
    return np.broadcast_to(data, (size, size, 4)).copy()


def _noise(size: int, seed: int, base: np.ndarray,
           amplitude: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    noise = rng.random((size, size, 1), dtype=np.float32) * amplitude
    data = np.clip(base + noise - amplitude / 2.0, 0.0, 1.0)
    data[..., 3] = base[3]
    return data


def flat_texture(color, texture_id: int, size: int = 8) -> Texture:
    """A single flat color — the cheapest texture, and the one that makes
    camera pans invisible (the Fig. 15a equal-colors-different-inputs
    tiles)."""
    return _recipe(_flat, texture_id, size, _color("color", color))


def checker_texture(color_a, color_b, texture_id: int, size: int = 64,
                    cells: int = 8) -> Texture:
    """Checkerboard of two colors."""
    return _recipe(_checker, texture_id, size, _color("color_a", color_a),
                   _color("color_b", color_b), _integer("cells", cells, 1))


def gradient_texture(color_top, color_bottom, texture_id: int,
                     size: int = 64) -> Texture:
    """Vertical gradient between two colors."""
    return _recipe(_gradient, texture_id, size, _color("color_top", color_top),
                   _color("color_bottom", color_bottom))


def noise_texture(texture_id: int, size: int = 64, seed: int = 0,
                  base_color=(0.5, 0.5, 0.5, 1.0), amplitude: float = 0.5) -> Texture:
    """Seeded random noise around a base color (deterministic)."""
    return _recipe(_noise, texture_id, size, _integer("seed", seed, 0),
                   _color("base_color", base_color), float(amplitude))
