"""Fixtures shared across test packages."""

import pytest

from repro.textures import Texture


@pytest.fixture
def generated_textures(monkeypatch):
    """Every recipe texture that generates its texels while the test
    runs, in order (one entry per generation)."""
    generated = []
    generate = Texture._generate

    def counting(texture):
        generated.append(texture)
        return generate(texture)

    monkeypatch.setattr(Texture, "_generate", counting)
    return generated
