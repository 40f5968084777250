"""Docstring examples stay executable."""

import doctest

import pytest

import repro.hashing.crc32
import repro.hashing.incremental
import repro.obs.tracer

MODULES = [
    repro.hashing.crc32,
    repro.hashing.incremental,
    repro.obs.tracer,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module.__name__}: {results.failed} failures"
    assert results.attempted > 0, f"{module.__name__} has no doctests"
