"""Finished engines are freed by reference counting.

A render engine holds hundreds of megabytes of framebuffers and stage
state.  If it sat in a reference cycle, it would live until the cyclic
garbage collector's next full pass, and a service that evicts warm
engines would pile them up.  These tests run with that collector off:
an engine nobody references must be gone at once.
"""

import gc
import weakref

import pytest

from repro.config import GpuConfig
from repro.engine.factory import TECHNIQUES
from repro.harness.runner import run_workload
from repro.pipeline import gpu as gpu_module
from repro.service.jobs import JobSpec
from repro.service.pool import WarmEnginePool, execute_job


@pytest.fixture
def built_gpus(monkeypatch):
    """Weak references to every Gpu constructed during the test."""
    refs = []
    init = gpu_module.Gpu.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(gpu_module.Gpu, "__init__", tracking_init)
    return refs


@pytest.fixture
def cyclic_gc_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_finished_run_frees_its_gpu(technique, built_gpus, cyclic_gc_off):
    result = run_workload("ccs", technique, config=GpuConfig.small(),
                          num_frames=3)
    assert result.num_frames == 3
    assert len(built_gpus) == 1
    assert built_gpus[0]() is None


def test_engine_evicted_from_warm_pool_is_freed(built_gpus, cyclic_gc_off):
    pool = WarmEnginePool(max_engines=1)
    execute_job(JobSpec("ccs", "re", 3), pool=pool)
    evicted = built_gpus[0]
    assert evicted() is not None  # resident in the pool
    execute_job(JobSpec("cde", "re", 3), pool=pool)
    assert pool.stats.engines_evicted == 1
    assert evicted() is None
