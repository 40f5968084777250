"""DRAM latency hiding scales with fragment-queue depth."""

import dataclasses

import pytest

from repro.config import GpuConfig, QueueConfig
from repro.memory.dram import Dram, latency_overlap


def config_with_queue(entries):
    return dataclasses.replace(
        GpuConfig.small(),
        fragment_queue=QueueConfig("fragment", entries, 233),
    )


class TestLatencyOverlap:
    @pytest.mark.parametrize("entries,expected", [
        (64, 0.9),    # Table I baseline: 90% hidden
        (16, 0.75),
        (4, 0.6),
    ])
    def test_documented_queue_depth_points(self, entries, expected):
        assert latency_overlap(config_with_queue(entries)) == pytest.approx(
            expected
        )

    def test_monotonic_in_queue_depth(self):
        overlaps = [
            latency_overlap(config_with_queue(n)) for n in (1, 4, 16, 64, 256)
        ]
        assert overlaps == sorted(overlaps)
        assert all(0.0 < o < 1.0 for o in overlaps)

    def test_dram_instance_uses_config_overlap(self):
        dram = Dram(config_with_queue(16))
        assert dram.latency_overlap == pytest.approx(0.75)

    def test_shallow_queue_stalls_more(self):
        deep = Dram(config_with_queue(64))
        shallow = Dram(config_with_queue(4))
        deep_stall = sum(deep.read(64, "texels") for _ in range(50))
        shallow_stall = sum(shallow.read(64, "texels") for _ in range(50))
        assert shallow_stall > deep_stall
