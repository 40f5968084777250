"""Experiment functions produce well-formed, shape-consistent results.

These tests run at small scale (tiny screen, few frames, subset of
games) to stay fast; the full paper-scale shape assertions live in
``benchmarks/``.
"""

import pytest

from repro.config import GpuConfig
from repro.core import RenderingElimination
from repro.harness.experiments import (
    EXPERIMENTS,
    RunCache,
    fig01_power_motivation,
    fig02_equal_tiles,
    fig14a_execution_cycles,
    fig14b_energy,
    fig15a_tile_classes,
    fig15b_memory_traffic,
    fig16_memoization,
    fig17a_te_cycles,
    fig17b_te_energy,
    _tile_message_digests,
    hash_quality,
    re_overheads,
    table1_parameters,
)
from repro.hashing import crc32_table
from repro.pipeline import Gpu
from repro.workloads.games import FIGURE_ORDER, build_scene


@pytest.fixture(scope="module")
def cache():
    return RunCache(GpuConfig.small(), num_frames=8)


class TestExperimentPlumbing:
    def test_registry_covers_every_figure(self):
        expected = {"fig01", "fig02", "fig14a", "fig14b", "fig15a",
                    "fig15b", "fig16", "fig17a", "fig17b", "re_overheads"}
        assert set(EXPERIMENTS) == expected

    def test_run_cache_reuses_runs(self, cache):
        a = cache.run("ccs", "baseline")
        b = cache.run("ccs", "baseline")
        assert a is b

    def test_table1_lists_paper_parameters(self):
        result = table1_parameters()
        values = dict(result.rows)
        assert values["clock"] == "400 MHz"
        assert values["screen"] == "1196x768"
        assert values["tile size"] == "16x16"
        assert values["fragment processors"] == "4"


class TestFigureShapes:
    """Small-scale sanity: every experiment emits one row per game plus
    AVG, and the headline orderings hold even at reduced scale."""

    def test_fig02_rows_and_ranges(self, cache):
        result = fig02_equal_tiles(cache)
        rows = result.row_map()
        assert set(rows) == set(FIGURE_ORDER) | {"AVG"}
        for alias in FIGURE_ORDER:
            assert 0.0 <= rows[alias][1] <= 100.0
        assert rows["ccs"][1] > rows["mst"][1]

    def test_fig14a_speedups(self, cache):
        rows = fig14a_execution_cycles(cache).row_map()
        assert rows["cde"][5] > 1.5          # big speedup for cde
        assert rows["mst"][5] == pytest.approx(1.0, abs=0.02)

    def test_fig14b_savings(self, cache):
        rows = fig14b_energy(cache).row_map()
        # At this tiny scale (8 frames, 24 tiles) the 2-frame warm-up
        # alone costs ~25% of the run; the paper-scale assertion lives
        # in benchmarks/test_fig14b_energy.py.
        assert rows["cde"][5] > 0.4
        assert abs(rows["mst"][5]) < 0.02

    def test_fig15a_fractions_sum_to_100(self, cache):
        rows = fig15a_tile_classes(cache).row_map()
        for alias in FIGURE_ORDER:
            row = rows[alias]
            assert row[1] + row[2] + row[3] == pytest.approx(100.0, abs=0.01)
            assert row[4] == 0   # no false positives

    def test_fig15b_re_traffic_below_baseline(self, cache):
        rows = fig15b_memory_traffic(cache).row_map()
        assert rows["ccs"][4] < 0.7
        assert rows["mst"][4] == pytest.approx(1.0, abs=0.05)

    def test_fig16_re_beats_memo_on_static_games(self, cache):
        rows = fig16_memoization(cache).row_map()
        assert rows["cde"][1] < rows["cde"][2]

    def test_fig17_te_worse_than_re_on_static_games(self, cache):
        cycles = fig17a_te_cycles(cache).row_map()
        energy = fig17b_te_energy(cache).row_map()
        assert cycles["cde"][1] > cycles["cde"][2]
        assert energy["cde"][1] > energy["cde"][2]
        # TE never helps cycles (its model has no time benefit beyond
        # the suppressed flush drain).
        assert cycles["AVG"][1] > 0.9

    def test_fig01_desktop_cheapest(self, cache):
        rows = fig01_power_motivation(cache).row_map()
        games_power = [rows[a][1] for a in FIGURE_ORDER]
        assert rows["desktop"][1] < min(games_power)
        assert rows["antutu"][1] >= max(games_power) * 0.5

    def test_re_overheads_small(self, cache):
        rows = re_overheads(cache).row_map()
        assert rows["AVG"][1] < 5.0    # geometry stall %
        assert rows["AVG"][3] < 2.0    # energy overhead %


class TestHashQuality:
    def test_crc32_has_no_false_positives(self):
        result = hash_quality(GpuConfig.small(), num_frames=5,
                              aliases=("ccs", "mst"))
        rows = result.row_map()
        assert rows["crc32"][2] == 0
        assert rows["fnv1a"][2] == 0 or rows["fnv1a"][2] >= 0
        # xor_fold collides structurally (word cancellation).
        assert rows["xor_fold"][1] >= rows["crc32"][1]

    @pytest.mark.parametrize("alias", ["ccs", "mst", "hop", "tib"])
    def test_tile_messages_are_what_re_signs(self, alias):
        """The messages hash_quality hashes frame the tiles' inputs as
        the Signature Unit does: their CRCs are RE's signature banks."""
        config = GpuConfig.small()
        digests = _tile_message_digests(alias, config, 5,
                                        {"crc32": crc32_table})
        technique = RenderingElimination(config)
        gpu = Gpu(config, technique)
        for stream in build_scene(alias).frames(5):
            gpu.render_frame(stream)
        assert len(technique.frame_records) == 5
        for frame, record in enumerate(technique.frame_records):
            assert (digests["crc32"][frame].tolist()
                    == record.signatures.tolist())
