"""Run registry: content-addressed manifests and the queryable index."""

import os
import subprocess

import pytest

from repro.config import GpuConfig
from repro.errors import ReproError
from repro.harness.runner import run_workload
from repro.obs import store
from repro.obs.store import (
    RunRegistry,
    git_revision,
    run_manifest,
)

CONFIG = GpuConfig.small()
FRAMES = 4


@pytest.fixture(scope="module")
def runs():
    baseline = run_workload("cde", "baseline", CONFIG, num_frames=FRAMES)
    re_run = run_workload("cde", "re", CONFIG, num_frames=FRAMES)
    return baseline, re_run


@pytest.fixture
def registry(tmp_path):
    return RunRegistry(tmp_path / "registry")


class TestRunManifest:
    def test_summary_is_exact_projection(self, runs):
        baseline, _ = runs
        manifest = run_manifest(baseline, git_rev=None)
        summary = manifest["summary"]
        assert summary["total_cycles"] == baseline.total_cycles
        assert summary["geometry_cycles"] == baseline.geometry_cycles
        assert summary["raster_cycles"] == baseline.raster_cycles
        assert summary["total_energy_nj"] == baseline.total_energy_nj
        assert summary["fragments_shaded"] == baseline.fragments_shaded
        assert summary["tiles_skipped"] == baseline.tiles_skipped
        assert summary["skipped_fraction"] == baseline.skipped_fraction()
        assert summary["total_traffic_bytes"] == baseline.total_traffic_bytes
        assert summary["final_frame_crc"] == baseline.final_frame_crc
        for stream in ("colors", "texels"):
            assert summary["traffic"][stream] == \
                baseline.traffic_bytes(stream)

    def test_cycle_parts_sum_to_stage_totals(self, runs):
        baseline, _ = runs
        parts = run_manifest(baseline, git_rev=None)["summary"]["cycle_parts"]
        # Parts model overlapped-stage occupancy; every part still sums
        # exactly across frames, which is what the differ relies on.
        for side in ("geometry", "raster"):
            assert parts[side]
            for cycles in parts[side].values():
                assert cycles >= 0.0

    def test_counters_recorded(self, runs):
        _, re_run = runs
        counters = run_manifest(re_run, git_rev=None)["summary"]["counters"]
        assert counters["raster.tiles_skipped"] == re_run.tiles_skipped

    def test_identity_fields(self, runs):
        baseline, _ = runs
        manifest = run_manifest(baseline, kind="sweep-point", git_rev=None)
        assert manifest["kind"] == "sweep-point"
        assert manifest["alias"] == "cde"
        assert manifest["technique"] == "baseline"
        assert manifest["config_digest"] == CONFIG.digest()


class TestGitRevision:
    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_REV", "cafef00dbeef")
        assert git_revision() == "cafef00dbeef"

    def test_degrades_to_none_outside_a_checkout(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_GIT_REV", raising=False)
        assert git_revision(cwd=tmp_path) is None

    def test_dirty_tree_is_marked(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_GIT_REV", raising=False)

        def git(*args):
            return subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@example",
                 "-c", "commit.gpgsign=false", *args],
                cwd=tmp_path, check=True, capture_output=True, text=True,
            ).stdout.strip()

        git("init", "-q")
        (tmp_path / "scene.txt").write_text("one\n")
        git("add", "scene.txt")
        git("commit", "-q", "-m", "first")
        head = git("rev-parse", "--short=12", "HEAD")
        (tmp_path / "untracked.txt").write_text("not part of the tree\n")
        store._rev_parse.cache_clear()
        assert git_revision(cwd=tmp_path) == head
        (tmp_path / "scene.txt").write_text("two\n")
        store._rev_parse.cache_clear()
        assert git_revision(cwd=tmp_path) == head + "-dirty"

    def test_git_runs_once_per_process_and_directory(
            self, monkeypatch, tmp_path, registry, runs):
        monkeypatch.delenv("REPRO_GIT_REV", raising=False)
        # A directory no earlier call has resolved.
        monkeypatch.chdir(tmp_path)
        spawned = []
        real_run = subprocess.run

        def counting_run(*args, **kwargs):
            spawned.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        baseline, re_run = runs
        registry.record_run(baseline)
        registry.record_run(re_run)
        assert len(spawned) == 1
        # The override is still read first, on every call.
        monkeypatch.setenv("REPRO_GIT_REV", "cafef00dbeef")
        assert git_revision() == "cafef00dbeef"


class TestRecordAndResolve:
    def test_content_addressing_dedupes(self, registry, runs):
        baseline, _ = runs
        manifest = run_manifest(baseline, git_rev=None, created_at=123.0)
        run_id = registry.record(manifest)
        again = registry.record(manifest)
        assert run_id == again
        files = [
            name for name in os.listdir(registry.runs_dir)
            if name.endswith(".json") and not name.endswith(".crcs.json")
        ]
        assert files == [f"{run_id}.json"]
        # The index is an event log with two rows, but entries dedupe.
        assert len(registry.entries()) == 1

    def test_resolve_prefix_and_errors(self, registry, runs):
        baseline, re_run = runs
        id_a = registry.record_run(baseline)
        id_b = registry.record_run(re_run)
        assert registry.resolve(id_a[:8]) == id_a
        with pytest.raises(ReproError):
            registry.resolve("")            # ambiguous: matches both
        with pytest.raises(ReproError):
            registry.resolve("zzzzzz")      # no such run
        assert registry.manifest(id_b)["technique"] == "re"

    def test_crcs_round_trip(self, registry, runs):
        baseline, _ = runs
        run_id = registry.record_run(baseline)
        crcs = registry.crcs(run_id)
        assert len(crcs) == FRAMES
        assert crcs == [
            [int(v) for v in row] for row in baseline.tile_color_crcs
        ]

    def test_query_filters(self, registry, runs):
        baseline, re_run = runs
        registry.record_run(baseline)
        registry.record_run(re_run, kind="sweep-point",
                            extra={"parameters": {"tile_size": 8}})
        assert len(registry.query()) == 2
        assert [e.technique for e in registry.query(kind="sweep-point")] \
            == ["re"]
        assert registry.query(alias="nope") == []
        point = registry.query(kind="sweep-point")[0]
        assert point.summary["parameters"] == {"tile_size": 8}

    def test_index_survives_blank_lines(self, registry, runs):
        baseline, _ = runs
        registry.record_run(baseline)
        with open(registry.index_path, "a", encoding="utf-8") as handle:
            handle.write("\n")
        assert len(registry.entries()) == 1

    def test_corrupt_index_row_raises(self, registry, runs):
        baseline, _ = runs
        registry.record_run(baseline)
        with open(registry.index_path, "a", encoding="utf-8") as handle:
            handle.write("{not json\n")
        with pytest.raises(ReproError):
            registry.entries()


class TestWriteErrorLogging:
    """Failed registry writes warn once and leave a countable trail."""

    @pytest.fixture(autouse=True)
    def fresh_warned_paths(self):
        import repro.obs.store as store_mod
        saved = set(store_mod._WARNED_PATHS)
        store_mod._WARNED_PATHS.clear()
        yield
        store_mod._WARNED_PATHS.clear()
        store_mod._WARNED_PATHS.update(saved)

    def test_unwritable_root_raises_and_warns_once(self, tmp_path, capsys,
                                                   runs):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the registry dir should go")
        broken = RunRegistry(blocker / "registry")
        manifest = run_manifest(runs[0], git_rev=None, created_at=1.0)
        with pytest.raises(OSError):
            broken.record(manifest)
        with pytest.raises(OSError):
            broken.record(manifest)
        err = capsys.readouterr().err
        # Once per path, not once per failed write.
        assert err.count("warning: registry write") == 1
        assert str(broken.root) in err

    def test_note_write_error_sidecar_round_trip(self, registry):
        registry.note_write_error(OSError("disk full"))
        registry.note_write_error(OSError("quota exceeded"))
        errors = registry.write_errors()
        assert [e["error"] for e in errors] == ["disk full",
                                                "quota exceeded"]
        assert all(e["path"] == registry.root for e in errors)

    def test_write_errors_empty_without_failures(self, registry):
        assert registry.write_errors() == []

    def test_runs_command_surfaces_error_count(self, tmp_path, capsys):
        from repro.__main__ import main
        root = tmp_path / "registry"
        RunRegistry(root).note_write_error(OSError("boom"))
        capsys.readouterr()
        assert main(["--registry", str(root), "runs"]) == 0
        out = capsys.readouterr().out
        assert "registry_write_errors: 1" in out
        assert "boom" in out
