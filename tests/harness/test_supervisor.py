"""Fault-tolerant supervision: crash/error/hang recovery, retries,
journaling and the fault-injection spec.

The headline property: a run that is killed mid-flight, retried and
resumed from its checkpoint produces a :class:`RunResult` bit-identical
to an uninterrupted run — down to every per-frame per-tile CRC.
"""

import json
import os

import numpy as np
import pytest

from repro.config import GpuConfig
from repro.errors import SupervisionError
from repro.harness.parallel import Cell, run_cells
from repro.harness.runner import run_workload
from repro.harness.supervisor import (
    CRASH_EXITCODE,
    FaultSpec,
    RunJournal,
    SupervisorPolicy,
    attempt_history,
    supervise_cells,
)

CONFIG = GpuConfig.small()
FRAMES = 6


def fast_policy(**overrides):
    defaults = dict(max_retries=2, checkpoint_stride=2, backoff_base_s=0.01,
                    backoff_max_s=0.05)
    defaults.update(overrides)
    return SupervisorPolicy(**defaults)


@pytest.fixture(scope="module")
def reference():
    """The uninterrupted run every recovery result must equal."""
    return run_workload("ccs", "re", CONFIG, num_frames=FRAMES)


def assert_bit_identical(result, reference):
    assert np.array_equal(result.tile_color_crcs, reference.tile_color_crcs)
    assert np.array_equal(result.tile_input_sigs, reference.tile_input_sigs)
    assert result.final_frame_crc == reference.final_frame_crc
    assert result.total_cycles == reference.total_cycles
    assert result.total_energy_nj == reference.total_energy_nj
    assert result.tiles_skipped == reference.tiles_skipped
    assert result.fragments_shaded == reference.fragments_shaded
    assert result.counters == reference.counters


class TestCrashRecovery:
    def test_kill_retry_resume_is_bit_identical(self, reference):
        cell = Cell("ccs", "re", FRAMES)
        run = supervise_cells(
            [cell], config=CONFIG, policy=fast_policy(),
            fault_spec="ccs/re:4:crash",
        )
        outcome = run.outcomes[cell]
        assert outcome.succeeded
        assert outcome.attempts == 2
        # Stride 2, fault at frame 4: the checkpoint for frame 4 was on
        # disk before the kill, so the retry resumed mid-run.
        assert outcome.resumed_from_frame == 4
        assert_bit_identical(outcome.result, reference)

    def test_journal_records_the_recovery(self):
        cell = Cell("ccs", "re", FRAMES)
        run = supervise_cells(
            [cell], config=CONFIG, policy=fast_policy(),
            fault_spec="ccs/re:4:crash",
        )
        events = [r["event"] for r in run.records]
        assert events == [
            "run_start", "attempt_start", "attempt_crash", "cell_retry",
            "attempt_start", "cell_done", "run_complete",
        ]
        starts = [r for r in run.records if r["event"] == "attempt_start"]
        assert [s["attempt"] for s in starts] == [1, 2]
        assert [s["resume_frame"] for s in starts] == [0, 4]
        crash = next(r for r in run.records if r["event"] == "attempt_crash")
        assert crash["exitcode"] == CRASH_EXITCODE

    def test_without_checkpoints_retry_restarts_from_zero(self, reference):
        cell = Cell("ccs", "re", FRAMES)
        run = supervise_cells(
            [cell], config=CONFIG, policy=fast_policy(checkpoint_stride=0),
            fault_spec="ccs/re:0:crash",
        )
        outcome = run.outcomes[cell]
        assert outcome.succeeded
        assert outcome.attempts == 2
        assert outcome.resumed_from_frame == 0
        assert_bit_identical(outcome.result, reference)


class TestErrorAndHang:
    def test_worker_exception_is_retried(self, reference):
        cell = Cell("ccs", "re", FRAMES)
        run = supervise_cells(
            [cell], config=CONFIG, policy=fast_policy(),
            fault_spec="ccs/re:2:error",
        )
        outcome = run.outcomes[cell]
        assert outcome.succeeded
        assert outcome.attempts == 2
        assert outcome.resumed_from_frame == 2
        assert_bit_identical(outcome.result, reference)
        error = next(r for r in run.records if r["event"] == "attempt_error")
        assert "InjectedFault" in error["error"]

    def test_hung_worker_trips_timeout_and_recovers(self, reference):
        cell = Cell("ccs", "re", FRAMES)
        run = supervise_cells(
            [cell], config=CONFIG,
            policy=fast_policy(timeout_s=1.5, max_retries=1),
            fault_spec="ccs/re:2:hang",
        )
        outcome = run.outcomes[cell]
        assert outcome.succeeded
        assert outcome.attempts == 2
        assert outcome.resumed_from_frame == 2
        assert_bit_identical(outcome.result, reference)
        timeout = next(
            r for r in run.records if r["event"] == "attempt_timeout"
        )
        assert timeout["timeout_s"] == 1.5


class TestRetryExhaustion:
    def test_persistent_failure_isolates_one_cell(self):
        bad = Cell("ccs", "re", FRAMES)
        good = Cell("cde", "re", FRAMES)
        run = supervise_cells(
            [bad, good], config=CONFIG, policy=fast_policy(max_retries=1),
            fault_spec="ccs/re:2:crash:99",    # fires on every attempt
        )
        assert not run.outcomes[bad].succeeded
        assert run.outcomes[bad].attempts == 2
        assert "crash" in run.outcomes[bad].failure
        assert run.outcomes[good].succeeded
        assert run.results().keys() == {good}
        assert run.failed.keys() == {bad}
        with pytest.raises(SupervisionError):
            run.raise_on_failure()

    def test_run_cells_raises_but_attaches_partial_results(self):
        bad = Cell("ccs", "re", FRAMES)
        good = Cell("cde", "re", FRAMES)
        with pytest.raises(SupervisionError) as excinfo:
            run_cells(
                [bad, good], config=CONFIG, policy=fast_policy(max_retries=0),
                fault_spec="ccs/re:2:crash:99",
            )
        supervised = excinfo.value.args[1]
        assert supervised.outcomes[good].succeeded
        assert not supervised.outcomes[bad].succeeded


class TestRunCellsDelegation:
    def test_policy_routes_through_supervisor(self, reference):
        cell = Cell("ccs", "re", FRAMES)
        results = run_cells([cell], config=CONFIG, policy=fast_policy())
        assert_bit_identical(results[cell], reference)

    def test_fault_spec_alone_activates_supervision(self, reference):
        cell = Cell("ccs", "re", FRAMES)
        results = run_cells(
            [cell], config=CONFIG, fault_spec="ccs/re:4:crash",
        )
        assert_bit_identical(results[cell], reference)


class TestJournalFile:
    def test_journal_written_as_valid_jsonl(self, artifact_dir):
        path = artifact_dir / "test_supervisor_journal.jsonl"
        cell = Cell("ccs", "re", FRAMES)
        run = supervise_cells(
            [cell], config=CONFIG, policy=fast_policy(),
            journal_path=str(path), fault_spec="ccs/re:4:crash",
        )
        on_disk = RunJournal.read(str(path))
        assert on_disk == json.loads(json.dumps(run.records))
        assert attempt_history(str(path)) == attempt_history(run.records)

    def test_env_var_supplies_fault_spec(self, monkeypatch, reference):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "ccs/re:4:crash")
        cell = Cell("ccs", "re", FRAMES)
        run = supervise_cells([cell], config=CONFIG, policy=fast_policy())
        outcome = run.outcomes[cell]
        assert outcome.attempts == 2
        assert_bit_identical(outcome.result, reference)

    def test_caller_workdir_keeps_failed_checkpoints(self, tmp_path):
        cell = Cell("ccs", "re", FRAMES)
        run = supervise_cells(
            [cell], config=CONFIG, policy=fast_policy(max_retries=0),
            fault_spec="ccs/re:2:crash:99", workdir=str(tmp_path),
        )
        assert not run.outcomes[cell].succeeded
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".ckpt")]
        assert leftovers, "failed cell's checkpoint should survive"
        # Re-running without the fault resumes from that checkpoint.
        rerun = supervise_cells(
            [cell], config=CONFIG, policy=fast_policy(),
            fault_spec=None, workdir=str(tmp_path),
        )
        outcome = rerun.outcomes[cell]
        assert outcome.succeeded
        assert outcome.resumed_from_frame == 2
        assert not [
            p for p in os.listdir(tmp_path) if p.endswith(".ckpt")
        ], "successful cell's checkpoint should be deleted"


class TestFaultSpec:
    def test_parse_roundtrip(self):
        spec = FaultSpec.parse("ccs/re:4:crash:3")
        assert spec == FaultSpec("ccs", "re", 4, "crash", 3)
        assert FaultSpec.parse(str(spec)) == spec

    def test_times_defaults_to_one(self):
        assert FaultSpec.parse("tib/te:0:hang").times == 1

    @pytest.mark.parametrize("bad", [
        "ccs:4:crash",           # no technique
        "ccs/re:4",              # no kind
        "ccs/re:4:explode",      # unknown kind
        "ccs/re:x:crash",        # non-integer frame
        "ccs/re:4:crash:0",      # times < 1
        "ccs/re:-1:crash",       # negative frame
        "ccs/re:1:crash:1:9",    # too many fields
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(SupervisionError):
            FaultSpec.parse(bad)

    def test_matching_is_exact(self):
        spec = FaultSpec.parse("ccs/re:4:crash")
        assert spec.matches(Cell("ccs", "re", FRAMES))
        assert not spec.matches(Cell("ccs", "baseline", FRAMES))
        assert not spec.matches(Cell("cde", "re", FRAMES))

    def test_wildcard_alias_matches_any_game(self):
        spec = FaultSpec.parse("*/re:1:hang")
        assert spec.matches(Cell("ccs", "re", FRAMES))
        assert spec.matches(Cell("cde", "re", FRAMES))
        assert not spec.matches(Cell("ccs", "baseline", FRAMES))

    def test_wildcard_technique_matches_any_technique(self):
        spec = FaultSpec.parse("ccs/*:1:crash")
        assert spec.matches(Cell("ccs", "re", FRAMES))
        assert spec.matches(Cell("ccs", "te", FRAMES))
        assert not spec.matches(Cell("cde", "re", FRAMES))

    def test_double_wildcard_matches_everything(self):
        spec = FaultSpec.parse("*/*:0:error")
        assert spec.matches(Cell("ccs", "re", FRAMES))
        assert spec.matches(Cell("tib", "baseline", FRAMES))
