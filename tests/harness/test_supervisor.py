"""Fault-tolerant supervision: crash/error/hang recovery, retries,
journaling and the fault-injection spec.

The headline property: a run that is killed mid-flight, retried and
resumed from its checkpoint produces a :class:`RunResult` bit-identical
to an uninterrupted run — down to every per-frame per-tile CRC.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.config import GpuConfig
from repro.errors import SupervisionError
from repro.harness import supervisor
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
from repro.obs.live import LiveAggregator

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


def attempt_pids(run) -> dict:
    """``{cell label: [pid of each attempt]}`` from the journal."""
    pids: dict = {}
    for record in run.records:
        if record["event"] == "attempt_start":
            pids.setdefault(record["cell"], []).append(record["pid"])
    return pids


class TestPersistentWorkers:
    def test_one_worker_serves_every_attempt(self):
        # An attempt that raises fails alone; its worker keeps serving.
        cells = [Cell("ccs", "re", 2), Cell("cde", "re", 2),
                 Cell("mst", "re", 2)]
        run = supervise_cells(
            cells, config=CONFIG, policy=fast_policy(),
            fault_spec="cde/re:0:error",
        )
        assert all(o.succeeded for o in run.outcomes.values())
        pids = attempt_pids(run)
        assert len(pids["cde/re"]) == 2
        assert len({pid for each in pids.values() for pid in each}) == 1

    def test_a_game_stays_on_the_worker_that_rendered_it(
            self, tmp_path, monkeypatch):
        # Pace the workers so the dispatch rule alone decides: each
        # attempt finishes only once the other worker has started as
        # many attempts, so neither runs out of its own game early.
        starts = tmp_path / "starts"
        starts.mkdir()
        finished = []          # per worker process, after the fork
        real = supervisor.run_workload

        def paced(alias, technique, **kwargs):
            (starts / f"{alias}-{technique}").touch()
            result = real(alias, technique, **kwargs)
            finished.append(alias)
            give_up = time.monotonic() + 30.0
            while (len(os.listdir(starts)) < 2 * len(finished)
                   and time.monotonic() < give_up):
                time.sleep(0.01)
            return result

        monkeypatch.setattr(supervisor, "run_workload", paced)
        cells = [Cell("ccs", "baseline", 2), Cell("ccs", "re", 2),
                 Cell("cde", "baseline", 2), Cell("cde", "re", 2)]
        run = supervise_cells(
            cells, config=CONFIG, policy=fast_policy(max_retries=0),
            processes=2,
        )
        assert all(o.succeeded for o in run.outcomes.values())
        pids = attempt_pids(run)
        ccs = set(pids["ccs/baseline"] + pids["ccs/re"])
        cde = set(pids["cde/baseline"] + pids["cde/re"])
        assert len(ccs) == 1 and len(cde) == 1 and ccs != cde

    def test_crashed_worker_is_replaced(self, reference):
        cells = [Cell("ccs", "re", FRAMES), Cell("cde", "re", 2)]
        run = supervise_cells(
            cells, config=CONFIG, policy=fast_policy(), processes=2,
            fault_spec="ccs/re:4:crash",
        )
        assert all(o.succeeded for o in run.outcomes.values())
        assert_bit_identical(run.outcomes[cells[0]].result, reference)
        first, retry = attempt_pids(run)["ccs/re"]
        assert first != retry

    def test_unsupervised_jobs_raise_supervision_error(self):
        bad, good = Cell("nope", "re", 2), Cell("cde", "re", 2)
        with pytest.raises(SupervisionError) as excinfo:
            run_cells([bad, good], config=CONFIG, processes=2)
        supervised = excinfo.value.args[1]
        assert supervised.results().keys() == {good}
        assert "nope" in supervised.outcomes[bad].failure

    @staticmethod
    def count_waits(monkeypatch) -> list:
        """The timeouts of every wait the parent makes, as it makes them."""
        calls = []
        real = supervisor.wait

        def counting(conns, timeout=None):
            calls.append(timeout)
            return real(conns, timeout)

        monkeypatch.setattr(supervisor, "wait", counting)
        return calls

    def test_parent_sleeps_until_a_worker_has_news(self, monkeypatch):
        # While both workers are busy, queued cells (one of them backing
        # off) must not end the wait early: it returns about once per
        # worker message (two per attempt without a stride), never in a
        # loop.
        calls = self.count_waits(monkeypatch)
        cells = [Cell("ccs", "baseline", FRAMES), Cell("ccs", "re", FRAMES),
                 Cell("cde", "baseline", FRAMES), Cell("cde", "re", FRAMES)]
        run = supervise_cells(
            cells, config=CONFIG, processes=2,
            policy=fast_policy(checkpoint_stride=0, backoff_base_s=0.2,
                               backoff_max_s=0.2),
            fault_spec="ccs/baseline:0:error",
        )
        assert all(o.succeeded for o in run.outcomes.values())
        attempts = sum(o.attempts for o in run.outcomes.values())
        assert attempts == 5
        assert len(calls) <= 3 * attempts

    def test_live_ticks_end_the_wait_while_every_worker_hangs(self):
        # No worker speaks, yet the aggregator's stall check must run
        # at its own deadline, long before the timeout kill.
        agg = LiveAggregator(path=None, stall_after_s=0.2, interval_s=1.0)
        run = supervise_cells(
            [Cell("ccs", "re", FRAMES)], config=CONFIG,
            policy=fast_policy(timeout_s=2.0, max_retries=0),
            fault_spec="ccs/re:2:hang", live=agg,
        )
        flagged = next(e["ts"] for e in agg.events
                       if e["event"] == "stall_flagged")
        killed = next(r["ts"] for r in run.records
                      if r["event"] == "attempt_timeout")
        assert killed - flagged > 0.8


    def test_zero_interval_live_view_does_not_spin(self, monkeypatch):
        # A live view that emits on every tick still wakes the parent
        # only for worker news, the stall check and the timeout kill.
        calls = self.count_waits(monkeypatch)
        agg = LiveAggregator(path=None, stall_after_s=0.4, interval_s=0.0)
        cell = Cell("ccs", "re", FRAMES)
        run = supervise_cells(
            [cell], config=CONFIG,
            policy=fast_policy(timeout_s=1.5, max_retries=0),
            fault_spec="ccs/re:2:hang", live=agg,
        )
        assert not run.outcomes[cell].succeeded
        assert any(e["event"] == "stall_flagged" for e in agg.events)
        assert len(calls) <= 12


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
