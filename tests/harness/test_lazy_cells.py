"""``supervise_cells`` fed lazily: an iterator of cells is read one cell
at a time, only when a cell can start, and every terminal outcome
reaches the progress hook as ``"done"``."""

from repro.config import GpuConfig
from repro.harness.parallel import Cell
from repro.harness.supervisor import SupervisorPolicy, supervise_cells

CONFIG = GpuConfig.small()
CELLS = [Cell("ccs", "re", 2), Cell("cde", "re", 2), Cell("hop", "re", 2)]


def fast_policy(**overrides):
    defaults = dict(max_retries=1, backoff_base_s=0.01, backoff_max_s=0.05)
    defaults.update(overrides)
    return SupervisorPolicy(**defaults)


def logged_run(cells, log, **kwargs):
    """Run ``cells`` through a generator that logs each pull next to the
    hook's ``"done"`` events, in one sequence."""

    def source():
        for cell in cells:
            log.append(("pull", cell))
            yield cell
        log.append(("pull", None))

    def hook(cell, kind, payload):
        if kind == "done":
            log.append(("done", cell, payload))

    return supervise_cells(source(), config=CONFIG, progress_hook=hook,
                           **kwargs)


class TestLazyFeed:
    def test_pulls_only_while_the_worker_is_free(self):
        log = []
        run = logged_run(CELLS, log, policy=fast_policy())
        # One worker: every pull after the first waits for the previous
        # cell's terminal outcome, and the source is read to its end.
        assert [entry[:2] for entry in log] == [
            ("pull", CELLS[0]), ("done", CELLS[0]),
            ("pull", CELLS[1]), ("done", CELLS[1]),
            ("pull", CELLS[2]), ("done", CELLS[2]),
            ("pull", None),
        ]
        assert list(run.outcomes) == CELLS
        assert all(outcome.succeeded for outcome in run.outcomes.values())
        starts = [r for r in run.records if r["event"] == "attempt_start"]
        assert len({r["pid"] for r in starts}) == 1     # one worker
        assert run.records[0]["cells"] is None

    def test_in_flight_cells_never_exceed_the_workers(self):
        log = []
        run = logged_run(CELLS, log, policy=fast_policy(), processes=2)
        in_flight = 0
        for entry in log:
            if entry[0] == "pull" and entry[1] is not None:
                in_flight += 1
                assert in_flight <= 2
            elif entry[0] == "done":
                in_flight -= 1
        assert sorted(run.outcomes, key=CELLS.index) == CELLS

    def test_a_failed_cell_is_retried_before_the_next_pull(self):
        log = []
        run = logged_run(CELLS[:2], log, policy=fast_policy(),
                         fault_spec="ccs/re:0:error")
        assert [entry[:2] for entry in log] == [
            ("pull", CELLS[0]), ("done", CELLS[0]),
            ("pull", CELLS[1]), ("done", CELLS[1]),
            ("pull", None),
        ]
        first = run.outcomes[CELLS[0]]
        assert first.succeeded and first.attempts == 2
        events = [(r["event"], r.get("cell")) for r in run.records
                  if r["event"] in ("cell_retry", "attempt_start")]
        assert events == [
            ("attempt_start", "ccs/re"), ("cell_retry", "ccs/re"),
            ("attempt_start", "ccs/re"), ("attempt_start", "cde/re"),
        ]

    def test_every_outcome_reaches_the_hook_as_done(self):
        log = []
        run = logged_run(CELLS[:2], log, policy=fast_policy(max_retries=0),
                         fault_spec="cde/re:0:error")
        done = {entry[1]: entry[2] for entry in log if entry[0] == "done"}
        assert done == run.outcomes
        assert done[CELLS[0]].succeeded
        assert not done[CELLS[1]].succeeded
        assert "error after 1 attempts" in done[CELLS[1]].failure
