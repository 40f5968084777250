"""The persistent-worker substrate both process runners share.

Every case drives a real forked :class:`Worker` with a tiny handler and
waits on the pipe for what it expects, so none depends on timing beyond
the deadlines it checks explicitly.
"""

import os
import signal
import time
from multiprocessing.connection import wait

import pytest

from repro.harness.workers import EOF, Worker


def echo(conn, request_id, *args):
    return (os.getpid(),) + args


def behave(conn, request_id, how):
    """Raise, exit hard, hang, or report this worker's pid."""
    if how == "raise":
        raise ValueError("boom")
    if how == "exit":
        os._exit(7)
    if how == "hang":
        while True:
            time.sleep(3600)
    return (os.getpid(),)


def chatty(conn, request_id):
    """Send three non-reply messages before the reply."""
    conn.send(("progress", 1))
    conn.send(("telemetry", {"frames": 1}))
    conn.send(("progress", 2))
    return ("done",)


def slow_echo(conn, request_id, *args):
    time.sleep(0.05)
    return args


def collect(worker, count, on_message=None, timeout=30.0):
    """Drain until ``count`` replies (or EOF) have arrived."""
    replies = []
    give_up = time.monotonic() + timeout
    while len(replies) < count and EOF not in replies:
        remaining = give_up - time.monotonic()
        assert remaining > 0, f"only {replies} after {timeout}s"
        wait([worker.conn], timeout=remaining)
        replies.extend(worker.drain(on_message))
    return replies


@pytest.fixture()
def workers():
    """Workers a test spawns; any it leaves running are terminated."""
    spawned = []

    def spawn(handler, **kwargs):
        spawned.append(Worker(handler, **kwargs))
        return spawned[-1]

    yield spawn
    for worker in spawned:
        if worker.process.exitcode is None:
            worker.retire(terminate=True)


class TestRequests:
    def test_exception_replies_error_and_worker_keeps_serving(self, workers):
        worker = workers(behave)
        worker.send("a", "raise")
        assert collect(worker, 1) == [("error", "a", "ValueError: boom")]
        worker.send("b", "pid")
        assert collect(worker, 1) == [("ok", "b", worker.process.pid)]

    def test_hard_exit_ends_with_eof_and_exit_code(self, workers):
        worker = workers(behave)
        worker.send("a", "exit")
        assert collect(worker, 1) == [EOF]
        assert list(worker.inflight) == ["a"]      # never answered
        worker.retire()
        assert worker.process.exitcode == 7

    def test_requests_in_flight_answer_in_order(self, workers):
        timeout_s = 60.0
        worker = workers(slow_echo, timeout_s=timeout_s)
        worker.send("a", 1)
        armed = worker.deadline
        assert armed is not None
        worker.send("b", 2)
        worker.send("c", 3)
        # The worker cannot start on b or c yet: only a's deadline runs.
        assert worker.deadline == armed
        replies = []
        while len(replies) < 3:
            before = time.monotonic()
            wait([worker.conn], timeout=30.0)
            got = worker.drain()
            replies.extend(got)
            if got and not worker.idle:
                # Re-armed at a reply read by this drain.
                assert before + timeout_s <= worker.deadline
                assert worker.deadline <= time.monotonic() + timeout_s
        assert replies == [("ok", "a", 1), ("ok", "b", 2), ("ok", "c", 3)]
        assert worker.idle
        assert worker.deadline is None

    def test_other_messages_reach_the_callback_before_the_reply(
            self, workers):
        worker = workers(chatty)
        seen = []

        def on_message(message):
            seen.append((message, list(worker.inflight)))

        worker.send("a")
        assert collect(worker, 1, on_message) == [("ok", "a", "done")]
        assert seen == [
            (("progress", 1), ["a"]),
            (("telemetry", {"frames": 1}), ["a"]),
            (("progress", 2), ["a"]),
        ]


class TestDeadlines:
    def test_no_timeout_never_arms(self, workers):
        worker = workers(behave)
        worker.send("a", "pid")
        assert worker.deadline is None
        assert not worker.overdue()

    def test_hung_request_turns_overdue(self, workers):
        worker = workers(behave, timeout_s=0.2)
        worker.send("a", "hang")
        time.sleep(max(0.0, worker.deadline - time.monotonic()))
        assert worker.overdue()


class TestRetire:
    def test_idle_worker_ends_through_stop(self, workers):
        worker = workers(echo)
        worker.send("a")
        collect(worker, 1)
        worker.retire()
        assert worker.process.exitcode == 0

    def test_terminate_ends_a_hung_worker(self, workers):
        worker = workers(behave)
        worker.send("a", "hang")
        worker.retire(terminate=True)
        assert worker.process.exitcode == -signal.SIGTERM

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_spawn_and_retire_leak_no_fds(self):
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        def cycle():
            worker = Worker(echo)
            worker.send("a")
            assert collect(worker, 1)[0][0] == "ok"
            worker.retire()

        # A dropped Process releases its sentinel pipe as it is freed.
        cycle()
        before = open_fds()
        for _ in range(20):
            cycle()
        assert open_fds() == before
