"""The ``service`` workload's client side: a daemon and a closed loop.

:class:`Daemon` starts ``repro serve --workers 1 --max-engines 4`` on a
Unix socket inside the run directory and measures set-up as spawn to
the first answered ``ping``.  :func:`closed_loop` is one client on one
connection: it submits a request, waits for its result, and only then
sends the next after a short think time, so a slower service receives
less load.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

from repro.errors import ServiceError
from repro.service.client import ServiceClient

BENCH = os.path.dirname(os.path.abspath(__file__))

#: Longest a daemon may take to answer its first ping, or to exit.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0

#: Client think time between a result and the next submit.  Without it
#: the next submit races the scheduler back into its poll wait, and
#: which side wins varies from run to run: the share of requests that
#: skip the wait moved between 12% and 49%, and median latency by 20%.
THINK_S = 0.01


class Daemon:
    """One ``repro serve`` subprocess and a client connected to it.

    ``dump_path`` runs it through ``serve_traced.py`` instead, which
    installs the layer wrappers first.  The socket path is relative (the
    daemon runs in ``rundir``) so it stays within the Unix-socket length
    limit wherever the checkout lives.
    """

    def __init__(self, rundir: str, env: dict, workload,
                 dump_path: str = None) -> None:
        self.rundir = rundir
        if dump_path is None:
            head = [sys.executable, "-m", "repro"]
        else:
            head = [sys.executable, os.path.join(BENCH, "serve_traced.py"),
                    dump_path]
        command = head + [
            "serve", "--socket", "s.sock",
            "--workers", str(workload.workers),
            "--max-engines", str(workload.max_engines),
            "--registry", "registry",
        ]
        self.socket = os.path.relpath(os.path.join(rundir, "s.sock"))
        spawned = time.monotonic()
        self.process = subprocess.Popen(
            command, cwd=rundir, env=env, stdout=subprocess.DEVNULL)
        try:
            self.client = self._connect()
        except BaseException:
            self._reap()
            raise
        self.setup_s = time.monotonic() - spawned

    def _connect(self) -> ServiceClient:
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            if self.process.poll() is not None:
                raise ServiceError(
                    f"repro serve exited with {self.process.returncode}")
            try:
                client = ServiceClient(self.socket, timeout=START_TIMEOUT_S)
            except ServiceError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.002)
                continue
            try:
                client.ping()
            except ServiceError:
                client.close()
                raise
            return client

    def close(self) -> None:
        """Ask the daemon to shut down and wait until it has exited."""
        try:
            self.client.shutdown()
        except ServiceError:
            pass
        finally:
            self.client.close()
            self._reap()

    def _reap(self) -> None:
        """Wait for the daemon (killing it after ``STOP_TIMEOUT_S``) and
        keep its peak RSS, which covers the workers it reaped."""
        pid = self.process.pid
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while True:
            waited, status, usage = os.wait4(pid, os.WNOHANG)
            if waited:
                break
            if time.monotonic() > deadline:
                self.process.kill()
                _, status, usage = os.wait4(pid, 0)
                break
            time.sleep(0.01)
        self.process.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def closed_loop(client: ServiceClient, cells, frames: int,
                until: float, limit: int = None) -> list:
    """Request ``cells`` in order, ``THINK_S`` apart, until the monotonic
    time ``until`` (or ``limit`` requests); returns the jobs.

    Each job is the daemon's public projection plus ``latency_s``
    (submit through the return of ``wait``, as the client sees it) and
    ``received_at`` (wall clock, comparable with the daemon's stamps).
    A refused or lost request is recorded with ``state`` ``refused``.
    """
    jobs = []
    for game, technique in cells:
        if len(jobs) == limit or (limit is None and time.monotonic() >= until):
            break
        began = time.perf_counter()
        try:
            admitted = client.submit({
                "game": game, "technique": technique,
                "num_frames": frames, "scale": "small",
            })
            job = client.wait(admitted[0]["job_id"], timeout=START_TIMEOUT_S)
        except ServiceError as exc:
            jobs.append({"job_id": None, "game": game,
                         "technique": technique, "state": "refused",
                         "error": str(exc)})
            break
        job["latency_s"] = time.perf_counter() - began
        job["received_at"] = time.time()
        jobs.append(job)
        time.sleep(THINK_S)
    return jobs
