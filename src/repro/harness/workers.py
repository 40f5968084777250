"""Persistent worker processes: the one process-isolation substrate.

:func:`~repro.harness.supervisor.supervise_cells` and the service's
:class:`~repro.service.daemon.EngineDaemon` run work in other processes
only through :class:`Worker`.  A worker is a forked child that serves
request after request over a duplex pipe, so what it builds (host memos,
warm engines) outlives one request, and a request that crashes or hangs
loses only its worker.

The pipe protocol stays in this module.  The parent sends ``(request_id,
*args)``; the child calls ``handler(conn, request_id, *args)`` and
replies ``("ok", request_id, *outcome)`` with the tuple the handler
returned, or ``("error", request_id, "Type: message")`` when the handler
raised an :class:`Exception`, and then serves the next request.  Any
other :class:`BaseException` (an injected ``os._exit``, the parent's
terminate at a timeout) ends the child without a reply, and the parent's
:meth:`Worker.drain` ends with :data:`EOF`.  Messages the handler sends
on ``conn`` itself (progress, telemetry) reach the parent's callback
untouched.  ``("stop",)`` or EOF on the pipe ends the child, so a child
whose parent dies without retiring it exits too.
"""

from __future__ import annotations

import collections
import multiprocessing
import time

__all__ = ["EOF", "Worker"]

#: The last item :meth:`Worker.drain` returns when the worker has died.
EOF = ("eof",)

_STOP = ("stop",)


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:                       # pragma: no cover - non-POSIX
        return multiprocessing.get_context()


def _serve(conn, handler, parent_end) -> None:
    """The child loop described in the module docstring."""
    # The fork copied the parent's end of the pipe; while this process
    # holds it, the parent's death would never read as EOF here.
    parent_end.close()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if message == _STOP:
            return
        request_id = message[0]
        try:
            reply = ("ok", request_id) + tuple(handler(conn, *message))
        except Exception as exc:  # noqa: BLE001 - report, keep serving
            reply = ("error", request_id, f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except (OSError, ValueError):        # the parent is gone
            return


class Worker:
    """Parent-side handle of one persistent worker process, forked on
    construction.

    ``timeout_s`` bounds each request from when the worker can start on
    it: its :meth:`send` to an idle worker, or the reply to the request
    before it (``None`` = unlimited).
    """

    def __init__(self, handler, timeout_s: float = None) -> None:
        context = _mp_context()
        self.conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=_serve, args=(child_conn, handler, self.conn),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.timeout_s = timeout_s
        #: Ids of the requests sent and not yet answered, oldest first.
        self.inflight: collections.deque = collections.deque()
        #: ``time.monotonic()`` past which the oldest in-flight request
        #: is overdue; ``None`` while idle or without a timeout.
        self.deadline: float = None

    @property
    def idle(self) -> bool:
        return not self.inflight

    def _arm(self) -> None:
        self.deadline = (
            time.monotonic() + self.timeout_s
            if self.inflight and self.timeout_s is not None else None
        )

    def send(self, request_id, *args) -> None:
        """Queue one request; the worker answers requests in order."""
        self.conn.send((request_id,) + args)
        self.inflight.append(request_id)
        if len(self.inflight) == 1:
            self._arm()

    def drain(self, on_message=None) -> list:
        """Read everything the worker has sent so far, without blocking.

        Returns its replies in order, ending with :data:`EOF` if the
        worker has died; every other message goes to ``on_message`` as
        it is read."""
        replies = []
        while True:
            try:
                if not self.conn.poll():
                    return replies
                message = self.conn.recv()
            except (EOFError, OSError):
                replies.append(EOF)
                return replies
            if message[0] in ("ok", "error"):
                self.inflight.popleft()
                self._arm()
                replies.append(message)
            elif on_message is not None:
                on_message(message)

    def overdue(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline

    def retire(self, terminate: bool = False) -> None:
        """End the worker: ask it to stop, or with ``terminate`` end it
        at once; then close the pipe and reap the process."""
        if terminate:
            self.process.terminate()
        else:
            try:
                self.conn.send(_STOP)
            except (OSError, ValueError):    # already dead
                pass
        self.conn.close()
        self.process.join(timeout=5)
        if self.process.is_alive():          # pragma: no cover - safety net
            self.process.kill()
            self.process.join()
