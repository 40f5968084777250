"""Client side of the render service.

:class:`ServiceClient` is the synchronous socket client behind
``repro submit`` / ``repro status``: it speaks the newline-JSON
protocol of :mod:`repro.service.server` and rebuilds typed refusals
(``kind`` → :class:`~repro.errors.BackpressureError` /
:class:`~repro.errors.TenantError` / ...) so callers handle a remote
"queue full" exactly like a local one.
"""

from __future__ import annotations

import json
import socket

from ..errors import (
    AdmissionError,
    BackpressureError,
    ServiceError,
    TenantError,
)
__all__ = ["ServiceClient"]

#: Wire ``kind`` back to the exception the daemon raised.
_ERROR_KINDS = {
    "backpressure": BackpressureError,
    "tenant": TenantError,
    "admission": AdmissionError,
}


class ServiceClient:
    """One synchronous connection to a ``repro serve`` daemon."""

    def __init__(self, socket_path, timeout: float = 60.0) -> None:
        self.socket_path = socket_path
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        try:
            self._sock.connect(str(socket_path))
        except OSError as exc:
            self._sock.close()
            raise ServiceError(
                f"cannot reach service socket {socket_path}: {exc} "
                "(is `repro serve` running?)"
            ) from None
        self._file = self._sock.makefile("rwb")

    def request(self, op: str, **fields) -> dict:
        """One request/response round trip; raises typed refusals."""
        payload = {"op": op}
        payload.update(fields)
        try:
            self._file.write(json.dumps(payload).encode() + b"\n")
            self._file.flush()
            line = self._file.readline()
        except OSError as exc:
            raise ServiceError(
                f"service connection lost during {op!r}: {exc}"
            ) from None
        if not line:
            raise ServiceError(
                f"service closed the connection during {op!r}"
            )
        response = json.loads(line)
        if not response.get("ok"):
            error_cls = _ERROR_KINDS.get(
                response.get("kind"), ServiceError
            )
            raise error_cls(response.get("error", "service error"))
        return response

    # Ops ----------------------------------------------------------------
    def ping(self) -> dict:
        return self.request("ping")

    def submit(self, payload: dict, trace_dir=None) -> list:
        """Submit one payload; returns the admitted jobs' projections.

        With ``trace_dir`` the request is *traced*: a fresh
        :class:`~repro.obs.distributed.TraceContext` is minted, embedded
        in the payload's ``trace`` field (the daemon and its workers
        nest their spans under it), and the round trip itself is
        recorded as a ``submit`` span in a client-side shard —
        :func:`~repro.obs.distributed.merge_shards` later assembles the
        client / daemon / worker shards into one Chrome trace.
        """
        if trace_dir is None:
            return self.request("submit", job=payload)["jobs"]
        from ..obs.distributed import TraceShard, mint_trace

        context = mint_trace()
        payload = dict(payload)
        payload["trace"] = context.to_dict()
        shard = TraceShard(trace_dir, "client")
        shard.name_thread(0, "submit")
        shard.begin(
            "submit", tid=0, span_id=context.span_id,
            trace_id=context.trace_id,
            tenant=payload.get("tenant"),
            kind=payload.get("kind", "render"),
        )
        try:
            jobs = self.request("submit", job=payload)["jobs"]
            shard.end("submit", jobs=len(jobs))
            return jobs
        except ServiceError as exc:
            shard.instant("refused", tid=0, error=str(exc),
                          trace_id=context.trace_id)
            shard.end("submit", jobs=0)
            raise
        finally:
            shard.close()

    def wait(self, job_id: str, timeout: float = None) -> dict:
        return self.request("wait", job_id=job_id, timeout=timeout)["job"]

    def status(self) -> dict:
        return self.request("status")["status"]

    def stats(self) -> dict:
        """The daemon's telemetry snapshot (``repro stats`` renders
        it): queue depth, latency percentiles, warm-hit rates and
        per-tenant counters."""
        return self.request("stats")["stats"]

    def watch(self, interval: float = 1.0, since: int = None,
              stats: bool = True):
        """Stream the daemon live: yields ``{"kind": "event", ...}``
        job lifecycle events and ``{"kind": "stats", ...}`` frames.

        A generator over one long-lived connection (the socket's
        read timeout still applies between lines).  ``since`` replays
        buffered events newer than that sequence number; ``stats=False``
        yields events only.  The stream ends when the server stops;
        closing the client (or abandoning the generator) ends it
        client-side.
        """
        request = {"op": "watch", "interval": interval, "stats": stats}
        if since is not None:
            request["since"] = since
        try:
            self._file.write(json.dumps(request).encode() + b"\n")
            self._file.flush()
            ack = self._file.readline()
        except OSError as exc:
            raise ServiceError(
                f"service connection lost during 'watch': {exc}"
            ) from None
        if not ack:
            raise ServiceError("service closed the connection on watch")
        first = json.loads(ack)
        if not first.get("ok"):
            error_cls = _ERROR_KINDS.get(first.get("kind"), ServiceError)
            raise error_cls(first.get("error", "service error"))
        while True:
            try:
                line = self._file.readline()
            except OSError:
                return
            if not line:
                return
            response = json.loads(line)
            if not response.get("ok"):
                return
            yield response

    def shutdown(self) -> dict:
        return self.request("shutdown")

    # Lifecycle ----------------------------------------------------------
    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
