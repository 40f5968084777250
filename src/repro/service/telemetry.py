"""Service metrics: mergeable histograms, per-tenant counters, events.

The daemon's quantitative self-description.  A
:class:`TelemetryRecorder` observes every job lifecycle transition the
:class:`~repro.service.daemon.EngineDaemon` makes — admission, refusal,
dispatch, retry, terminal — and keeps:

* **latency histograms** (queue wait, execution wall, end-to-end, batch
  size) with fixed log-spaced buckets, so snapshots taken on different
  daemons or at different times *merge* by adding bucket counts —
  quantiles (p50/p95/p99) come from the merged buckets, which a
  mean-of-means could never give;
* **warm/cold accounting**, both the daemon's own view and the
  aggregated :class:`~repro.service.pool.PoolStats` of every worker
  (retired workers keep contributing — totals are lifetime-exact);
* **per-tenant counters** (submitted / completed / refused / retried /
  crashed) that reconcile exactly with the jobs submitted;
* a bounded **event ring** (admitted / started / retried / done /
  failed / refused) with monotone sequence numbers, which the server's
  ``watch`` verb streams incrementally.

Snapshots flush periodically (and finally, on shutdown) as JSONL and
into the content-addressed run registry under kind
``service-telemetry``.
"""

from __future__ import annotations

import collections
import json
import threading
import time

from ..errors import ReproError

__all__ = [
    "LogHistogram",
    "TelemetryRecorder",
    "fleet_execute_histogram",
    "merge_histograms",
]

#: Snapshot schema version stamped on every flush.
TELEMETRY_SCHEMA = "repro-service-telemetry-v1"

#: Tenant counter keys, in render order.
TENANT_COUNTERS = ("submitted", "completed", "refused", "retried",
                   "crashed")

#: Most lifecycle events the ring buffer retains for ``watch``.
EVENT_RING = 512


class LogHistogram:
    """Fixed log-spaced-bucket histogram with mergeable counts.

    Bucket upper edges are ``lo * factor**i`` up to (at least) ``hi``,
    plus an overflow bucket; a value lands in the first bucket whose
    edge is >= the value.  Because the bucket scheme is fixed at
    construction, two histograms with the same scheme merge by adding
    counts — the basis for cross-daemon / cross-window aggregation.
    Quantiles are bucket upper edges clamped to the observed min/max,
    so they are deterministic and never invent values outside the data.
    """

    def __init__(self, lo: float, hi: float, factor: float = 2.0) -> None:
        if not (lo > 0 and hi > lo and factor > 1):
            raise ReproError(
                f"bad histogram scheme lo={lo} hi={hi} factor={factor}"
            )
        self.lo, self.hi, self.factor = float(lo), float(hi), float(factor)
        edges = []
        edge = self.lo
        while edge < self.hi:
            edges.append(edge)
            edge *= self.factor
        edges.append(edge)             # first edge >= hi
        self.edges = edges             # counts[i] <= edges[i]; +overflow
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def scheme(self) -> tuple:
        return (self.lo, self.hi, self.factor)

    def observe(self, value: float) -> None:
        value = float(value)
        for index, edge in enumerate(self.edges):
            if value <= edge:
                break
        else:
            index = len(self.edges)    # overflow
        self.counts[index] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def quantile(self, q: float) -> float:
        """The value at quantile ``q`` (bucket upper edge, clamped)."""
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        value = self.edges[-1]
        for index, bucket in enumerate(self.counts):
            seen += bucket
            if seen >= rank and bucket:
                value = (self.edges[index] if index < len(self.edges)
                         else self.max)
                break
        return max(self.min, min(value, self.max))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        if self.scheme() != other.scheme():
            raise ReproError(
                f"cannot merge histograms with schemes {self.scheme()} "
                f"and {other.scheme()}"
            )
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.count += other.count
        self.total += other.total
        for bound in ("min", "max"):
            mine, theirs = getattr(self, bound), getattr(other, bound)
            if theirs is not None:
                picker = min if bound == "min" else max
                setattr(self, bound,
                        theirs if mine is None else picker(mine, theirs))
        return self

    def to_dict(self) -> dict:
        return {
            "scheme": {"lo": self.lo, "hi": self.hi,
                       "factor": self.factor},
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "counts": list(self.counts),
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LogHistogram":
        scheme = data.get("scheme") or {}
        hist = cls(scheme.get("lo", 1e-4), scheme.get("hi", 60.0),
                   scheme.get("factor", 2.0))
        counts = data.get("counts") or []
        if len(counts) != len(hist.counts):
            raise ReproError(
                f"histogram counts length {len(counts)} does not match "
                f"scheme (expected {len(hist.counts)})"
            )
        hist.counts = [int(c) for c in counts]
        hist.count = int(data.get("count", sum(hist.counts)))
        hist.total = float(data.get("sum", 0.0))
        hist.min = data.get("min")
        hist.max = data.get("max")
        return hist


#: Bucket scheme every fleet worker uses for its per-point execute-wall
#: histogram.  Fixing the scheme here is what lets the coordinator (and
#: ``repro trend``) merge shards from any mix of workers/hosts.
FLEET_EXECUTE_SCHEME = (1e-3, 600.0, 2.0)


def fleet_execute_histogram() -> LogHistogram:
    """A fresh histogram on the shared fleet execute-wall scheme."""
    return LogHistogram(*FLEET_EXECUTE_SCHEME)


def merge_histograms(dicts) -> dict:
    """Merge serialized histograms (same scheme); returns ``to_dict``."""
    merged = None
    for data in dicts:
        hist = LogHistogram.from_dict(data)
        merged = hist if merged is None else merged.merge(hist)
    if merged is None:
        raise ReproError("no histograms to merge")
    return merged.to_dict()


class TelemetryRecorder:
    """Recording telemetry: histograms, tenant counters, event ring."""

    def __init__(self, clock=time.time) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self.started_at = clock()
        self.histograms = {
            "queue_wait_s": LogHistogram(1e-4, 60.0),
            "execute_s": LogHistogram(1e-3, 600.0),
            "e2e_s": LogHistogram(1e-3, 600.0),
            "batch_size": LogHistogram(1.0, 64.0),
        }
        self.warm_jobs = 0
        self.cold_jobs = 0
        self.tenants: dict = {}
        self._pools: dict = {}         # worker_id -> last PoolStats dict
        self._events: collections.deque = collections.deque(
            maxlen=EVENT_RING,
        )
        self._seq = 0
        # Gate periodic flushing from creation time, so the first
        # interval snapshot lands one interval after startup instead
        # of an empty one landing immediately.
        self._last_flush = time.monotonic()

    # Internals ----------------------------------------------------------
    def _tenant(self, tenant: str) -> dict:
        counters = self.tenants.get(tenant)
        if counters is None:
            counters = {key: 0 for key in TENANT_COUNTERS}
            self.tenants[tenant] = counters
        return counters

    def _push_event(self, event: str, job=None, **extra) -> None:
        self._seq += 1
        record = {"seq": self._seq, "ts": self._clock(), "event": event}
        if job is not None:
            record.update(
                job_id=job.job_id, tenant=job.spec.tenant,
                cell=job.spec.label,
            )
        record.update(extra)
        self._events.append(record)

    # Lifecycle observations ---------------------------------------------
    def job_admitted(self, job) -> None:
        """A job passed admission and entered the queue."""
        with self._lock:
            self._tenant(job.spec.tenant)["submitted"] += 1
            self._push_event("admitted", job)

    def job_withdrawn(self, job) -> None:
        """An admitted job was rolled back (atomic payload refusal)."""
        with self._lock:
            self._tenant(job.spec.tenant)["submitted"] -= 1
            self._push_event("withdrawn", job)

    def job_refused(self, tenant: str, kind: str) -> None:
        """Admission refused a spec (``backpressure`` / ``tenant``)."""
        with self._lock:
            self._tenant(tenant)["refused"] += 1
            self._push_event("refused", tenant=tenant, kind=kind)

    def job_dispatched(self, job, batch_size: int,
                       queue_wait_s: float) -> None:
        """A job left the queue for a worker."""
        with self._lock:
            self.histograms["queue_wait_s"].observe(max(queue_wait_s, 0.0))
            self.histograms["batch_size"].observe(batch_size)
            self._push_event("started", job, worker=job.worker,
                             batch=batch_size, attempt=job.attempts)

    def job_retried(self, job) -> None:
        """A failed attempt was requeued."""
        with self._lock:
            self._tenant(job.spec.tenant)["retried"] += 1
            self._push_event("retried", job, attempt=job.attempts)

    def job_finished(self, job, warm: bool) -> None:
        """A job reached ``done``."""
        with self._lock:
            if warm:
                self.warm_jobs += 1
            else:
                self.cold_jobs += 1
            if job.started_at and job.finished_at:
                self.histograms["execute_s"].observe(
                    max(job.finished_at - job.started_at, 0.0)
                )
            if job.finished_at:
                self.histograms["e2e_s"].observe(
                    max(job.finished_at - job.submitted_at, 0.0)
                )
            self._tenant(job.spec.tenant)["completed"] += 1
            self._push_event("done", job, warm=bool(warm),
                             run_id=job.run_id)

    def job_failed(self, job) -> None:
        """A job reached ``failed`` (retries exhausted)."""
        with self._lock:
            self._tenant(job.spec.tenant)["crashed"] += 1
            self._push_event("failed", job, error=job.error)

    def worker_pool(self, worker_id: int, stats: dict) -> None:
        """A worker reported its lifetime :class:`PoolStats`."""
        with self._lock:
            self._pools[int(worker_id)] = dict(stats)

    # Reading ------------------------------------------------------------
    def last_seq(self) -> int:
        with self._lock:
            return self._seq

    def events_since(self, seq: int) -> list:
        with self._lock:
            return [dict(event) for event in self._events
                    if event["seq"] > seq]

    def pool_totals(self) -> dict:
        """Summed lifetime pool counters across every worker ever."""
        totals = {"requests": 0, "warm_hits": 0, "engines_built": 0,
                  "engines_evicted": 0, "engines_discarded": 0}
        for stats in self._pools.values():
            for key in totals:
                totals[key] += int(stats.get(key, 0))
        return totals

    def snapshot(self) -> dict:
        with self._lock:
            warm = self.warm_jobs
            cold = self.cold_jobs
            served = warm + cold
            totals = self.pool_totals()
            requests = totals["requests"]
            return {
                "schema": TELEMETRY_SCHEMA,
                "started_at": self.started_at,
                "uptime_s": self._clock() - self.started_at,
                "histograms": {
                    name: hist.to_dict()
                    for name, hist in self.histograms.items()
                },
                "warm": {
                    "warm_jobs": warm,
                    "cold_jobs": cold,
                    "rate": warm / served if served else 0.0,
                },
                "pool": {
                    "totals": totals,
                    "warm_hit_rate": (totals["warm_hits"] / requests
                                      if requests else 0.0),
                    "workers": {
                        str(worker_id): dict(stats)
                        for worker_id, stats in sorted(self._pools.items())
                    },
                },
                "tenants": {
                    tenant: dict(counters)
                    for tenant, counters in sorted(self.tenants.items())
                },
                "last_seq": self._seq,
            }

    # Flushing -----------------------------------------------------------
    def flush(self, path=None, registry=None,
              reason: str = "interval") -> None:
        """Write one snapshot record (JSONL + registry, best-effort)."""
        self._last_flush = time.monotonic()
        snapshot = self.snapshot()
        record = {
            "kind": "service-telemetry",
            "ts": self._clock(),
            "reason": reason,
            "snapshot": snapshot,
        }
        if path is not None:
            try:
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
            except OSError:
                pass           # telemetry never takes the daemon down
        if registry is not None:
            try:
                registry.record({
                    "kind": "service-telemetry",
                    "schema": TELEMETRY_SCHEMA,
                    "reason": reason,
                    "created_at": record["ts"],
                    "snapshot": snapshot,
                })
            except (OSError, ReproError) as exc:
                note = getattr(registry, "note_write_error", None)
                if note is not None:
                    note(exc)

    def maybe_flush(self, path=None, registry=None,
                    interval_s: float = 30.0) -> None:
        """Flush if at least ``interval_s`` passed since the last one."""
        if self.seconds_until_flush(path, registry, interval_s) == 0.0:
            self.flush(path=path, registry=registry, reason="interval")

    def seconds_until_flush(self, path=None, registry=None,
                            interval_s: float = 30.0) -> float:
        """Seconds until :meth:`maybe_flush` next writes (``None`` when
        it never will: nowhere to write)."""
        if path is None and registry is None:
            return None
        return max(0.0, self._last_flush + interval_s - time.monotonic())
