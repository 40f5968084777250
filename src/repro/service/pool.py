"""Warm engine pool: constructed render engines, kept for reuse.

Constructing a :class:`~repro.engine.session.RenderSession` pays for
scene generation, the GPU stage graph, signature buffers and (via the
shared content-keyed raster and tile memos) shader warm-up.  For a
service answering many short requests that cost dominates, so the pool
keeps finished engines resident, keyed by everything that determines
their behaviour — ``(alias, technique, exact_signatures, config
digest)`` — and hands them back out after a
:meth:`~repro.engine.session.RenderSession.reset`.

Soundness rests on the engine-reuse contract
(``tests/engine/test_session_reuse.py``): a reset engine renders
bit-identically to a fresh one, so a warm hit changes latency and
nothing else.  An engine is returned to the pool only after its job
*succeeded* — a job that raised leaves its engine behind (state
unknown, never reused).

:func:`execute_job` is how the service executes a job: the daemon's
persistent workers call it.  It only
checks an engine out of the pool and back in; the run itself is
:func:`~repro.harness.runner.run_workload`, the body every other entry
point renders through too, so "service answers equal direct-run
answers" holds by construction.
"""

from __future__ import annotations

import collections
import dataclasses

from ..engine.session import RenderSession
from ..harness.runner import run_workload
from .jobs import JobSpec

__all__ = ["PoolStats", "WarmEnginePool", "execute_job"]


@dataclasses.dataclass
class PoolStats:
    """Lifetime counters of one pool (deterministic)."""

    requests: int = 0
    warm_hits: int = 0
    engines_built: int = 0
    engines_evicted: int = 0
    engines_discarded: int = 0      # failed jobs' engines, never reused

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


class WarmEnginePool:
    """LRU pool of constructed engines, bounded by ``max_engines``.

    Not thread-safe by design: each daemon worker process owns exactly
    one pool (engines hold the process's shared memos and cannot cross
    process boundaries anyway).
    """

    def __init__(self, max_engines: int = 4) -> None:
        if max_engines < 1:
            raise ValueError("max_engines must be >= 1")
        self.max_engines = max_engines
        self.stats = PoolStats()
        self._engines: collections.OrderedDict = collections.OrderedDict()

    @staticmethod
    def key(spec: JobSpec) -> tuple:
        """Everything that determines an engine's behaviour."""
        return (spec.alias, spec.technique, spec.exact_signatures,
                spec.digest())

    def __len__(self) -> int:
        return len(self._engines)

    def acquire(self, spec: JobSpec):
        """``(session, warm)`` for the spec: a reset resident engine on
        a hit, a freshly constructed one on a miss.  The engine is
        checked *out* — a crash mid-job cannot poison the pool."""
        self.stats.requests += 1
        key = self.key(spec)
        session = self._engines.pop(key, None)
        if session is not None:
            self.stats.warm_hits += 1
            session.reset(num_frames=spec.num_frames)
            return session, True
        self.stats.engines_built += 1
        session = RenderSession(
            spec.alias, technique=spec.technique, config=spec.config(),
            num_frames=spec.num_frames,
            exact_signatures=spec.exact_signatures,
        )
        return session, False

    def release(self, spec: JobSpec, session: RenderSession) -> None:
        """Return a *successfully used* engine; evicts LRU past bound."""
        key = self.key(spec)
        self._engines[key] = session
        self._engines.move_to_end(key)
        while len(self._engines) > self.max_engines:
            self._engines.popitem(last=False)
            self.stats.engines_evicted += 1

    def discard(self, spec: JobSpec = None) -> None:
        """Account an engine that will not be returned (job failed)."""
        self.stats.engines_discarded += 1

    def clear(self) -> None:
        self._engines.clear()


def execute_job(spec: JobSpec, pool: WarmEnginePool = None,
                trace_path=None, metrics_path=None, live=None,
                frame_hook=None, tracer=None):
    """Run one job spec; returns ``(RunResult, info)``.

    ``info`` is a small dict — currently ``{"warm": bool}`` — describing
    how the job was served.  With a ``pool`` the engine comes from (and,
    on success, returns to) it; without one
    :func:`~repro.harness.runner.run_workload` builds the engine and
    drops it.  Everything else — the per-cell reseed, observability,
    the frame loop — is ``run_workload``'s.

    ``frame_hook(frames_rendered)`` — when given — is invoked at every
    frame boundary (the daemon's workers use it for deterministic fault
    injection); rendering is bit-identical either way.

    ``tracer`` attaches a caller-provided tracer (the daemon's workers
    pass a :class:`~repro.obs.distributed.ShardTracer` so engine frame
    spans land in the job's distributed trace); spans the caller opened
    on it stay open on success, and every open span is closed if the
    job dies mid-frame.
    """
    session, warm = pool.acquire(spec) if pool is not None else (None, False)
    try:
        result = run_workload(
            spec.alias, spec.technique, config=spec.config(),
            num_frames=spec.num_frames,
            exact_signatures=spec.exact_signatures, session=session,
            trace_path=trace_path, metrics_path=metrics_path, live=live,
            tracer=tracer, checkpoint_stride=1 if frame_hook else 0,
            after_step=frame_hook,
        )
    except BaseException:
        if pool is not None:
            pool.discard(spec)
        raise
    if pool is not None:
        pool.release(spec, session)
    return result, {"warm": warm}
