"""Render-as-a-service: a persistent engine daemon with warm caches.

Standing up a :class:`~repro.engine.session.RenderSession` is the
expensive part of a short render request — scene construction, the
stage graph, signature buffers and the shared raster and tile memos all
get rebuilt per process.  This package keeps those resident:

* :mod:`.jobs`   — :class:`JobSpec`, the JSON-able description of one
  render request (plus sweep/experiment expansion);
* :mod:`.pool`   — :class:`WarmEnginePool`, an LRU of constructed
  engines keyed by ``(game, technique, exact, config digest)``, and
  :func:`execute_job`, which runs a job on a pooled engine through
  :func:`~repro.harness.runner.run_workload`;
* :mod:`.daemon` — :class:`EngineDaemon`, admission control, request
  batching, and jobs run on the persistent fault-isolated workers of
  :mod:`repro.harness.workers`, each with its own warm pool;
* :mod:`.server` — the asyncio socket front-end (``repro serve``);
* :mod:`.client` — the synchronous client (``repro submit/status``).

What the warm pool buys is measured by the repo benchmark's ``service``
workload (``bench/run.py``), which reports warm and cold request p50.

The load-bearing invariant is the engine-reuse contract
(:meth:`RenderSession.reset`, pinned by
``tests/engine/test_session_reuse.py``): a run on a reused engine is
bit-identical to a run on a fresh one, so warm service answers equal
cold CLI answers down to per-tile CRCs.
"""

from .client import ServiceClient
from .daemon import EngineDaemon, ServiceConfig
from .jobs import DEFAULT_TENANT, JobSpec, expand_payload
from .pool import WarmEnginePool, execute_job
from .server import ServiceServer
from .telemetry import LogHistogram, TelemetryRecorder, merge_histograms

__all__ = [
    "DEFAULT_TENANT",
    "EngineDaemon",
    "JobSpec",
    "LogHistogram",
    "ServiceClient",
    "ServiceConfig",
    "ServiceServer",
    "TelemetryRecorder",
    "WarmEnginePool",
    "execute_job",
    "expand_payload",
    "merge_histograms",
]
