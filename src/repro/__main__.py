"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

* ``experiment <id>`` — regenerate one paper figure/table and print its
  text rendering (ids: fig01, fig02, fig14a, fig14b, fig15a, fig15b,
  fig16, fig17a, fig17b, re_overheads, hash_quality, table1).
* ``run <game>``     — run one benchmark under one technique, printing
  per-frame skip/cycle/energy summaries.
* ``sweep <game>``   — run one benchmark across a grid of GpuConfig
  values (``--set tile_size=8,16,32``) and tabulate a metric.
* ``report``         — regenerate every figure into a markdown report,
  or, given a metrics log (``report run.metrics.jsonl``), print the
  per-stage cycle shares, skip-rate curve and hottest tiles of that run.
* ``runs``           — list the run registry (every recorded run, sweep
  point, figure cell and golden, oldest first; filter with
  ``--kind``/``--game``).
* ``diff <A> <B>``   — compare two registered runs: per-stage cycle
  deltas, skip-rate and traffic deltas, counter diffs and per-tile CRC
  divergence.  A/B are run ids (or unique prefixes) from ``runs``.
* ``trend``          — the fleet dashboard: per-fleet rollups over every
  fleet-stamped sweep point, plus a cycles trajectory across re-runs of
  the same point set.
* ``list``           — list the available games and experiments.
* ``serve``          — run the warm engine-pool daemon behind a Unix
  socket: persistent workers keep constructed engines resident, batch
  config-compatible jobs, refuse overload with typed backpressure and
  record each job under its tenant's registry namespace.
  ``--trace-dir`` shards every job's lifecycle spans for distributed
  tracing; ``--stats-log`` snapshots the telemetry periodically.
* ``submit``         — send a render/sweep/experiment job to a running
  daemon (``--wait`` blocks for the summaries); ``--trace-dir`` mints
  a trace context carried through daemon and workers.
* ``status``         — a daemon's queue/worker/job table over the
  socket, or — daemon gone — its last ``live.json`` heartbeat.
* ``stats``          — one-shot service telemetry: queue depth, latency
  percentiles (queue wait / execute / end-to-end), warm-hit rates and
  per-tenant counters (``--json`` for the raw snapshot).
* ``top``            — the same table, live: streams the daemon's
  ``watch`` feed and redraws every ``--interval`` seconds
  (``--events`` prints job lifecycle events instead).
* ``trace``          — merge a ``--trace-dir``'s per-process shards
  into one Perfetto-loadable Chrome trace and validate it.
* ``workloads``      — the declarative workload DSL: ``list`` the
  discovered scene files, ``validate`` documents (line-precise typed
  errors), ``add`` a file to ``./workloads``, ``show`` a canonical
  defaults-filled document.  ``run``'s ``--workload-file`` runs a scene
  file directly; ``--native`` applies its native defaults.
* ``goldens``        — ``record``/``check`` the registry-pinned golden
  conformance baselines (per-tile CRC matrices, RE skip counts, registry
  counters and total cycles/energy/traffic) under ``results/goldens``;
  ``check`` exits non-zero on any output or model drift.
* ``fleet``          — distributed sweeps over a shared registry
  directory: ``launch`` expands a grid into a fleet spec and spawns N
  worker processes that idempotently claim points (atomic lease
  records, heartbeats, crash-safe requeue); ``work`` runs one worker
  (how another host joins); ``status``/``watch`` merge heartbeats and
  claims into a live claim map with stall detection.  ``trend`` and
  ``diff --fleet`` read the recorded fleets back.

Every entry point that renders — ``run``, ``sweep``, ``experiment``,
supervised attempts and the daemon's workers — executes a cell through
:func:`repro.harness.runner.run_workload`, so their outputs agree by
construction, down to per-tile CRCs.

Cross-run registry: ``run`` and ``sweep`` record a manifest of every
completed run (what ran, git revision, headline numbers, artifact
paths) into a content-addressed registry — ``results/registry/`` by
default, overridable with ``--registry DIR`` or ``REPRO_REGISTRY``;
``--no-registry`` opts out.  ``runs``/``diff``/``trend`` read it back.

Observability flags (``run`` and ``sweep``; see :mod:`repro.obs`):
``--trace out.json`` records a Chrome trace-event timeline (load it in
Perfetto or ``chrome://tracing``), ``--metrics out.jsonl`` samples every
counter at each frame boundary into a per-frame metrics log that
``report`` analyses offline.

Global flags: ``--jobs N`` fans independent (workload, technique) cells
across N worker processes (see :mod:`repro.harness.parallel`);
``--profile`` prints ``run``'s host seconds and calls per span name,
folded from the tracer's span stream (:func:`repro.obs.span_totals`).
The repo benchmark (``bench/run.py``) is the performance gate.

Supervision flags (any of them routes the run through the
fault-tolerant orchestrator in :mod:`repro.harness.supervisor`):
``--timeout`` / ``--retries`` / ``--checkpoint-stride`` set the policy,
``--journal`` appends every attempt/retry/timeout/recovery to a JSONL
run journal, and ``--inject-fault alias/technique:frame:kind[:times]``
(or the ``REPRO_FAULT_SPEC`` environment variable) deterministically
injects a crash/error/hang so the recovery paths can be exercised.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import GpuConfig
from .harness.experiments import (
    EXPERIMENT_TECHNIQUES,
    EXPERIMENTS,
    RunCache,
    hash_quality,
    table1_parameters,
)
from .harness.runner import TECHNIQUES, run_workload
from .workloads.games import (
    BENCHMARKS,
    PSEUDO_WORKLOADS,
    all_workload_aliases,
    unknown_workload_message,
)


def _config_from(args) -> GpuConfig:
    presets = {
        "small": GpuConfig.small,
        "benchmark": GpuConfig.benchmark,
        "mali450": GpuConfig.mali450,
    }
    config = presets[args.scale]()
    overrides = getattr(args, "native_overrides", None)
    if overrides:
        import dataclasses

        config = dataclasses.replace(config, **overrides)
    return config


def _supervision_requested(args) -> bool:
    return bool(
        args.timeout or args.retries is not None or args.journal
        or args.inject_fault or args.checkpoint_stride
    )


def _policy_from(args):
    from .harness.supervisor import SupervisorPolicy

    return SupervisorPolicy(
        timeout_s=args.timeout,
        max_retries=args.retries if args.retries is not None else 2,
        checkpoint_stride=args.checkpoint_stride or 0,
    )


def _registry_root(args) -> str:
    from .obs.store import REGISTRY_ENV_VAR

    return (args.registry or os.environ.get(REGISTRY_ENV_VAR)
            or os.path.join("results", "registry"))


def _registry_from(args):
    """The registry this invocation records into, or ``None`` (opt-out).

    With ``--tenant`` the run lands in that tenant's namespace
    (``<root>/<tenant>/``), the same layout the service daemon records
    under — so CLI runs and service jobs of one tenant share a history.
    """
    if args.no_registry:
        return None
    from .obs.store import RunRegistry

    registry = RunRegistry(_registry_root(args))
    tenant = getattr(args, "tenant", None)
    if tenant:
        registry = registry.for_tenant(tenant)
    return registry


def _reader_registry(args):
    """The registry a read-only subcommand (runs/diff/trend) queries."""
    from .obs.store import RunRegistry

    return RunRegistry(_registry_root(args))


def _live_from(args):
    """A :class:`LiveAggregator` when ``--live`` was given, else ``None``."""
    if not getattr(args, "live", None):
        return None
    from .obs.live import LiveAggregator

    # Flag stalls well inside the supervisor's timeout, so a wedged
    # worker is visible in the status table before the kill fires.
    stall_after_s = 5.0
    if args.timeout:
        stall_after_s = min(stall_after_s, args.timeout / 2.0)
    return LiveAggregator(path=args.live, stream=sys.stderr,
                          stall_after_s=stall_after_s)


def _run_artifacts(args) -> dict:
    return {
        "trace": args.trace,
        "metrics": args.metrics,
        "manifest": getattr(args, "manifest", None),
        "journal": args.journal,
        "live": getattr(args, "live", None),
    }


def _record_run(registry, result, kind: str, args, extra: dict = None):
    """Best-effort registry append; a broken registry never fails a run."""
    if registry is None:
        return None
    from .errors import ReproError

    try:
        return registry.record_run(
            result, kind=kind, artifacts=_run_artifacts(args), extra=extra,
        )
    except (OSError, ReproError) as exc:
        if isinstance(exc, ReproError):
            # OSError is already routed through note_write_error inside
            # RunRegistry.record; manifest-shape failures land here.
            registry.note_write_error(exc)
        print(f"  (registry append failed: {exc})", file=sys.stderr)
        return None


def _cmd_list(_args) -> int:
    print("games (Table II):")
    for info in BENCHMARKS:
        print(f"  {info.alias:4s} {info.name} ({info.genre}, {info.type})")
    print("pseudo-workloads:", ", ".join(PSEUDO_WORKLOADS))
    from .workloads.dsl import registry as dsl_registry

    dsl = dsl_registry.discover()
    if dsl:
        print("DSL workloads (see `python -m repro workloads list`):",
              ", ".join(sorted(dsl)))
    print("experiments:", ", ".join(sorted(EXPERIMENTS)),
          "+ hash_quality, table1")
    print("techniques:", ", ".join(TECHNIQUES))
    return 0


def _cmd_experiment(args) -> int:
    if args.id == "table1":
        print(table1_parameters().table())
        return 0
    if args.id == "hash_quality":
        result = hash_quality(
            _config_from(args), num_frames=min(args.frames, 12),
            aliases=("ccs", "ctr", "mst", "tib"),
        )
        print(result.title + "\n" + result.table())
        return 0
    if args.id not in EXPERIMENTS:
        print(f"unknown experiment {args.id!r}; see `python -m repro list`",
              file=sys.stderr)
        return 2
    cache = RunCache(_config_from(args), num_frames=args.frames)
    if args.jobs > 1 or _supervision_requested(args):
        from .errors import SupervisionError

        supervised = _supervision_requested(args)
        try:
            cache.prefetch(
                EXPERIMENT_TECHNIQUES.get(args.id, ("baseline", "re")),
                processes=args.jobs,
                policy=_policy_from(args) if supervised else None,
                journal_path=args.journal,
                fault_spec=args.inject_fault,
            )
        except SupervisionError as exc:
            print(f"supervised prefetch failed: {exc.args[0]}",
                  file=sys.stderr)
            return 1
    result = EXPERIMENTS[args.id](cache)
    print(result.title + "\n" + result.table())
    if result.notes:
        print("\n" + result.notes)
    return 0


def _print_run_summary(run) -> None:
    print(f"{run.alias} under {run.technique}: {run.num_frames} frames at "
          f"{run.config.screen_width}x{run.config.screen_height}")
    print(f"  cycles:          {run.total_cycles / 1e6:10.2f} M "
          f"(geometry {run.geometry_cycles / 1e6:.2f} M / "
          f"raster {run.raster_cycles / 1e6:.2f} M)")
    print(f"  energy:          {run.total_energy_nj / 1e6:10.2f} mJ "
          f"(GPU {run.gpu_energy_nj / 1e6:.2f} / "
          f"memory {run.dram_energy_nj / 1e6:.2f})")
    print(f"  fragments shaded:{run.fragments_shaded:11d}")
    print(f"  tiles skipped:   {run.tiles_skipped:11d} "
          f"({100 * run.skipped_fraction():.1f}% after warm-up)")
    print(f"  DRAM traffic:    {run.total_traffic_bytes / 1024:10.1f} KB "
          f"(colors {run.traffic_bytes('colors') / 1024:.0f} / "
          f"texels {run.traffic_bytes('texels') / 1024:.0f} / "
          f"primitives {run.traffic_bytes('primitives') / 1024:.0f})")


def _cmd_run_supervised(args) -> int:
    """`run` routed through the fault-tolerant supervisor: one cell,
    retried / resumed per the policy built from the supervision flags."""
    from .harness.parallel import Cell
    from .harness.supervisor import supervise_cells

    cell = Cell(args.game, args.technique, args.frames)
    supervised = supervise_cells(
        [cell], config=_config_from(args), policy=_policy_from(args),
        journal_path=args.journal, fault_spec=args.inject_fault,
        trace_path=args.trace, metrics_path=args.metrics,
        live=_live_from(args),
    )
    outcome = supervised.outcomes[cell]
    if not outcome.succeeded:
        print(f"run failed after {outcome.attempts} attempt(s): "
              f"{outcome.failure}", file=sys.stderr)
        if args.journal:
            print(f"journal written to {args.journal}", file=sys.stderr)
        return 1
    if outcome.attempts > 1:
        print(f"recovered after {outcome.attempts} attempts "
              f"(resumed from frame {outcome.resumed_from_frame})")
    _print_run_summary(outcome.result)
    _print_observability_paths(args)
    run_id = _record_run(_registry_from(args), outcome.result, "run", args)
    if run_id:
        print(f"  registered as {run_id} (compare with "
              f"`python -m repro diff`)")
    return 0


def _print_observability_paths(args) -> None:
    if args.trace:
        print(f"  wrote trace to {args.trace} "
              f"(load in Perfetto / chrome://tracing)")
    if args.metrics:
        print(f"  wrote per-frame metrics to {args.metrics} "
              f"(analyse with `python -m repro report {args.metrics}`)")


def _resolve_run_workload(args) -> int:
    """Resolve ``--workload-file``/``--native`` and validate the alias.

    Runs before any rendering path (plain or supervised), so a
    typo'd alias fails at parse time with a did-you-mean instead of
    deep inside a worker.  Returns 0, or the exit code to fail with.
    """
    from .errors import WorkloadError

    if getattr(args, "workload_file", None):
        from .workloads.dsl import load_path
        from .workloads.dsl import registry as dsl_registry

        try:
            document = load_path(args.workload_file)
            stem = os.path.splitext(
                os.path.basename(args.workload_file))[0]
            if stem != document.name:
                print(
                    f"run failed: workload file {args.workload_file!r} "
                    f"declares name {document.name!r}; rename the file "
                    f"to {document.name}{os.path.splitext(args.workload_file)[1]} "
                    f"so discovery and the document agree",
                    file=sys.stderr,
                )
                return 2
            dsl_registry.register_search_dir(
                os.path.dirname(os.path.abspath(args.workload_file)))
        except WorkloadError as exc:
            print(f"run failed: {exc.args[0]}", file=sys.stderr)
            return 2
        if args.game and args.game != document.name:
            print(
                f"run failed: both a game alias ({args.game!r}) and "
                f"--workload-file (name {document.name!r}) were given "
                "and they disagree; drop one",
                file=sys.stderr,
            )
            return 2
        args.game = document.name
    if not args.game:
        print("run failed: give a game alias or --workload-file SCENE",
              file=sys.stderr)
        return 2
    if args.game not in all_workload_aliases():
        print(f"run failed: {unknown_workload_message(args.game)}",
              file=sys.stderr)
        return 2
    if getattr(args, "native", False):
        from .workloads.dsl import registry as dsl_registry

        if not dsl_registry.is_dsl_alias(args.game):
            print(
                f"run failed: --native reads a DSL document's defaults; "
                f"{args.game!r} is a builtin workload without one",
                file=sys.stderr,
            )
            return 2
        defaults = dsl_registry.load_dsl_workload(args.game).defaults
        overrides = {}
        if "screen" in defaults:
            overrides["screen_width"] = defaults["screen"][0]
            overrides["screen_height"] = defaults["screen"][1]
        if "tile_size" in defaults:
            overrides["tile_size"] = defaults["tile_size"]
        args.native_overrides = overrides
        if defaults.get("frames"):
            args.frames = defaults["frames"]
    return 0


def _validate_run(args) -> int:
    """Refuse ``run`` inputs that would fail mid-run, before any frame
    renders.  Returns 0, or the exit code to fail with."""
    from .errors import TenantError
    from .obs.store import validate_tenant

    problem = None
    if args.frames < 1:
        problem = f"--frames must be at least 1, got {args.frames}"
    elif args.resume and _supervision_requested(args):
        problem = ("--resume continues a checkpoint in this process, but "
                   "--timeout/--retries/--journal/--inject-fault/"
                   "--checkpoint-stride render the cell in a child "
                   "process; drop one")
    elif args.profile and _supervision_requested(args):
        problem = ("--profile reads this process's spans, but --timeout/"
                   "--retries/--journal/--inject-fault/--checkpoint-stride "
                   "render the cell in a child process; drop one")
    elif args.checkpoint_at is not None and not args.checkpoint_out:
        problem = "--checkpoint-at needs --checkpoint-out PATH"
    elif args.tenant:
        try:
            validate_tenant(args.tenant)
        except TenantError as exc:
            problem = exc.args[0]
    if problem is None:
        return 0
    print(f"run failed: {problem}", file=sys.stderr)
    return 2


def _resumed_session(args):
    """The session ``--resume`` continues under this invocation's config,
    or ``None`` after printing why the checkpoint cannot be resumed."""
    from .engine.session import RenderSession
    from .errors import CheckpointError, ConfigError

    try:
        return RenderSession.from_checkpoint(
            args.resume, config=_config_from(args))
    except OSError as exc:
        problem = (f"cannot read checkpoint {args.resume!r}: "
                   f"{exc.strerror or exc}")
    except (ValueError, CheckpointError, ConfigError) as exc:
        problem = f"cannot resume from checkpoint {args.resume!r}: {exc}"
    print(f"run failed: {problem}", file=sys.stderr)
    return None


def _cmd_run(args) -> int:
    failed = _resolve_run_workload(args) or _validate_run(args)
    if failed:
        return failed
    if _supervision_requested(args):
        return _cmd_run_supervised(args)
    session = None
    if args.resume:
        session = _resumed_session(args)
        if session is None:
            return 2
    tracer = None
    if args.profile:
        from .obs import TraceRecorder

        tracer = TraceRecorder()
    live = _live_from(args)
    live_sink = None
    if live is not None:
        from .obs.live import ChannelLiveSink

        live_sink = ChannelLiveSink(live, f"{args.game}/{args.technique}")
    try:
        run = run_workload(
            args.game, args.technique, _config_from(args),
            num_frames=args.frames,
            session=session,
            checkpoint_at=args.checkpoint_at,
            checkpoint_path=args.checkpoint_out,
            manifest_path=args.manifest,
            trace_path=args.trace,
            metrics_path=args.metrics,
            live=live_sink,
            tracer=tracer,
        )
    finally:
        if live is not None:
            live.close()
    if args.resume:
        print(f"resumed from checkpoint {args.resume}")
    # Report what actually ran: on --resume the technique and frame count
    # come from the checkpoint, not the CLI defaults.
    _print_run_summary(run)
    _print_observability_paths(args)
    run_id = _record_run(_registry_from(args), run, "run", args)
    if run_id:
        print(f"  registered as {run_id} (compare with "
              f"`python -m repro diff`)")
    if tracer is not None:
        from .obs import span_totals

        print("  simulator profile (host wall-clock, inclusive, "
              "not simulated time):")
        for name, (seconds, calls) in span_totals(tracer.events).items():
            print(f"    {name:10s} {seconds:8.3f} s ({calls} calls)")
    return 0


def _cmd_serve(args) -> int:
    """Run the engine-pool daemon behind a Unix socket until shutdown."""
    import signal

    from .service import EngineDaemon, ServiceConfig, ServiceServer

    config = ServiceConfig(
        workers=args.workers,
        max_queue=args.max_queue,
        tenant_max_pending=args.tenant_cap,
        batch_max=args.batch_max,
        max_engines=args.max_engines,
        max_retries=args.retries if args.retries is not None else 1,
        job_timeout_s=args.timeout,
        live_path=getattr(args, "live", None),
        telemetry=not args.no_telemetry,
        trace_dir=args.trace_dir,
        telemetry_log=args.stats_log,
        telemetry_interval_s=args.stats_interval,
    )
    daemon = EngineDaemon(config, registry=_registry_from(args))
    server = ServiceServer(daemon, args.socket)
    daemon.start()

    def _terminate(_signum, _frame):
        # Route SIGTERM through the KeyboardInterrupt path below so the
        # daemon closes cleanly — final telemetry snapshot included.
        raise KeyboardInterrupt

    previous_sigterm = signal.signal(signal.SIGTERM, _terminate)
    print(f"serving on {args.socket} "
          f"(workers={config.workers}, queue<={config.max_queue}, "
          f"batch<={config.batch_max}, warm engines/worker="
          f"{config.max_engines})")
    print("submit with `python -m repro submit GAME "
          f"--socket {args.socket}`; watch with `python -m repro top "
          f"--socket {args.socket}`; stop with `--shutdown` or Ctrl-C")
    if config.trace_dir:
        print(f"  tracing job lifecycles into {config.trace_dir} "
              f"(merge with `python -m repro trace {config.trace_dir}`)")
    if config.telemetry_log:
        print(f"  snapshotting telemetry to {config.telemetry_log} "
              f"every {config.telemetry_interval_s:g}s")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
        daemon.close()
    return 0


def _cmd_submit(args) -> int:
    from .errors import ServiceError
    from .service import ServiceClient

    if args.kind != "experiment" and not args.shutdown \
            and args.what not in all_workload_aliases():
        # Fail the typo client-side with a did-you-mean; the daemon
        # would refuse it anyway, but only after a socket round-trip.
        print(f"submit failed: {unknown_workload_message(args.what)}",
              file=sys.stderr)
        return 2
    payload = {
        "kind": args.kind,
        "technique": args.technique,
        "num_frames": args.frames,
        "scale": args.scale,
        "tenant": args.tenant or "default",
    }
    if args.kind == "experiment":
        payload["id"] = args.what
    else:
        payload["game"] = args.what
    if args.set:
        parameters = {}
        for spec in args.set:
            name, _, values = spec.partition("=")
            if not values:
                print(f"bad --set {spec!r}: expected name=v1,v2,...",
                      file=sys.stderr)
                return 2
            parameters[name] = [
                _coerce_sweep_value(v) for v in values.split(",")
            ]
        payload["kind"] = "sweep"
        payload["parameters"] = parameters
    try:
        with ServiceClient(args.socket) as client:
            if args.shutdown:
                client.shutdown()
                print("daemon asked to shut down")
                return 0
            jobs = client.submit(payload, trace_dir=args.trace_dir)
            print(f"submitted {len(jobs)} job(s): "
                  + ", ".join(job["job_id"] for job in jobs))
            if args.trace_dir:
                print(f"  traced: shards in {args.trace_dir} (merge "
                      f"with `python -m repro trace {args.trace_dir}`)")
            if not args.wait:
                return 0
            failed = 0
            for submitted in jobs:
                job = client.wait(
                    submitted["job_id"], timeout=args.wait_timeout,
                )
                if job["state"] != "done":
                    failed += 1
                    print(f"  {job['job_id']} {job['game']}/"
                          f"{job['technique']} FAILED: {job['error']}")
                    continue
                summary = job["summary"] or {}
                warmth = "warm" if job["warm"] else "cold"
                print(f"  {job['job_id']} {job['game']}/"
                      f"{job['technique']} done ({warmth}, "
                      f"attempt {job['attempts']}): "
                      f"cycles={summary.get('total_cycles', 0) / 1e6:.2f}M "
                      f"skip={100 * (summary.get('skipped_fraction') or 0):.1f}%"
                      + (f" run={job['run_id']}" if job.get("run_id")
                         else ""))
            return 1 if failed else 0
    except ServiceError as exc:
        print(f"submit failed: {exc.args[0]}", file=sys.stderr)
        return 1


def _cmd_status(args) -> int:
    from .errors import ServiceError
    from .harness.reporting import format_table
    from .service import ServiceClient

    try:
        with ServiceClient(args.socket, timeout=10.0) as client:
            status = client.status()
    except ServiceError as exc:
        # No live daemon: fall back to the heartbeat file its
        # aggregator wrote (atomic snapshots; safe to read any time).
        from .obs.live import read_heartbeat

        heartbeat = read_heartbeat(args.heartbeat)
        if heartbeat is None:
            print(f"status failed: {exc.args[0]} (and no heartbeat at "
                  f"{args.heartbeat})", file=sys.stderr)
            return 1
        print(f"daemon unreachable; last heartbeat "
              f"(owner {heartbeat.get('owner') or 'unknown'}):")
        rows = [
            [worker, f"{state['frames']}/{state['total'] or '?'}",
             "STALLED" if state["stalled"] else state["status"]]
            for worker, state in sorted(heartbeat["workers"].items())
        ]
        print(format_table(["worker", "frames", "status"], rows))
        return 0
    stats = status["stats"]
    print(f"daemon pid {status['pid']}: "
          f"{'running' if status['running'] else 'stopped'}, "
          f"{len(status['workers'])} worker(s), "
          f"queue depth {status['queue_depth']}")
    print(f"  jobs: {stats['submitted']} submitted / "
          f"{stats['completed']} done / {stats['failed']} failed / "
          f"{stats['retried']} retried "
          f"({stats['warm_jobs']} warm, {stats['cold_jobs']} cold)")
    print(f"  admission: {stats['rejected_backpressure']} backpressure "
          f"+ {stats['rejected_tenant']} tenant-cap refusals; "
          f"batching: {stats['jobs_batched']} jobs shared "
          f"{stats['batches_dispatched']} dispatches")
    if stats["worker_crashes"]:
        print(f"  workers: {stats['worker_crashes']} crash(es), "
              f"{stats['worker_restarts']} restart(s)")
    recent = status["jobs"][-args.top:]
    if recent:
        rows = [
            [job["job_id"], job["tenant"],
             f"{job['game']}/{job['technique']}", job["state"],
             job["attempts"],
             {True: "warm", False: "cold", None: "-"}[job["warm"]],
             job["run_id"] or "-"]
            for job in recent
        ]
        print(format_table(
            ["job", "tenant", "cell", "state", "att", "engine", "run_id"],
            rows,
        ))
    if status.get("live_path"):
        print(f"  heartbeat: {status['live_path']}")
    return 0


def _render_stats(snapshot: dict) -> str:
    """The ``repro stats`` / ``repro top`` table for one snapshot."""
    from .harness.reporting import format_table
    from .service.telemetry import TENANT_COUNTERS

    lines = [
        f"daemon pid {snapshot['pid']}: "
        f"{'running' if snapshot['running'] else 'stopped'}, "
        f"{snapshot['workers']} worker(s), "
        f"queue depth {snapshot['queue_depth']}, "
        f"up {snapshot['uptime_s']:.0f}s"
    ]
    telemetry = snapshot.get("telemetry")
    if not telemetry:
        lines.append("telemetry disabled "
                     "(the daemon runs with --no-telemetry)")
        return "\n".join(lines)
    labels = (
        ("queue_wait_s", "queue wait (s)"),
        ("execute_s", "execute (s)"),
        ("e2e_s", "end-to-end (s)"),
        ("batch_size", "batch size"),
    )
    rows = [
        [label, hist["count"], hist["p50"], hist["p95"], hist["p99"],
         hist["mean"]]
        for name, label in labels
        for hist in [telemetry["histograms"][name]]
    ]
    lines.append(format_table(
        ["latency", "n", "p50", "p95", "p99", "mean"], rows,
        float_format="{:.4f}",
    ))
    warm = telemetry["warm"]
    pool = telemetry["pool"]
    totals = pool["totals"]
    lines.append(
        f"warm: {warm['warm_jobs']} warm / {warm['cold_jobs']} cold "
        f"job(s) ({100.0 * warm['rate']:.1f}% warm); pool: "
        f"{totals['warm_hits']}/{totals['requests']} warm hits "
        f"({100.0 * pool['warm_hit_rate']:.1f}%), "
        f"{totals['engines_built']} built, "
        f"{totals['engines_evicted']} evicted"
    )
    tenants = telemetry.get("tenants") or {}
    if tenants:
        rows = [
            [tenant] + [counters.get(key, 0)
                        for key in TENANT_COUNTERS]
            for tenant, counters in sorted(tenants.items())
        ]
        lines.append(format_table(
            ["tenant", *TENANT_COUNTERS], rows,
        ))
    return "\n".join(lines)


def _cmd_stats(args) -> int:
    from .errors import ServiceError
    from .service import ServiceClient

    try:
        with ServiceClient(args.socket, timeout=10.0) as client:
            snapshot = client.stats()
    except ServiceError as exc:
        print(f"stats failed: {exc.args[0]}", file=sys.stderr)
        return 1
    if args.json:
        import json

        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    print(_render_stats(snapshot))
    return 0


def _cmd_top(args) -> int:
    """Live ops view: redraw the stats table from the ``watch`` feed."""
    from .errors import ServiceError
    from .service import ServiceClient

    once = getattr(args, "once", False)
    clear = (not once and not args.no_clear and not args.events
             and sys.stdout.isatty())
    limit = 1 if once else args.iterations
    frames = 0
    try:
        with ServiceClient(
            args.socket, timeout=max(args.interval * 4.0, 30.0),
        ) as client:
            for message in client.watch(interval=args.interval):
                if message.get("kind") == "event":
                    if args.events:
                        event = message["event"]
                        detail = " ".join(
                            f"{key}={value}" for key, value in
                            sorted(event.items())
                            if key not in ("seq", "ts", "event")
                        )
                        print(f"[{event['seq']:>4}] "
                              f"{event['event']:<9} {detail}")
                    continue
                if message.get("kind") != "stats":
                    continue
                frames += 1
                if clear:
                    print("\x1b[2J\x1b[H", end="")
                print(_render_stats(message["stats"]))
                if limit and frames >= limit:
                    return 0
    except KeyboardInterrupt:
        return 0
    except ServiceError as exc:
        print(f"top failed: {exc.args[0]}", file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args) -> int:
    """Merge a shard directory into one trace and validate it."""
    from .errors import ReproError
    from .obs import merge_shards, validate_trace
    from .obs.distributed import shard_paths

    try:
        shards = shard_paths(args.shard_dir)
        payload = merge_shards(shards or args.shard_dir,
                               out_path=args.out)
        counts = validate_trace(payload)
    except (OSError, ReproError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"trace failed: {message}", file=sys.stderr)
        return 1
    metadata = payload.get("metadata", {})
    trace_ids = metadata.get("trace_ids") or []
    print(f"trace ok: merged {len(shards)} shard(s) into "
          f"{counts['events']} events — {counts['spans']} spans over "
          f"{counts['pids']} process(es), {len(trace_ids)} trace id(s)")
    for trace_id in trace_ids:
        print(f"  trace {trace_id}")
    if metadata.get("repaired_spans"):
        print(f"  repaired {metadata['repaired_spans']} span(s) left "
              f"open by crashed processes")
    if args.out:
        print(f"  wrote merged trace to {args.out} "
              f"(load in Perfetto / chrome://tracing)")
    return 0


def _parse_set_specs(specs) -> dict:
    """``--set name=v1,v2,...`` flags into a parameter-grid dict."""
    parameters = {}
    for spec in specs or []:
        name, _, values = spec.partition("=")
        if not values:
            raise ValueError(f"bad --set {spec!r}: expected name=v1,v2,...")
        parameters[name] = [
            _coerce_sweep_value(v) for v in values.split(",")
        ]
    return parameters


def _cmd_fleet(args) -> int:
    import json
    import time as time_module

    from .errors import FleetError, ReproError
    from .fleet import FleetCoordinator, FleetSpec, launch_fleet
    from .fleet.points import list_fleets

    root = _registry_root(args)

    if args.fleet_action == "launch":
        if args.game not in all_workload_aliases():
            print(f"fleet launch failed: "
                  f"{unknown_workload_message(args.game)}", file=sys.stderr)
            return 2
        try:
            parameters = _parse_set_specs(args.set)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        crash_after = {}
        for spec in args.crash_worker or []:
            worker, _, count = spec.partition(":")
            try:
                crash_after[worker] = int(count)
            except ValueError:
                print(f"bad --crash-worker {spec!r}: expected "
                      "WORKER:CLAIMS (e.g. w1:2)", file=sys.stderr)
                return 2
        fleet_id = args.fleet_id or time_module.strftime(
            "fleet-%Y%m%d-%H%M%S")
        try:
            spec = FleetSpec(
                fleet_id=fleet_id, alias=args.game,
                technique=args.technique, num_frames=args.frames,
                parameters=parameters, scale=args.scale, lease_s=args.lease,
            )
            print(f"launching fleet {fleet_id}: {args.workers} worker(s) "
                  f"over {len(spec.point_ids())} point(s) "
                  f"({args.game}/{args.technique}, {args.frames} frames, "
                  f"lease {args.lease:g}s)")
            status = launch_fleet(
                root, spec, workers=args.workers,
                crash_after=crash_after, max_wait_s=args.max_wait,
                stream=sys.stderr if args.verbose else None,
            )
        except (FleetError, ReproError) as exc:
            print(f"fleet launch failed: {exc.args[0]}", file=sys.stderr)
            return 2
        coordinator = FleetCoordinator(root, fleet_id)
        coordinator.refresh()
        print(coordinator.render_status(width=_terminal_width()))
        coordinator.close()
        crashed = [w for w, code in sorted(status["exit_codes"].items())
                   if code != 0]
        if crashed:
            print(f"workers exited nonzero: {', '.join(crashed)} "
                  "(their points were requeued through lease expiry)")
        if status["failed_points"]:
            print(f"FAILED points: {', '.join(status['failed_points'])}",
                  file=sys.stderr)
            return 1
        print(f"fleet {fleet_id} complete; reconcile with "
              f"`python -m repro diff --fleet {fleet_id} OTHER` or "
              "`python -m repro trend`")
        return 0

    if args.fleet_action == "work":
        from .fleet import FleetWorker

        supervised = _supervision_requested(args)
        try:
            worker = FleetWorker(
                root, args.fleet_id, args.worker,
                poll_s=args.poll, max_wait_s=args.max_wait,
                crash_after_claims=args.crash_after_claims,
                policy=_policy_from(args) if supervised else None,
                trace=args.fleet_trace,
            )
            summary = worker.run()
        except (FleetError, ReproError) as exc:
            print(f"fleet work failed: {exc.args[0]}", file=sys.stderr)
            return 2
        print(f"worker {summary['worker']}: completed "
              f"{len(summary['completed'])} point(s)")
        return 1 if summary["failed"] else 0

    # status / watch ------------------------------------------------------
    fleet_id = args.fleet_id
    if not fleet_id:
        fleets = list_fleets(root)
        if not fleets:
            print(f"no fleets under {root} (start one with "
                  "`python -m repro fleet launch`)")
            return 0
        if len(fleets) > 1:
            print("fleets: " + ", ".join(fleets))
            print("pick one with --fleet-id")
            return 0
        fleet_id = fleets[0]
    try:
        coordinator = FleetCoordinator(root, fleet_id)
    except (FleetError, ReproError) as exc:
        print(f"fleet {args.fleet_action} failed: {exc.args[0]}",
              file=sys.stderr)
        return 2

    once = args.fleet_action == "status" or getattr(args, "once", False)
    # ANSI clear only on an interactive terminal: CI logs and pipes get
    # plain appended frames, never redraw escape codes.
    clear = (not once and not getattr(args, "no_clear", False)
             and sys.stdout.isatty())
    frames = 0
    try:
        while True:
            coordinator.refresh()
            if getattr(args, "reap", False):
                for point in coordinator.reap_orphans():
                    print(f"reaped expired claim on {point}")
            frames += 1
            if clear:
                print("\x1b[2J\x1b[H", end="")
            print(coordinator.render_status(width=_terminal_width()))
            if args.json:
                print(json.dumps(coordinator.status(), sort_keys=True))
            if once or coordinator.complete:
                break
            if (getattr(args, "iterations", 0)
                    and frames >= args.iterations):
                break
            time_module.sleep(getattr(args, "interval", 1.0))
    except KeyboardInterrupt:
        pass
    finally:
        coordinator.close()
    return 1 if coordinator.failed_points() else 0


def _terminal_width(default: int = 80) -> int:
    """Current terminal width; the default for pipes and CI logs."""
    if not sys.stdout.isatty():
        return default
    import shutil

    return shutil.get_terminal_size((default, 24)).columns


def _coerce_sweep_value(text: str):
    """``--set`` values: int where possible, then float, else string."""
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            continue
    return text


def _cmd_sweep(args) -> int:
    from .errors import ReproError
    from .harness.reporting import format_table
    from .harness.sweeps import sweep, tabulate

    if args.game not in all_workload_aliases():
        print(f"sweep failed: {unknown_workload_message(args.game)}",
              file=sys.stderr)
        return 2
    try:
        parameters = _parse_set_specs(args.set)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if not parameters:
        print("sweep needs at least one --set name=v1,v2,...",
              file=sys.stderr)
        return 2
    supervised = _supervision_requested(args)
    try:
        points = sweep(
            args.game, args.technique, parameters,
            base_config=_config_from(args), num_frames=args.frames,
            processes=args.jobs or None,
            policy=_policy_from(args) if supervised else None,
            journal_path=args.journal, fault_spec=args.inject_fault,
            trace_path=args.trace, metrics_path=args.metrics,
            live=_live_from(args),
        )
        rows = tabulate(points, args.metric)
    except ReproError as exc:
        print(f"sweep failed: {exc.args[0]}", file=sys.stderr)
        return 2
    print(f"{args.game} under {args.technique}: "
          f"{len(points)} configurations x {args.frames} frames")
    print(format_table(list(parameters) + [args.metric], rows))
    if args.trace or args.metrics:
        if len(points) > 1:
            print("  per-point trace/metrics paths derive from the given "
                  "stem (suffixed with each point's parameter assignment)")
        else:
            _print_observability_paths(args)
    registry = _registry_from(args)
    if registry is not None:
        run_ids = []
        for point in points:
            extra = {"parameters": point.parameters}
            if getattr(args, "fleet_id", None):
                # Stamp the same content-addressed identity a fleet
                # worker would, so `repro diff --fleet` can reconcile
                # this single-host sweep against a distributed run.
                import dataclasses as dc

                from .fleet.points import point_id as fleet_point_id

                config = dc.replace(_config_from(args),
                                    **point.parameters)
                extra["fleet_id"] = args.fleet_id
                extra["point_id"] = fleet_point_id(
                    args.game, args.technique, args.frames, config,
                )
            run_ids.append(_record_run(
                registry, point.run, "sweep-point", args, extra=extra,
            ))
        if any(run_ids):
            print(f"  registered {len([r for r in run_ids if r])} sweep "
                  f"point(s) in {registry.root}")
    return 0


def _cmd_report(args) -> int:
    if args.metrics_log or args.validate_trace:
        from .errors import ReproError
        from .obs import render_report, validate_trace_file

        try:
            if args.validate_trace:
                counts = validate_trace_file(args.validate_trace)
                print(f"trace ok: {counts['events']} events "
                      f"({counts['spans']} spans, {counts['instants']} "
                      f"instants, {counts['counters']} counter samples)")
            if args.metrics_log:
                from .obs import MetricsLog

                log = MetricsLog.load_many(args.metrics_log)
                if len(args.metrics_log) > 1:
                    print(f"merged {len(args.metrics_log)} metrics "
                          f"files ({log.num_frames} frames after "
                          f"retried-frame dedupe)")
                print(render_report(log, top=args.top))
        except ReproError as exc:
            print(f"report failed: {exc.args[0]}", file=sys.stderr)
            return 1
        return 0
    from .harness.report import generate_report

    results = generate_report(
        args.out, config=_config_from(args), num_frames=args.frames,
        progress=lambda experiment_id: print(f"running {experiment_id}..."),
    )
    print(f"wrote {len(results)} sections to {args.out}")
    return 0


def _cmd_runs(args) -> int:
    import time as time_module

    from .errors import ReproError
    from .harness.reporting import format_table

    registry = _reader_registry(args)
    if getattr(args, "tenant", None):
        registry = registry.for_tenant(args.tenant)
    if getattr(args, "compact", False):
        try:
            kept, reclaimed = registry.compact_index()
        except (OSError, ReproError) as exc:
            message = exc.args[0] if exc.args else str(exc)
            print(f"compact failed: {message}", file=sys.stderr)
            return 2
        print(f"compacted {registry.index_path}: kept {kept} "
              f"entr{'y' if kept == 1 else 'ies'}, reclaimed "
              f"{reclaimed} superseded row(s)")
        return 0
    try:
        entries = registry.query(
            kind=args.kind, alias=args.game, technique=args.technique,
        )
    except ReproError as exc:
        print(f"runs failed: {exc.args[0]}", file=sys.stderr)
        return 2
    write_errors = registry.write_errors()
    if not entries:
        print(f"registry {registry.root} is empty (run with --registry, "
              "or see `python -m repro run --help`)")
        _print_write_errors(write_errors)
        _print_tenant_summary(registry, args)
        return 0
    rows = []
    for entry in entries:
        summary = entry.summary or {}
        cycles = summary.get("total_cycles")
        skip = summary.get("skipped_fraction")
        headline = (
            f"cycles={cycles / 1e6:.2f}M skip={100 * (skip or 0):.1f}%"
            if cycles is not None else "-"
        )
        if summary.get("parameters"):
            headline += " " + ",".join(
                f"{k}={v}" for k, v in summary["parameters"].items()
            )
        rows.append([
            entry.run_id,
            entry.kind,
            entry.alias or "-",
            entry.technique or "-",
            entry.num_frames if entry.num_frames is not None else "-",
            entry.git_rev or "-",
            time_module.strftime(
                "%Y-%m-%d %H:%M",
                time_module.localtime(entry.created_at or 0),
            ),
            headline,
        ])
    print(f"registry {registry.root}: {len(entries)} entries "
          "(oldest first)")
    print(format_table(
        ["run_id", "kind", "game", "technique", "frames", "git",
         "when", "summary"], rows,
    ))
    _print_write_errors(write_errors)
    _print_tenant_summary(registry, args)
    return 0


def _print_write_errors(write_errors) -> None:
    if not write_errors:
        return
    latest = write_errors[-1]
    print(f"registry_write_errors: {len(write_errors)} "
          f"(latest: {latest.get('error')})")


def _print_tenant_summary(registry, args) -> None:
    """Tenant namespaces under the root, with per-tenant write errors.

    Only on an unscoped listing — a ``--tenant`` query already *is* a
    namespace, and its errors print through
    :func:`_print_write_errors`."""
    if getattr(args, "tenant", None):
        return
    tenants = registry.tenants()
    if tenants:
        print(f"tenants: {', '.join(tenants)} "
              "(list one with `python -m repro runs --tenant NAME`)")
    for tenant, records in sorted(
            registry.tenant_write_errors().items()):
        print(f"registry_write_errors[{tenant}]: {len(records)} "
              f"(latest: {records[-1].get('error')})")


def _cmd_diff(args) -> int:
    from .errors import ReproError
    from .obs.diff import (
        diff_fleets,
        diff_runs,
        render_diff,
        render_fleet_diff,
    )

    registry = _reader_registry(args)
    if getattr(args, "fleet", False):
        try:
            diff = diff_fleets(registry, args.run_a, args.run_b)
        except ReproError as exc:
            print(f"diff failed: {exc.args[0]}", file=sys.stderr)
            return 2
        print(render_fleet_diff(diff))
        return 0 if diff["identical"] else 1
    try:
        diff = diff_runs(registry, args.run_a, args.run_b)
    except ReproError as exc:
        print(f"diff failed: {exc.args[0]}", file=sys.stderr)
        return 2
    print(render_diff(diff, top_counters=args.top))
    return 0


def _cmd_trend(args) -> int:
    from .errors import ReproError
    from .obs.trend import render_fleet_trend

    try:
        print(render_fleet_trend(_reader_registry(args)))
    except (OSError, ReproError) as exc:
        print(f"trend failed: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_workloads(args) -> int:
    from .errors import WorkloadError
    from .harness.reporting import format_table
    from .workloads.dsl import load_path
    from .workloads.dsl import registry as dsl_registry

    if args.action == "list":
        entries = dsl_registry.discover()
        if not entries:
            print("no DSL workloads on the search path "
                  f"({os.pathsep.join(dsl_registry.search_dirs())})")
            return 0
        rows = []
        for alias in sorted(entries):
            entry = entries[alias]
            try:
                document = dsl_registry.load_dsl_workload(alias)
                defaults = document.defaults
                detail = " ".join(
                    f"{key}={value}" for key, value in sorted(
                        defaults.items())
                ) or "-"
                description = (document.data.get("description") or
                               "").strip().split("\n")[0]
            except WorkloadError as exc:
                detail = "INVALID"
                description = exc.args[0]
            rows.append([alias, entry.origin, detail, description])
        print(format_table(
            ["alias", "origin", "native defaults", "description"], rows,
        ))
        return 0
    if args.action == "validate":
        if not args.paths:
            print("workloads validate needs one or more scene files",
                  file=sys.stderr)
            return 2
        failures = 0
        for path in args.paths:
            try:
                document = load_path(path)
            except (WorkloadError, OSError) as exc:
                failures += 1
                message = exc.args[0] if exc.args else str(exc)
                print(f"FAIL {path}: {message}")
                continue
            print(f"ok   {path}: {document.name} "
                  f"({len(document.data['nodes'])} nodes)")
        return 1 if failures else 0
    if args.action == "add":
        if not args.paths:
            print("workloads add needs one or more scene files",
                  file=sys.stderr)
            return 2
        try:
            for path in args.paths:
                installed = dsl_registry.add_workload_file(
                    path, dest_dir=args.dest)
                print(f"installed {load_path(installed).name} "
                      f"-> {installed}")
        except (WorkloadError, OSError) as exc:
            print(f"workloads add failed: "
                  f"{exc.args[0] if exc.args else exc}", file=sys.stderr)
            return 2
        return 0
    # show: the canonical (defaults-filled) form of one alias
    if not args.paths:
        print("workloads show needs an alias", file=sys.stderr)
        return 2
    for alias in args.paths:
        try:
            document = dsl_registry.load_dsl_workload(alias)
        except WorkloadError as exc:
            print(f"workloads show failed: {exc.args[0]}",
                  file=sys.stderr)
            return 2
        print(document.dump(), end="")
    return 0


def _cmd_goldens(args) -> int:
    from .errors import ReproError
    from .harness.goldens import check_goldens, record_goldens
    from .obs.store import RunRegistry

    registry = RunRegistry(args.goldens)
    aliases = args.game or None
    if aliases:
        for alias in aliases:
            if alias not in all_workload_aliases():
                print(f"goldens failed: {unknown_workload_message(alias)}",
                      file=sys.stderr)
                return 2
    progress = (lambda line: print(f"  {line}")) if args.verbose else None
    try:
        if args.action == "record":
            recorded = record_goldens(
                registry, aliases, config=_config_from(args),
                num_frames=args.golden_frames, progress=progress,
            )
            print(f"recorded {len(recorded)} golden(s) into "
                  f"{registry.root}")
            return 0
        report = check_goldens(
            registry, aliases, config=_config_from(args),
            num_frames=args.golden_frames, progress=progress,
        )
    except ReproError as exc:
        print(f"goldens {args.action} failed: {exc.args[0]}",
              file=sys.stderr)
        return 1
    print(report.summary())
    if not report.ok:
        print(f"\n{len(report.failures)} point(s) drifted; if the new "
              "output is intended, refresh with "
              "`python -m repro goldens record`", file=sys.stderr)
        return 1
    return 0


def _add_registry_flags(parser, suppress: bool = False) -> None:
    # The flags also hang off every registry-aware subcommand so they
    # work on either side of the subcommand name; SUPPRESS keeps a
    # subparser from clobbering a value the global parser already set.
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument(
        "--registry", metavar="DIR", default=default,
        help="run-registry directory (default: "
             "$REPRO_REGISTRY or results/registry)")
    parser.add_argument(
        "--no-registry", action="store_true",
        default=argparse.SUPPRESS if suppress else False,
        help="do not record this run into the registry")


def _add_observability_flags(subparser) -> None:
    subparser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a Chrome trace-event JSON timeline here "
             "(load in Perfetto / chrome://tracing)")
    subparser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write a per-frame JSONL metrics log here "
             "(analyse with `python -m repro report PATH`)")
    subparser.add_argument(
        "--live", nargs="?", const="live.json", default=None,
        metavar="PATH",
        help="stream per-frame worker progress to a live status table "
             "(stderr) and a heartbeat JSON at PATH (default live.json); "
             "stalled workers are flagged before the supervisor timeout")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument("--scale", choices=("small", "benchmark", "mali450"),
                        default="small")
    parser.add_argument("--frames", type=int, default=12)
    parser.add_argument("--jobs", type=int, default=0,
                        help="fan independent cells across N worker "
                             "processes (0/1 = serial)")
    parser.add_argument("--profile", action="store_true",
                        help="print run's host seconds and calls per "
                             "span (frame, geometry, raster, ...)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-attempt wall-clock limit; exceeding it "
                             "terminates the worker and retries the cell")
    parser.add_argument("--retries", type=int, default=None,
                        help="retries after a failed attempt "
                             "(default 2 when supervision is active)")
    parser.add_argument("--checkpoint-stride", type=int, default=0,
                        metavar="FRAMES",
                        help="checkpoint every N frames so retries resume "
                             "mid-run instead of restarting (0 = off)")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="append a JSONL record per attempt/retry/"
                             "timeout/recovery to this file")
    parser.add_argument("--inject-fault", default=None,
                        metavar="ALIAS/TECH:FRAME:KIND[:TIMES]",
                        help="deterministically crash/error/hang the "
                             "matching cell (testing the recovery path); "
                             "'*' matches any alias/technique")
    _add_registry_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list games, experiments and techniques")
    exp = sub.add_parser("experiment", help="regenerate a paper figure")
    exp.add_argument("id")
    run = sub.add_parser("run", help="run one game under one technique")
    run.add_argument("game", nargs="?", default=None,
                     help="workload alias (builtin or DSL-registered); "
                          "optional when --workload-file is given")
    run.add_argument("--technique", choices=TECHNIQUES, default="re")
    run.add_argument("--workload-file", default=None, metavar="SCENE",
                     help="run a DSL scene file directly: validate it, "
                          "register its directory on the workload search "
                          "path and use its document name as the alias")
    run.add_argument("--native", action="store_true",
                     help="apply the DSL document's native defaults "
                          "(screen resolution, tile size, frame count) "
                          "instead of the --scale preset values")
    run.add_argument("--resume", default=None, metavar="CHECKPOINT",
                     help="resume a run from a checkpoint file written "
                          "by --checkpoint-at/--checkpoint-out")
    run.add_argument("--checkpoint-at", type=int, default=None,
                     metavar="FRAME",
                     help="write a checkpoint after this many frames, "
                          "then continue to completion")
    run.add_argument("--checkpoint-out", default=None, metavar="PATH",
                     help="where --checkpoint-at writes the checkpoint")
    run.add_argument("--manifest", default=None, metavar="PATH",
                     help="write a JSON run manifest here")
    run.add_argument("--tenant", default=None,
                     help="record this run under a tenant namespace of "
                          "the registry (the service daemon's layout)")
    _add_observability_flags(run)
    _add_registry_flags(run, suppress=True)
    swp = sub.add_parser(
        "sweep", help="run one game across a grid of GpuConfig values"
    )
    swp.add_argument("game")
    swp.add_argument("--technique", choices=TECHNIQUES, default="re")
    swp.add_argument("--set", action="append", required=True,
                     metavar="NAME=V1,V2,...",
                     help="GpuConfig field and the values to sweep it "
                          "over; repeat for a multi-parameter grid")
    swp.add_argument("--metric", default="total_cycles",
                     help="metric column to tabulate "
                          "(default: total_cycles)")
    swp.add_argument("--fleet-id", default=None, metavar="NAME",
                     help="stamp every recorded sweep point with this "
                          "fleet id and its deterministic point id, so "
                          "a single-host sweep can be reconciled against "
                          "a distributed fleet with `repro diff --fleet`")
    _add_observability_flags(swp)
    _add_registry_flags(swp, suppress=True)
    report = sub.add_parser(
        "report", help="regenerate every figure into one markdown "
                       "report, or analyse a per-frame metrics log"
    )
    report.add_argument("metrics_log", nargs="*", default=None,
                        help="metrics JSONL file(s) written by "
                             "--metrics; when given, print that run's "
                             "per-stage cycle shares, skip-rate curve "
                             "and hottest tiles instead of regenerating "
                             "figures — several files (a batch fanned "
                             "across workers, or retried attempts) "
                             "merge with last-record-per-frame dedupe")
    report.add_argument("--out", default="REPORT.md")
    report.add_argument("--top", type=int, default=10,
                        help="how many hottest tiles to list")
    report.add_argument("--validate-trace", default=None, metavar="PATH",
                        help="strictly validate a Chrome trace-event "
                             "JSON file written by --trace")
    runs = sub.add_parser(
        "runs", help="list the run registry (recorded runs, sweep "
                     "points, figure cells and goldens)"
    )
    runs.add_argument("--kind", default=None,
                      choices=("run", "sweep-point", "figure", "golden"),
                      help="only entries of this kind")
    runs.add_argument("--game", default=None,
                      help="only entries for this game alias")
    runs.add_argument("--technique", default=None,
                      help="only entries for this technique")
    runs.add_argument("--tenant", default=None,
                      help="list one tenant's namespace instead of the "
                           "registry root")
    runs.add_argument("--compact", action="store_true",
                      help="rewrite index.jsonl atomically with one "
                           "latest-wins row per run and report how many "
                           "superseded rows were reclaimed")
    _add_registry_flags(runs, suppress=True)
    diff = sub.add_parser(
        "diff", help="compare two registered runs (cycles, skips, "
                     "traffic, counters, per-tile CRCs)"
    )
    diff.add_argument("run_a", help="run id (or unique prefix) of the "
                                    "baseline side")
    diff.add_argument("run_b", help="run id (or unique prefix) of the "
                                    "candidate side")
    diff.add_argument("--top", type=int, default=12,
                      help="how many changed counters to list")
    diff.add_argument("--fleet", action="store_true",
                      help="treat the two arguments as fleet ids and "
                           "reconcile their recorded sweep points "
                           "point-for-point (cycles, skips, CRCs); "
                           "exit 1 on any divergence")
    _add_registry_flags(diff, suppress=True)
    trend = sub.add_parser(
        "trend", help="fleet dashboard: per-fleet rollups over every "
                      "fleet-stamped sweep point, plus a cycles "
                      "trajectory across re-runs of the same point set"
    )
    _add_registry_flags(trend, suppress=True)
    serve = sub.add_parser(
        "serve", help="run the warm engine-pool daemon behind a Unix "
                      "socket (render-as-a-service)"
    )
    serve.add_argument("--socket", default="repro.sock",
                       help="Unix socket path to bind (default "
                            "repro.sock)")
    serve.add_argument("--workers", type=int, default=1,
                       help="persistent worker processes, each with its "
                            "own warm engine pool (default 1)")
    serve.add_argument("--max-queue", type=int, default=16,
                       help="bounded job queue; submits beyond this are "
                            "refused with backpressure (default 16)")
    serve.add_argument("--tenant-cap", type=int, default=8,
                       help="max queued+running jobs per tenant "
                            "(default 8)")
    serve.add_argument("--batch-max", type=int, default=4,
                       help="max config-compatible jobs dispatched to a "
                            "worker as one batch (default 4)")
    serve.add_argument("--max-engines", type=int, default=4,
                       help="warm engines each worker keeps resident "
                            "(default 4)")
    serve.add_argument("--live", nargs="?", const="live.json",
                       default=None, metavar="PATH",
                       help="write the daemon's heartbeat JSON here "
                            "(read it with `python -m repro status`)")
    serve.add_argument("--trace-dir", default=None, metavar="DIR",
                       help="record daemon/worker lifecycle spans as "
                            "trace shards in DIR (merge with "
                            "`python -m repro trace DIR`)")
    serve.add_argument("--stats-log", default=None, metavar="PATH",
                       help="append periodic telemetry snapshots "
                            "(JSONL) here; a final snapshot flushes on "
                            "shutdown")
    serve.add_argument("--stats-interval", type=float, default=30.0,
                       metavar="SECONDS",
                       help="seconds between telemetry snapshots "
                            "(default 30)")
    serve.add_argument("--no-telemetry", action="store_true",
                       help="disable the telemetry recorder (stats/top "
                            "report daemon state only)")
    _add_registry_flags(serve, suppress=True)
    submit = sub.add_parser(
        "submit", help="submit a job to a running `repro serve` daemon"
    )
    submit.add_argument("what", nargs="?", default="ccs",
                        help="game alias (render/sweep) or experiment "
                             "id (--kind experiment)")
    submit.add_argument("--kind", default="render",
                        choices=("render", "sweep", "experiment"))
    submit.add_argument("--technique", choices=TECHNIQUES, default="re")
    submit.add_argument("--tenant", default=None,
                        help="tenant namespace the result is recorded "
                             "under (default 'default')")
    submit.add_argument("--set", action="append", default=None,
                        metavar="NAME=V1,V2,...",
                        help="sweep a GpuConfig field (implies "
                             "--kind sweep; repeatable)")
    submit.add_argument("--socket", default="repro.sock",
                        help="daemon socket (default repro.sock)")
    submit.add_argument("--wait", action="store_true",
                        help="block until the submitted job(s) finish "
                             "and print their summaries")
    submit.add_argument("--wait-timeout", type=float, default=300.0,
                        help="per-job --wait limit in seconds "
                             "(default 300)")
    submit.add_argument("--shutdown", action="store_true",
                        help="ask the daemon to shut down instead of "
                             "submitting")
    submit.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="trace this request end to end: mint a "
                             "trace context the daemon and workers nest "
                             "their spans under, and record the client "
                             "round trip as a shard in DIR (serve with "
                             "--trace-dir DIR too, then merge with "
                             "`python -m repro trace DIR`)")
    workloads = sub.add_parser(
        "workloads", help="list/validate/add/show declarative DSL "
                          "workloads (data-file scenes)"
    )
    workloads.add_argument("action",
                           choices=("list", "validate", "add", "show"))
    workloads.add_argument("paths", nargs="*",
                           help="scene files (validate/add) or workload "
                                "aliases (show)")
    workloads.add_argument("--dest", default=None, metavar="DIR",
                           help="directory `add` installs into "
                                "(default ./workloads)")
    goldens = sub.add_parser(
        "goldens", help="record or check the registry-pinned golden "
                        "CRC/skip/counter conformance baselines"
    )
    goldens.add_argument("action", choices=("record", "check"))
    goldens.add_argument("--goldens", metavar="DIR",
                         default=os.path.join("results", "goldens"),
                         help="golden registry directory "
                              "(default results/goldens — the committed "
                              "conformance baseline)")
    goldens.add_argument("--game", action="append", default=None,
                         help="only these aliases (repeatable; default "
                              "every builtin and DSL workload)")
    goldens.add_argument("--golden-frames", type=int, default=None,
                         metavar="N",
                         help="frames per golden point (default 8)")
    goldens.add_argument("--verbose", action="store_true",
                         help="print per-alias progress")
    status = sub.add_parser(
        "status", help="show a running daemon's queue/worker/tenant "
                       "state (falls back to the heartbeat file)"
    )
    status.add_argument("--socket", default="repro.sock",
                        help="daemon socket (default repro.sock)")
    status.add_argument("--heartbeat", default="live.json",
                        metavar="PATH",
                        help="heartbeat JSON to read when the socket "
                             "is unreachable (default live.json)")
    status.add_argument("--top", type=int, default=12,
                        help="how many recent jobs to list")
    stats = sub.add_parser(
        "stats", help="one-shot service telemetry: latency "
                      "percentiles, warm-hit rates, tenant counters"
    )
    stats.add_argument("--socket", default="repro.sock",
                       help="daemon socket (default repro.sock)")
    stats.add_argument("--json", action="store_true",
                       help="print the raw snapshot JSON instead of "
                            "the table")
    top = sub.add_parser(
        "top", help="live ops view: stream the daemon's stats table "
                    "(Ctrl-C to stop)"
    )
    top.add_argument("--socket", default="repro.sock",
                     help="daemon socket (default repro.sock)")
    top.add_argument("--interval", type=float, default=1.0,
                     help="seconds between redraws (default 1)")
    top.add_argument("--iterations", type=int, default=0,
                     metavar="N",
                     help="exit after N stats frames (default: stream "
                          "until interrupted)")
    top.add_argument("--no-clear", action="store_true",
                     help="append frames instead of clearing the "
                          "screen between redraws")
    top.add_argument("--events", action="store_true",
                     help="also print job lifecycle events (admitted/"
                          "started/done/...) between stats frames")
    top.add_argument("--once", action="store_true",
                     help="print exactly one stats frame and exit "
                          "(no screen clearing; safe in CI logs and "
                          "non-TTY pipes)")
    trace_cmd = sub.add_parser(
        "trace", help="merge a --trace-dir's per-process shards into "
                      "one validated Chrome trace"
    )
    trace_cmd.add_argument("shard_dir",
                           help="directory of shard-*.jsonl files "
                                "written by serve/submit --trace-dir")
    trace_cmd.add_argument("--out", default=None, metavar="PATH",
                           help="write the merged Perfetto-loadable "
                                "JSON here")
    fleet = sub.add_parser(
        "fleet", help="distributed sweeps: N workers idempotently claim "
                      "points through the shared registry (launch/work/"
                      "status/watch)"
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_action", required=True)
    flaunch = fleet_sub.add_parser(
        "launch", help="expand a sweep grid into a fleet spec and run "
                       "it across N local worker processes"
    )
    flaunch.add_argument("game", help="workload alias to sweep")
    flaunch.add_argument("--technique", choices=TECHNIQUES, default="re")
    flaunch.add_argument("--set", action="append", required=True,
                         metavar="NAME=V1,V2,...",
                         help="GpuConfig field and the values to sweep "
                              "it over; repeat for a multi-parameter "
                              "grid")
    flaunch.add_argument("--workers", type=int, default=3,
                         help="local worker processes to spawn "
                              "(default 3)")
    flaunch.add_argument("--fleet-id", default=None, metavar="NAME",
                         help="fleet id (default: a fleet-<timestamp> "
                              "name)")
    flaunch.add_argument("--lease", type=float, default=30.0,
                         metavar="SECONDS",
                         help="claim lease duration; a worker renews at "
                              "a third of this cadence while executing, "
                              "and peers reap claims whose lease "
                              "expired (default 30)")
    flaunch.add_argument("--max-wait", type=float, default=300.0,
                         metavar="SECONDS",
                         help="abort the launch if the fleet has not "
                              "completed within this wall-clock budget "
                              "(default 300)")
    flaunch.add_argument("--crash-worker", action="append", default=None,
                         metavar="WORKER:N",
                         help="fault injection: kill this worker (e.g. "
                              "w1) right after it wins its Nth claim, "
                              "before any child spawns — lease expiry "
                              "must requeue the orphaned point "
                              "(repeatable)")
    flaunch.add_argument("--verbose", action="store_true",
                         help="stream the live claim map to stderr "
                              "while the fleet runs")
    _add_registry_flags(flaunch, suppress=True)
    fwork = fleet_sub.add_parser(
        "work", help="run one fleet worker against an existing fleet "
                     "(what `launch` spawns; also how a second host "
                     "joins a fleet over a shared registry directory)"
    )
    fwork.add_argument("--fleet-id", required=True)
    fwork.add_argument("--worker", required=True,
                       help="this worker's id (unique per fleet, e.g. "
                            "w0 or hostname-0)")
    fwork.add_argument("--poll", type=float, default=0.2,
                       metavar="SECONDS",
                       help="idle poll interval between claim attempts "
                            "(default 0.2)")
    fwork.add_argument("--max-wait", type=float, default=None,
                       metavar="SECONDS",
                       help="give up if the fleet is incomplete after "
                            "this long (default: wait forever)")
    fwork.add_argument("--crash-after-claims", type=int, default=None,
                       metavar="N",
                       help="fault injection: exit hard right after "
                            "winning the Nth claim")
    fwork.add_argument("--fleet-trace", action="store_true",
                       help="record per-point spans as trace shards "
                            "under the fleet directory (merge with "
                            "`python -m repro trace`)")
    _add_registry_flags(fwork, suppress=True)
    fstatus = fleet_sub.add_parser(
        "status", help="one-shot fleet view: claim map, per-worker "
                       "throughput, stale heartbeats (plain ASCII; "
                       "safe in CI logs)"
    )
    fwatch = fleet_sub.add_parser(
        "watch", help="live fleet view: redraw the status until the "
                      "fleet completes (clears the screen only on a "
                      "TTY)"
    )
    for fview in (fstatus, fwatch):
        fview.add_argument("--fleet-id", default=None,
                           help="fleet to inspect (default: the only "
                                "fleet in the registry)")
        fview.add_argument("--json", action="store_true",
                           help="also print the merged status as JSON")
        fview.add_argument("--reap", action="store_true",
                           help="steal expired claims back to the "
                                "unclaimed pool while watching")
        _add_registry_flags(fview, suppress=True)
    fwatch.add_argument("--interval", type=float, default=1.0,
                        help="seconds between redraws (default 1)")
    fwatch.add_argument("--once", action="store_true",
                        help="print one frame and exit (same as "
                             "`fleet status`)")
    fwatch.add_argument("--iterations", type=int, default=0, metavar="N",
                        help="exit after N frames (default: until the "
                             "fleet completes or Ctrl-C)")
    fwatch.add_argument("--no-clear", action="store_true",
                        help="append frames instead of clearing the "
                             "screen between redraws")

    args = parser.parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "experiment": _cmd_experiment,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "report": _cmd_report,
        "runs": _cmd_runs,
        "diff": _cmd_diff,
        "trend": _cmd_trend,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "stats": _cmd_stats,
        "top": _cmd_top,
        "trace": _cmd_trace,
        "fleet": _cmd_fleet,
        "workloads": _cmd_workloads,
        "goldens": _cmd_goldens,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
