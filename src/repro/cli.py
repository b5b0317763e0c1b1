"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``check FILE``      — parse and type-check a Buffy program;
* ``pretty FILE``     — parse and pretty-print (format) a program;
* ``run FILE``        — simulate with a random workload, print stats;
* ``verify FILE``     — check in-program asserts over a bounded horizon;
* ``analyze FILE``    — run any back end through :func:`repro.analyze`;
* ``smtlib FILE``     — dump the compiled encoding as SMT-LIB v2;
* ``stats TRACE``     — summarize a previously emitted trace file;
* ``batch ...``       — durable batch analysis over a journal directory
  (``submit`` / ``run`` / ``resume`` / ``status``): jobs survive
  SIGKILL and resume exactly where the journal left off;
* ``top TARGET``      — live job/solver introspection against a running
  ``repro serve`` (``HOST:PORT``) or a spool directory, refreshing in
  place (``--once`` for one frame);
* ``loc``             — print the Table-1 LoC comparison.

Named constants for ``buffer[N]``-style sizes are passed with
``-D N=3`` (repeatable).

Observability: ``verify`` and ``analyze`` accept ``--trace FILE``
(Chrome trace-event JSON, loadable in Perfetto) and ``--metrics
[FILE]`` (Prometheus text; omit FILE to print to stdout).  Either flag
turns telemetry on for the run — including metric/span deltas merged
back from ``--jobs N`` worker processes.

Exit codes for ``verify`` and ``analyze`` derive from
:class:`repro.analysis.result.Verdict` (the one place they are
defined): 0 — all asserts proved; 1 — a counterexample was found; 2 —
undecided (e.g. an injected fault); 3 — the resource budget was
exhausted (``--timeout``); 4 — usage/input errors; 5 — an answer was
produced but failed certification (``--certify``: an UNSAT/VERIFIED
claim whose LRAT certificate did not check is never reported as
proved); 6 — a ``batch run``/``resume`` finished with deadlettered
jobs (retry budget exhausted or a permanent per-job error).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .analysis.result import BUDGET_REASONS, EXIT_ERROR, Verdict
from .analysis.workloads import random_workload
from .backends.smt_backend import SmtBackend, Status
from .compiler.symexec import EncodeConfig
from .lang.ast import BuffyError
from .lang.checker import check_program
from .lang.interp import Interpreter
from .lang.parser import parse_program
from .lang.pretty import pretty_program
from .runtime.budget import Budget
from .runtime.chaos import chaos_from_env

# Back-compat aliases: the canonical mapping lives on Verdict.exit_code.
EXIT_PROVED = Verdict.PROVED.exit_code
EXIT_VIOLATED = Verdict.VIOLATED.exit_code
EXIT_UNKNOWN = Verdict.UNDECIDED.exit_code
EXIT_BUDGET = Verdict.EXHAUSTED.exit_code


def _parse_defines(defines: Sequence[str]) -> dict[str, int]:
    consts: dict[str, int] = {}
    for item in defines:
        name, _, value = item.partition("=")
        if not value:
            raise SystemExit(f"bad -D option {item!r}; expected NAME=INT")
        consts[name] = int(value)
    return consts


def _load(path: str, defines: Sequence[str]):
    with open(path) as handle:
        source = handle.read()
    return check_program(parse_program(source, consts=_parse_defines(defines)))


def _config(args) -> EncodeConfig:
    return EncodeConfig(
        buffer_capacity=args.capacity,
        arrivals_per_step=args.arrivals,
    )


def _telemetry_wanted(args) -> bool:
    return (getattr(args, "trace", None) is not None
            or getattr(args, "trace_jsonl", None) is not None
            or getattr(args, "metrics", None) is not None)


def _export_telemetry(snapshot, args) -> None:
    """Write the artifacts ``--trace``/``--metrics`` asked for.

    Exporter writes are crash-safe and degrade I/O failure to a False
    return (the analysis verdict is already decided; telemetry must not
    change the exit code) — surfaced here as a warning.
    """
    if snapshot is None:
        return
    if getattr(args, "trace", None):
        if snapshot.write_chrome_trace(args.trace):
            print(f"trace: wrote {args.trace} ({len(snapshot.spans)} spans;"
                  " open in https://ui.perfetto.dev)", file=sys.stderr)
        else:
            print(f"warning: could not write trace to {args.trace}",
                  file=sys.stderr)
    jsonl = getattr(args, "trace_jsonl", None)
    if jsonl:
        if snapshot.write_jsonl(jsonl):
            print(f"trace: wrote {jsonl} ({len(snapshot.spans)} spans,"
                  " one JSON object per line)", file=sys.stderr)
        else:
            print(f"warning: could not write trace to {jsonl}",
                  file=sys.stderr)
    metrics = getattr(args, "metrics", None)
    if metrics == "-":
        print(snapshot.to_prometheus(), end="")
    elif metrics:
        if snapshot.write_prometheus(metrics):
            print(f"metrics: wrote {metrics}", file=sys.stderr)
        else:
            print(f"warning: could not write metrics to {metrics}",
                  file=sys.stderr)


def cmd_check(args) -> int:
    checked = _load(args.file, args.define)
    params = ", ".join(
        f"{p.kind.value} {p.name}" for p in checked.program.params
    )
    print(f"{checked.name}: OK ({params})")
    if checked.monitors:
        print(f"  monitors: {', '.join(checked.monitors)}")
    return 0


def cmd_pretty(args) -> int:
    checked = _load(args.file, args.define)
    print(pretty_program(checked.program), end="")
    return 0


def cmd_run(args) -> int:
    checked = _load(args.file, args.define)
    interp = Interpreter(checked, buffer_capacity=args.capacity)
    machine_labels = [
        f"{p.name}[{i}]" if p.count > 1 else p.name
        for p in checked.program.input_params()
        for i in range(p.count)
    ]
    workload = random_workload(
        machine_labels, args.horizon, args.arrivals, seed=args.seed
    )
    trace = interp.run(workload)
    print(f"simulated {args.horizon} steps of {checked.name}")
    for label in machine_labels:
        if "[" in label:
            name, _, rest = label.partition("[")
            buf = interp.buffer(name, int(rest[:-1]))
        else:
            buf = interp.buffer(label)
        stats = buf.stats
        print(f"  {label}: enq={stats.enqueued_packets}"
              f" deq={stats.dequeued_packets}"
              f" drop={stats.dropped_packets}"
              f" backlog={buf.backlog_p()}")
    if trace.violations:
        for violation in trace.violations:
            print(f"  ASSERT VIOLATION: {violation}")
        return 1
    return 0


# Deprecated alias; the canonical set lives in repro.analysis.result.
_BUDGET_REASONS = BUDGET_REASONS


def _budget_from(args):
    if args.timeout is None:
        return None
    if args.timeout <= 0:
        print("error: --timeout must be positive", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)
    return Budget(deadline_seconds=args.timeout)


def _sat_config(args):
    """Build a CDCLConfig from repeated ``--solver-opt key=value`` flags.

    ``--solver-opt help`` lists the available knobs and exits.  Parse
    or coercion errors exit with EXIT_ERROR (the verdict codes 0-6 are
    reserved for analysis results).
    """
    opts = getattr(args, "solver_opt", None)
    if not opts:
        return None
    from .smt.sat.cdcl import CDCL_OPTION_HELP, CDCLConfig

    mapping = {}
    for item in opts:
        if item in ("help", "list"):
            width = max(len(n) for n in CDCL_OPTION_HELP)
            for name, text in sorted(CDCL_OPTION_HELP.items()):
                print(f"  {name:<{width}}  {text}")
            raise SystemExit(0)
        if "=" not in item:
            print(f"error: --solver-opt expects key=value, got {item!r}"
                  " (try --solver-opt help)", file=sys.stderr)
            raise SystemExit(EXIT_ERROR)
        key, value = item.split("=", 1)
        mapping[key] = value
    try:
        return CDCLConfig.from_options(mapping)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def cmd_verify(args) -> int:
    snapshot = None
    wanted = _telemetry_wanted(args)
    if wanted:
        from . import obs

        obs.reset()
        obs.enable()
    try:
        sat_config = _sat_config(args)  # before load: --solver-opt help exits
        checked = _load(args.file, args.define)
        backend = SmtBackend(
            checked, steps=args.horizon, config=_config(args),
            sat_config=sat_config,
            budget=_budget_from(args), jobs=args.jobs,
            certify=args.certify or None,
        )
        result = backend.check_assertions()
    finally:
        if wanted:
            from . import obs

            obs.disable()
            snapshot = obs.capture()
    print(f"{checked.name}: {result.status.value}"
          f" (T={args.horizon}, {result.elapsed_seconds:.2f}s)")
    if result.status is Status.VIOLATED:
        print(result.counterexample.describe())
    elif result.resource_report is not None:
        print(result.resource_report.describe())
    _export_telemetry(snapshot, args)
    # The exit code derives from the Verdict in exactly one place.
    return result.outcome().exit_code


def cmd_analyze(args) -> int:
    from .analysis.facade import analyze

    solver_config = _sat_config(args)  # before I/O: --solver-opt help exits
    with open(args.file) as handle:
        source = handle.read()
    with chaos_from_env():
        outcome = analyze(
            source,
            backend=args.backend,
            steps=args.horizon,
            budget=_budget_from(args),
            jobs=args.jobs,
            config=_config(args),
            solver_config=solver_config,
            consts=_parse_defines(args.define),
            prove=args.prove,
            certify=args.certify or None,
            telemetry=_telemetry_wanted(args),
        )
    print(outcome.describe())
    _export_telemetry(outcome.telemetry, args)
    return outcome.exit_code


def _batch_runner(args):
    from .persist.batch import BatchRunner

    return BatchRunner(
        args.dir, max_attempts=getattr(args, "max_attempts", 3),
    )


def cmd_batch_submit(args) -> int:
    sources = []
    for path in args.files:
        with open(path) as handle:
            sources.append((path, handle.read()))
    with _batch_runner(args) as runner:
        ids = runner.submit(
            sources,
            backend=args.backend,
            steps=args.horizon,
            consts=_parse_defines(args.define),
            prove=args.prove,
            options={"capacity": args.capacity, "arrivals": args.arrivals},
        )
    print(f"submitted {len(ids)} job(s) to {args.dir}")
    for path, job_id in zip(args.files, ids):
        print(f"  {job_id[:12]}  {path}")
    return 0


def cmd_batch_run(args) -> int:
    with chaos_from_env(), _batch_runner(args) as runner:
        try:
            report = runner.run(
                resume=args.resume,
                timeout=args.timeout,
                jobs=args.jobs,
                certify=args.certify or None,
            )
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
    print(report.describe())
    return report.exit_code


def cmd_batch_status(args) -> int:
    with _batch_runner(args) as runner:
        report = runner.status()
    if getattr(args, "json", False):
        import json

        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
        return 0
    print(report.describe())
    if report.recovered:
        print(f"  note: {report.recovered} job(s) look interrupted;"
              " `repro batch resume` will requeue them")
    return 0


def cmd_chaos_run(args) -> int:
    """Run a deterministic chaos campaign; exit 0 only if the
    durability auditor is green on every episode."""
    from pathlib import Path

    from .chaos import CampaignConfig, run_campaign

    kinds = None
    if args.kinds:
        kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    config = CampaignConfig(
        scenario=args.scenario,
        episodes=args.episodes,
        seed=args.seed,
        bundle_dir=Path(args.bundle_dir) if args.bundle_dir else None,
        workdir=Path(args.workdir) if args.workdir else None,
        kinds=kinds,
        fail_fast=args.fail_fast,
    )
    echo = (lambda line: None) if args.json else print
    report = run_campaign(config, echo=echo)
    if args.json:
        import json

        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.describe())
    return 0 if report.green else 1


def cmd_chaos_replay(args) -> int:
    """Re-execute a failing episode's repro bundle: offline re-audit
    of the bundled journals, then a live re-run under the bundled
    fault schedule."""
    from pathlib import Path

    from .chaos import replay_bundle

    try:
        result = replay_bundle(
            Path(args.bundle),
            workdir=Path(args.workdir) if args.workdir else None)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: not a readable bundle: {exc!r}", file=sys.stderr)
        return EXIT_ERROR
    if args.json:
        import json

        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        schedule = ",".join(f"{k}@{i}" for k, i in result["schedule"])
        print(f"replay [{result['scenario']}] schedule [{schedule}]")
        offline = result["offline_violations"]
        live = result["live_violations"]
        print(f"  offline re-audit: "
              f"{len(offline)} violation(s)"
              + "".join(f"\n    {v['invariant']}: {v['detail']}"
                        for v in offline))
        print(f"  live re-run: {len(live)} violation(s)"
              + "".join(f"\n    {v['invariant']}: {v['detail']}"
                        for v in live))
    return 1 if result["reproduced"] else 0


def cmd_serve(args) -> int:
    """Run the analysis service until SIGTERM/SIGINT, then drain."""
    import asyncio

    from .serve import AnalysisService, ReproServer, ServeConfig

    if args.route:
        return _cmd_serve_router(args)
    # Point the CDCL checkpoint store into the spool (unless the
    # operator chose one), so drain-cancelled solves leave resumable
    # checkpoints next to the journal that `batch resume` reads.
    os.environ.setdefault(
        "REPRO_CHECKPOINT_DIR", os.path.join(args.spool, "checkpoints"))
    config = ServeConfig(
        host=args.host,
        port=args.port,
        spool_dir=args.spool,
        queue_limit=args.queue_limit,
        workers=args.workers,
        deadline_seconds=args.deadline,
        degraded_deadline=args.degraded_deadline,
        breaker_threshold=args.breaker_threshold,
        breaker_reset=args.breaker_reset,
        read_timeout=args.read_timeout,
        jobs=args.jobs,
        certify=args.certify or None,
        name=args.name,
        lease_ttl=args.lease_ttl,
    )
    service = AnalysisService(config)
    server = ReproServer(service)
    print(f"repro serve: listening on http://{args.host}:{args.port}"
          f" (spool: {args.spool}, queue limit {args.queue_limit},"
          f" {args.workers} workers)", file=sys.stderr, flush=True)
    with chaos_from_env():
        try:
            summary = asyncio.run(server.serve_until_signalled())
        finally:
            service.runner.close()
    left = summary.get("jobs_left_for_resume", 0)
    print(f"drained: {summary.get('cancelled_inflight', 0)} in-flight"
          f" solve(s) cancelled, {left} job(s) journaled for"
          f" `repro batch resume {args.spool}`", file=sys.stderr)
    return 0


def _cmd_serve_router(args) -> int:
    """``repro serve --route``: run the shard router until signalled."""
    import asyncio

    from .serve import ClusterService, ReproServer, RouterConfig
    from .serve.cluster import parse_replica

    try:
        replicas = [parse_replica(spec)
                    for spec in args.route.split(",") if spec.strip()]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if not replicas:
        print("error: --route needs at least one HOST:PORT replica",
              file=sys.stderr)
        return EXIT_ERROR
    config = RouterConfig(
        host=args.host,
        port=args.port,
        name=args.name or f"router:{args.host}:{args.port}",
        failure_threshold=args.failure_threshold,
        readmit_seconds=args.readmit,
        probe_interval=args.probe_interval,
        probe_timeout=args.probe_timeout,
        forward_timeout=args.deadline * 2,
        route_deadline=args.route_deadline,
        lease_ttl=args.lease_ttl,
        workers=max(2, args.workers),
        read_timeout=args.read_timeout,
    )
    service = ClusterService(config, replicas)
    server = ReproServer(service)
    names = ", ".join(r.name for r in replicas)
    print(f"repro serve (router): listening on"
          f" http://{args.host}:{args.port} routing {names}",
          file=sys.stderr, flush=True)
    service.start()
    with chaos_from_env():
        try:
            summary = asyncio.run(server.serve_until_signalled())
        finally:
            service.close()
    counters = summary.get("counters", {})
    print(f"router drained: {counters.get('routed', 0)} routed,"
          f" {counters.get('failovers', 0)} failover(s),"
          f" {counters.get('handoffs', 0)} journal handoff(s)",
          file=sys.stderr)
    return 0


def cmd_top(args) -> int:
    from .top import run_top

    return run_top(
        args.target, interval=args.interval, once=args.once,
    )


def cmd_stats(args) -> int:
    from .obs.export import snapshot_from_chrome_trace

    snapshot = snapshot_from_chrome_trace(args.trace_file)
    print(snapshot.describe())
    return 0


def cmd_smtlib(args) -> int:
    from .smt.smtlib import to_smtlib

    checked = _load(args.file, args.define)
    backend = SmtBackend(checked, steps=args.horizon, config=_config(args))
    bounds = dict(backend.machine.bounds)
    formulas = list(backend.machine.assumptions)
    formulas.extend(ob.formula for ob in backend.machine.obligations)
    print(to_smtlib(formulas, bounds=bounds), end="")
    return 0


def cmd_loc(args) -> int:
    from .analysis.loc import table1_rows

    print(f"{'Program':16s} {'FPerf-style':>12s} {'Buffy':>6s} {'ratio':>6s}")
    for row in table1_rows():
        print(f"{row.program:16s} {row.fperf_loc:12d} {row.buffy_loc:6d}"
              f" {row.ratio:5.1f}x")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_ERROR, not argparse's default 2 —
    exit code 2 means "undecided" in this CLI's contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="Buffy (HotNets '24) reproduction: model and analyze"
                    " network performance",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_file=True):
        if with_file:
            p.add_argument("file", help="Buffy source file")
        p.add_argument("-D", "--define", action="append", default=[],
                       metavar="NAME=INT",
                       help="define a named constant (repeatable)")
        p.add_argument("--horizon", type=int, default=4,
                       help="time steps to model (default 4)")
        p.add_argument("--capacity", type=int, default=6,
                       help="buffer capacity (default 6)")
        p.add_argument("--arrivals", type=int, default=2,
                       help="max arrivals per buffer per step (default 2)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                       help="wall-clock budget; an exhausted run exits 3"
                            " with a resource report instead of hanging")
        p.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="solver processes for the parallel portfolio"
                            " (default $REPRO_JOBS or 1)")
        p.add_argument("--solver-opt", action="append", default=[],
                       dest="solver_opt", metavar="KEY=VALUE",
                       help="tune a CDCL solver knob (repeatable);"
                            " '--solver-opt help' lists the knobs")

    def certify_opt(p):
        p.add_argument("--certify", action="store_true",
                       help="require a checker-accepted LRAT certificate"
                            " for every UNSAT/VERIFIED answer; a rejected"
                            " proof exits 5 instead of reporting proved"
                            " (default $REPRO_CERTIFY)")

    def telemetry_opts(p):
        p.add_argument("--trace", default=None, metavar="FILE",
                       help="record spans and write a Chrome trace-event"
                            " JSON (open in https://ui.perfetto.dev)")
        p.add_argument("--trace-jsonl", default=None, metavar="FILE",
                       dest="trace_jsonl",
                       help="record spans and write them as JSON Lines"
                            " (one span per line, trace/span ids intact"
                            " — for scripted validation)")
        p.add_argument("--metrics", nargs="?", const="-", default=None,
                       metavar="FILE",
                       help="record metrics and write Prometheus text"
                            " (omit FILE to print to stdout)")

    for name, fn, help_text in (
        ("check", cmd_check, "parse and type-check"),
        ("pretty", cmd_pretty, "parse and pretty-print"),
        ("run", cmd_run, "simulate on a random workload"),
        ("verify", cmd_verify, "check asserts over a bounded horizon"),
        ("smtlib", cmd_smtlib, "dump the encoding as SMT-LIB v2"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)
        if name == "verify":
            certify_opt(p)
            telemetry_opts(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser(
        "analyze",
        help="run an analysis back end through repro.analyze()",
    )
    common(p)
    certify_opt(p)
    telemetry_opts(p)
    p.add_argument("--backend", choices=("smt", "dafny", "houdini"),
                   default="smt",
                   help="back end to dispatch to (query-less regimes:"
                        " smt asserts, dafny monolithic, houdini"
                        " synthesis; default smt)")
    p.add_argument("--prove", action="store_true",
                   help="prove instead of searching for a counterexample")
    p.set_defaults(fn=cmd_analyze)

    batch = sub.add_parser(
        "batch",
        help="durable, crash-recoverable batch analysis"
             " (submit/run/resume/status over a journal directory)",
    )
    batch_sub = batch.add_subparsers(dest="batch_command", required=True)

    bp = batch_sub.add_parser(
        "submit", help="journal analysis jobs for later execution"
    )
    bp.add_argument("dir", help="batch journal directory")
    bp.add_argument("files", nargs="+", help="Buffy source files")
    bp.add_argument("-D", "--define", action="append", default=[],
                    metavar="NAME=INT",
                    help="define a named constant (repeatable)")
    bp.add_argument("--horizon", type=int, default=4)
    bp.add_argument("--capacity", type=int, default=6)
    bp.add_argument("--arrivals", type=int, default=2)
    bp.add_argument("--backend", choices=("smt", "dafny", "houdini"),
                    default="smt")
    bp.add_argument("--prove", action="store_true")
    bp.set_defaults(fn=cmd_batch_submit)

    for bname, resume, help_text in (
        ("run", False,
         "execute journaled jobs (requeues work orphaned by a crash)"),
        ("resume", True,
         "finish an interrupted batch: replay the journal, requeue"
         " in-flight jobs, execute only what is missing"),
    ):
        bp = batch_sub.add_parser(bname, help=help_text)
        bp.add_argument("dir", help="batch journal directory")
        bp.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS", help="per-job wall-clock budget")
        bp.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="solver processes per job"
                             " (default $REPRO_JOBS or 1)")
        bp.add_argument("--max-attempts", type=int, default=3,
                        help="attempts before a job deadletters (default 3)")
        certify_opt(bp)
        bp.set_defaults(fn=cmd_batch_run, resume=resume)

    bp = batch_sub.add_parser(
        "status", help="print the journaled job table without executing"
    )
    bp.add_argument("dir", help="batch journal directory")
    bp.add_argument("--json", action="store_true",
                    help="machine-readable output (per-state counts with"
                         " orphaned-running jobs reported distinctly,"
                         " one row per job)")
    bp.set_defaults(fn=cmd_batch_status)

    p = sub.add_parser(
        "serve",
        help="run the overload-safe analysis service (POST /v1/analyze;"
             " SIGTERM drains: in-flight solves checkpoint, the backlog"
             " journals for `batch resume`)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8650)
    p.add_argument("--spool", default=".repro-serve", metavar="DIR",
                   help="durable spool: batch journal + shared result"
                        " cache + solver checkpoints (default .repro-serve)")
    p.add_argument("--queue-limit", type=int, default=8, metavar="Q",
                   help="bounded admission queue; beyond it requests get"
                        " 429 + Retry-After (default 8)")
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="solve worker threads (default 2)")
    p.add_argument("--deadline", type=float, default=30.0, metavar="SECONDS",
                   help="per-request budget at NORMAL load (default 30)")
    p.add_argument("--degraded-deadline", type=float, default=0.5,
                   metavar="SECONDS",
                   help="per-request budget once the ladder degrades:"
                        " saturated requests answer fast UNKNOWN"
                        " (default 0.5)")
    p.add_argument("--breaker-threshold", type=int, default=3,
                   help="consecutive solve-path failures that trip the"
                        " circuit breaker (default 3)")
    p.add_argument("--breaker-reset", type=float, default=5.0,
                   metavar="SECONDS",
                   help="seconds an open breaker waits before half-open"
                        " probes (default 5)")
    p.add_argument("--read-timeout", type=float, default=5.0,
                   metavar="SECONDS",
                   help="per-read client deadline; slow clients get 408"
                        " (default 5)")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="solver processes per solve"
                        " (default $REPRO_JOBS or 1)")
    p.add_argument("--name", default=None, metavar="NAME",
                   help="this replica's cluster name (default HOST:PORT);"
                        " stamps journal records and the spool lease")
    p.add_argument("--lease-ttl", type=float, default=10.0,
                   metavar="SECONDS",
                   help="spool-lease heartbeat TTL: how stale this"
                        " replica's heartbeat must be before a router may"
                        " take over its journal (default 10)")
    p.add_argument("--route", default=None, metavar="REPLICAS",
                   help="router mode: comma-separated HOST:PORT[=SPOOL]"
                        " replicas; requests are consistent-hash routed"
                        " with health-probed failover, and a dead"
                        " replica's spool (when given) is finished via"
                        " journal handoff")
    p.add_argument("--probe-interval", type=float, default=1.0,
                   metavar="SECONDS",
                   help="router: seconds between replica health probes"
                        " (default 1)")
    p.add_argument("--probe-timeout", type=float, default=2.0,
                   metavar="SECONDS",
                   help="router: per-probe timeout (default 2)")
    p.add_argument("--readmit", type=float, default=5.0, metavar="SECONDS",
                   help="router: seconds an ejected replica waits before"
                        " a re-admission probe (default 5)")
    p.add_argument("--failure-threshold", type=int, default=3,
                   help="router: consecutive probe/forward failures that"
                        " eject a replica (default 3)")
    p.add_argument("--route-deadline", type=float, default=90.0,
                   metavar="SECONDS",
                   help="router: total wall budget for one request"
                        " across all failovers (default 90)")
    certify_opt(p)
    p.set_defaults(fn=cmd_serve)

    chaos = sub.add_parser(
        "chaos",
        help="deterministic fault-injection campaigns with a"
             " cluster-wide durability auditor",
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_cmd", required=True)
    cp = chaos_sub.add_parser(
        "run",
        help="enumerate a scenario's fault points, replay it fault by"
             " fault, audit every episode, dump failing episodes as"
             " repro bundles",
    )
    cp.add_argument("--scenario", default="cluster",
                    choices=("batch", "serve", "cluster"),
                    help="workload to campaign over (default cluster)")
    cp.add_argument("--episodes", type=int, default=50, metavar="N",
                    help="episode budget: singles round-robin across"
                         " fault kinds, then sampled pairs (default 50)")
    cp.add_argument("--seed", type=int, default=7,
                    help="campaign seed: fixes the pair sampling and"
                         " the injected fault parameters (default 7)")
    cp.add_argument("--bundle-dir", default=None, metavar="DIR",
                    help="where failing episodes dump repro bundles"
                         " (default: under the campaign workdir)")
    cp.add_argument("--workdir", default=None, metavar="DIR",
                    help="scratch directory for episode spools"
                         " (default: a tempdir, removed when green)")
    cp.add_argument("--kinds", default=None, metavar="K1,K2",
                    help="restrict the fault universe to these kinds")
    cp.add_argument("--fail-fast", action="store_true",
                    help="stop the campaign at the first red episode")
    cp.add_argument("--json", action="store_true",
                    help="print the full campaign report as JSON")
    cp.set_defaults(fn=cmd_chaos_run)
    cp = chaos_sub.add_parser(
        "replay",
        help="re-execute a failing episode's bundle: offline re-audit"
             " of the bundled journals plus a live re-run under the"
             " bundled fault schedule",
    )
    cp.add_argument("bundle", help="bundle directory from `chaos run`")
    cp.add_argument("--workdir", default=None, metavar="DIR",
                    help="scratch directory for the live re-run")
    cp.add_argument("--json", action="store_true",
                    help="print the replay report as JSON")
    cp.set_defaults(fn=cmd_chaos_replay)

    p = sub.add_parser(
        "top",
        help="live job/solver introspection: attach to a running serve"
             " (HOST:PORT) or a spool/batch directory and refresh a"
             " job table with solver progress in place",
    )
    p.add_argument("target",
                   help="a serve endpoint (HOST:PORT or http://HOST:PORT)"
                        " or a spool/batch journal directory")
    p.add_argument("--interval", type=float, default=1.0,
                   metavar="SECONDS",
                   help="refresh interval (default 1.0)")
    p.add_argument("--once", action="store_true",
                   help="print one frame and exit (scripts, CI)")
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser(
        "stats", help="summarize a --trace file (spans by total time)"
    )
    p.add_argument("trace_file", help="Chrome trace JSON from --trace")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("loc", help="print the Table-1 LoC comparison")
    p.set_defaults(fn=cmd_loc)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BuffyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
