"""The closed-loop workloads: fig6_verify and query_sweep.

One caller sends the next operation only after the previous one
returned.  After every operation, with nothing in flight, the
reference kernel runs once; each latency is normalized by the median
kernel of the nine operations around it (see :mod:`kernel`).
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Iterator

import inputs
from kernel import kernel, percentile, to_reference, window_normalizers
from ledger import Recorder, layer_metrics


@dataclass
class Workload:
    """One prepared closed-loop workload."""

    stream: Callable[[int], Iterator]   # seed -> endless op stream
    run_op: Callable                    # timed: op -> raw result
    check: Callable                     # untimed oracle: (op, result) -> error or None
    deck_size: int
    trace_decks: int                    # whole decks in the traced phase
    warmup: list                        # untimed operations in set-up


# ----- fig6_verify --------------------------------------------------------

def setup_fig6() -> Workload:
    from repro.backends.dafny import DafnyBackend, VCStatus
    from repro.compiler.symexec import EncodeConfig
    from repro.lang.checker import check_program
    from repro.lang.parser import parse_program
    from repro.netmodels.schedulers import FQ_BUGGY_SRC, FQ_FIXED_SRC
    from repro.smt.terms import mk_int, mk_le

    config = EncodeConfig(buffer_capacity=inputs.FIG6_CAPACITY,
                          arrivals_per_step=inputs.FIG6_ARRIVALS)
    consts = {"N": inputs.FIG6_N}
    backends = {
        name: DafnyBackend(
            check_program(parse_program(src, consts=consts)), config=config,
            jobs=1, cache=False, certify=False)
        for name, src in (("fq_buggy", FQ_BUGGY_SRC),
                          ("fq_fixed", FQ_FIXED_SRC))
    }

    def total_work(view):
        return mk_le(view.deq_p("ibs[0]") + view.deq_p("ibs[1]"),
                     view.enq_p("ibs[0]") + view.enq_p("ibs[1]"))

    def capacity_for(horizon):
        def capacity(view):
            return mk_le(view.backlog_p("ibs[0]"), mk_int(horizon - 1))
        return capacity

    def run_op(op: inputs.Fig6Op):
        return backends[op.scheduler].verify_monolithic(
            op.horizon, queries=[("total_work", total_work),
                                 ("capacity", capacity_for(op.horizon))],
            include_asserts=False)

    def check(op: inputs.Fig6Op, report) -> str | None:
        got = {vc.name: vc.status for vc in report.vcs}
        want = {name: VCStatus[status]
                for name, status in inputs.FIG6_EXPECTED.items()}
        if got != want:
            return f"{op}: got {got}, expected {want}"
        return None

    return Workload(
        stream=lambda seed: inputs.dealt(inputs.FIG6_DECK, seed, "fig6"),
        run_op=run_op, check=check,
        deck_size=len(inputs.FIG6_DECK), trace_decks=5,
        warmup=list(inputs.FIG6_DECK))


# ----- query_sweep -----------------------------------------------------------

def setup_query_sweep() -> Workload:
    import repro
    from repro.analysis import queries as Q
    from repro.analysis import traces
    from repro.baselines.fperf_fq import encode_fq_baseline
    from repro.baselines.fperf_prio import encode_prio_baseline
    from repro.baselines.fperf_rr import encode_rr_baseline
    from repro.netmodels.schedulers import SCHEDULER_SOURCES
    from repro.netmodels.shaping import DRR_SRC, SHAPER_SRC
    from repro.smt.solver import CheckResult, SmtSolver
    from repro.smt.terms import mk_and, mk_int, mk_le

    sources = dict(SCHEDULER_SOURCES, drr=DRR_SRC, shaper=SHAPER_SRC)
    encoders = {"fq": encode_fq_baseline, "rr": encode_rr_baseline,
                "prio": encode_prio_baseline}

    def term_for(query: inputs.Query, bk):
        sched = inputs.SCHEDULERS[query.scheduler]
        first = sched.inputs[0]
        if query.kind == "loss":
            return Q.loss(bk, first)
        if query.kind == "fair_share":
            return Q.fair_share(bk, first)
        if query.kind == "starvation":
            return Q.starvation(bk, sched.inputs[query.victim], max_service=0)
        if query.kind == "work_conservation":
            return Q.work_conservation(bk, sched.inputs, "ob")
        return Q.ordering_fifo(bk, "ob", first_flow=1, second_flow=0)

    def baseline_sat(query: inputs.Query) -> bool | None:
        """The FPerf-style encoding's answer, where it covers the query."""
        sched = inputs.SCHEDULERS[query.scheduler]
        if sched.baseline is None or query.kind not in (
                "loss", "fair_share", "starvation"):
            return None
        n = len(sched.inputs)
        ctx = encoders[sched.baseline](n_queues=n, horizon=query.horizon,
                                       capacity=8, max_arrivals=2)
        T = query.horizon
        if query.kind == "loss":
            term = mk_le(mk_int(1), sum((ctx.drops[0][t] for t in range(T)),
                                        mk_int(0)))
        elif query.kind == "fair_share":
            term = mk_le(mk_int(T // 2), ctx.total_deq(0))
        else:
            v = query.victim
            term = mk_and(*[mk_le(mk_int(1), ctx.cnt[v][t + 1])
                            for t in range(T)],
                          mk_le(ctx.total_deq(v), mk_int(0)))
        solver = ctx.solver()
        solver.add(term)
        result = solver.check()
        if result is CheckResult.UNKNOWN:
            raise RuntimeError(f"baseline undecided for {query}")
        return result is CheckResult.SAT

    # Filled on first use inside the untimed check(), so the oracle's
    # solves count neither as set-up nor as part of an operation.
    baseline: dict = {}

    def run_op(query: inputs.Query):
        sched = inputs.SCHEDULERS[query.scheduler]
        seen: dict = {}
        solvers: list = []

        def make_query(bk):
            seen["backend"] = bk
            return term_for(query, bk)

        def solver_factory(**kwargs):
            solver = SmtSolver(**kwargs)
            solvers.append(solver)
            return solver

        outcome = repro.analyze(
            sources[sched.source_key], make_query, backend="smt",
            steps=query.horizon, consts=dict(sched.consts),
            prove=query.prove, certify=True, cache=False, jobs=1,
            solver_factory=solver_factory)
        replayed = None
        if outcome.witness is not None:
            bk = seen["backend"]
            replayed = traces.replay(bk.program, outcome.witness, backend=bk)
        return outcome, solvers, replayed

    def check(query: inputs.Query, result) -> str | None:
        outcome, solvers, replayed = result
        got = outcome.verdict.value
        if got != query.expected:
            return f"{query}: verdict {got}, expected {query.expected}"
        internal_sat = outcome.witness is not None
        if internal_sat:
            if replayed is None or not replayed.consistent:
                return f"{query}: witness does not replay: {replayed}"
        else:
            cert = solvers[-1].certificate if solvers else None
            if cert is None or not cert.verified:
                return f"{query}: UNSAT answer without a checked certificate"
        expect_sat = (got == "proved") != query.prove
        if internal_sat != expect_sat:
            return f"{query}: SAT={internal_sat} but verdict {got}"
        if query not in baseline:
            baseline[query] = baseline_sat(query)
        base = baseline[query]
        if base is not None and base != internal_sat:
            return f"{query}: FPerf baseline says SAT={base}"
        return None

    return Workload(
        stream=lambda seed: inputs.dealt(inputs.QUERY_TABLE, seed, "sweep"),
        run_op=run_op, check=check,
        deck_size=len(inputs.QUERY_TABLE), trace_decks=1,
        warmup=inputs.QUERY_WARMUP)


SETUPS = {"fig6_verify": setup_fig6, "query_sweep": setup_query_sweep}


# ----- the loop ---------------------------------------------------------------

@dataclass
class Phase:
    latencies: list       # raw seconds per operation
    kernels: list         # raw kernel seconds after each operation
    failures: list        # oracle messages

    @property
    def reference(self) -> list[float]:
        norms = window_normalizers(self.kernels)
        return [to_reference(lat, k) for lat, k in zip(self.latencies, norms)]


def _loop(work: Workload, ops: Iterator, *, until: float | None = None,
          count: int | None = None, recorder: Recorder | None = None
          ) -> Phase:
    """Run operations until ``count`` are done, or until the clock
    passes ``until`` *and* the current deck is complete.

    Whole decks give every run the deck's exact mix, so each percentile
    falls on the same rank within the same operation type in every run.
    """
    phase = Phase([], [], [])
    done = 0
    while True:
        if count is not None:
            if done >= count:
                break
        elif time.perf_counter() >= until and done % work.deck_size == 0:
            break
        op = next(ops)
        handle = recorder.open("bench.op") if recorder else None
        t0 = time.perf_counter()
        result = work.run_op(op)
        elapsed = time.perf_counter() - t0
        if handle is not None:
            recorder.close(handle)
        error = work.check(op, result)
        done += 1
        phase.kernels.append(kernel())
        phase.latencies.append(elapsed)
        if error:
            phase.failures.append(error)
    return phase


def warm_up(work: Workload, sampler) -> tuple[list[str], float]:
    """Set-up's operations that reach every code path once, each
    followed by a ``sampler`` kernel.  Returns the oracle's failure
    messages and the raw seconds spent in the oracle, which is not
    set-up."""
    failures = []
    checking = 0.0
    for op in work.warmup:
        result = work.run_op(op)
        t0 = time.perf_counter()
        error = work.check(op, result)
        checking += time.perf_counter() - t0
        if error:
            failures.append(error)
        sampler.sample()
    return failures, checking


def measure(work: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run the measured loop; return counts and metrics (no setup_s)."""
    start = time.perf_counter()
    untraced_for = seconds / 2 if trace else seconds
    main = _loop(work, work.stream(seed), until=start + untraced_for)
    result = {"attempted": len(main.latencies),
              "failed": len(main.failures),
              "errors": main.failures[:5],
              "kernel_s": statistics.median(main.kernels)}
    ref = main.reference
    if not trace:
        correct = len(ref) - len(main.failures)
        rate = correct / sum(ref) if ref else 0.0
        result["metrics"] = {
            "verdict_p50_s": (percentile(ref, 0.5), "s"),
            "verdict_p90_s": (percentile(ref, 0.9), "s"),
            "verdicts_per_s": (rate, "1/s"),
            "capacity_rps": (rate, "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        return result
    recorder = Recorder().install()
    traced = _loop(work, work.stream(seed + 7),
                   count=work.trace_decks * work.deck_size, recorder=recorder)
    summary = recorder.summary()
    recorder.uninstall()
    result["attempted"] += len(traced.latencies)
    result["failed"] += len(traced.failures)
    result["errors"] += traced.failures[:5]
    metrics = layer_metrics(summary, len(traced.latencies))
    metrics["bench.kernel_s"] = statistics.median(main.kernels + traced.kernels)
    metrics["bench.late_p90_s"] = 0.0
    # The untraced side skips its first deck, which is colder than the
    # traced decks that follow it.
    warm_ref = ref[work.deck_size:] or ref
    metrics["bench.trace_overhead"] = (percentile(traced.reference, 0.5)
                                       / percentile(warm_ref, 0.5))
    metrics["bench.traced_verdicts"] = len(traced.latencies)
    result["layers"] = metrics
    return result


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
