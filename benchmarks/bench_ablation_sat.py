"""Ablation A2 — SAT engine features on Buffy-compiled formulas.

The SMT substrate (our Z3 stand-in) is itself a system under test:
this ablation measures how the CDCL features — inprocessing (bounded
variable elimination, subsumption, vivification), VSIDS decisions,
Luby restarts, phase saving, clause minimization — behave on the
formulas the Buffy pipeline actually generates (the Figure-6 instance
at a fixed horizon).

Every variant is expressed through the *public* solver-tuning surface
(``CDCLConfig.from_options``, the same path as ``--solver-opt
key=value`` and ``analyze(solver_config=...)``) — the ablation suite
no longer constructs solver internals directly.

CI gates on this module: ``scripts/check_bench_regression.py``
compares the emitted ``BENCH_ablation_sat.json`` against the committed
``BENCH_ablation_sat.baseline.json`` (machine speed is calibrated by
the ``full`` variant) and fails on a >20% regression.  Each variant
also records its CDCL ``conflicts``, ``propagations``,
``inprocessings`` and ``vivify_propagations``; under a fixed
``PYTHONHASHSEED`` these counts are deterministic, and CI checks that
two runs record the same ones.
"""

import pytest

from repro.backends.dafny import DafnyBackend
from repro.compiler.symexec import EncodeConfig
from repro.netmodels.schedulers import fq_buggy
from repro.smt.sat.cdcl import CDCLConfig
from repro.smt.solver import SmtSolver
from repro.smt.terms import mk_le

HORIZON = 3
CONFIG = EncodeConfig(buffer_capacity=5, arrivals_per_step=2)

# Variants as {option: value} mappings — the same strings a user would
# pass with repeated ``--solver-opt`` flags.
VARIANTS = {
    "full": {},
    "no-inprocess": {"use_inprocessing": "off"},
    "no-elim": {"use_elim": "off"},
    "no-subsume": {"use_subsume": "off"},
    "no-vivify": {"use_vivify": "off"},
    "no-vsids": {"use_vsids": "off"},
    "no-restarts": {"use_restarts": "off"},
    "no-phase-saving": {"use_phase_saving": "off"},
    "no-minimization": {"use_minimization": "off"},
}

_rows: list[str] = []


def total_work_query(view):
    deq = view.deq_p("ibs[0]") + view.deq_p("ibs[1]")
    enq = view.enq_p("ibs[0]") + view.enq_p("ibs[1]")
    return mk_le(deq, enq)


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_sat_feature_ablation(benchmark, variant, bench_json):
    solvers: list[SmtSolver] = []

    def recording_solver(**kwargs):
        solvers.append(SmtSolver(**kwargs))
        return solvers[-1]

    dafny = DafnyBackend(
        fq_buggy(2), config=CONFIG,
        sat_config=CDCLConfig.from_options(VARIANTS[variant]),
        solver_factory=recording_solver,
    )
    report = benchmark.pedantic(
        lambda: dafny.verify_monolithic(
            HORIZON, queries=[("total_work", total_work_query)]
        ),
        rounds=1, iterations=1,
    )
    # Every configuration must remain sound.
    assert report.ok
    bench_json("verify_seconds", report.elapsed_seconds, "s",
               variant=variant, horizon=HORIZON)
    bench_json("cnf_clauses", report.vcs[0].cnf_clauses, "clauses",
               variant=variant)
    (solver,) = solvers  # one machine, one shared solver for its VC
    sat = solver.stats.sat_lifetime
    for name in ("conflicts", "propagations", "inprocessings",
                 "vivify_propagations"):
        bench_json(name, getattr(sat, name), "count", variant=variant)
    _rows.append(
        f"{variant:16s}: {report.elapsed_seconds:7.2f}s"
        f" ({report.vcs[0].cnf_clauses} clauses, {sat.conflicts} conflicts,"
        f" {sat.inprocessings} rounds)"
    )


def test_sat_ablation_summary(benchmark, results_table):
    benchmark.pedantic(lambda: list(_rows), rounds=1, iterations=1)
    results_table["Ablation A2 — SAT features (Fig-6 instance, T=3)"] = (
        list(_rows)
        + ["all variants agree on verdicts; timings show feature value"]
    )
