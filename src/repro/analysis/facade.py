"""The one-call analysis facade: :func:`repro.analyze`.

Dispatch one analysis across the five back ends behind a single
keyword surface and a single result type::

    import repro
    outcome = repro.analyze(program, query, backend="smt", steps=6,
                            budget=Budget(deadline_seconds=30), jobs=4)
    if outcome.verdict is repro.Verdict.VIOLATED:
        print(outcome.witness.describe())
    sys.exit(outcome.exit_code)

``program`` is a :class:`~repro.lang.checker.CheckedProgram` or raw
Buffy source (parsed and checked with ``consts=...``).  ``query``
depends on the back end:

===========  ==========================================================
backend      query
===========  ==========================================================
``smt``      a Term to find a trace for (``prove=True`` proves it
             instead); ``None`` checks the program's ``assert``\\ s
``fperf``    a Term to synthesize a sufficient workload for
``dafny``    an invariant ``StateView -> Term`` for the modular
             regime; ``None`` verifies monolithically over ``steps``
``mc``       a property ``StateView -> Term``; BMC to depth ``steps``,
             or k-induction with ``prove=True``
``houdini``  ignored (the candidate grammar is the specification)
===========  ==========================================================

Callable ``query`` values for ``smt``/``fperf`` receive the constructed
back end (for its term accessors) and return the query Term.

Engine knobs: ``jobs`` (portfolio/VC parallelism, default
``$REPRO_JOBS``), ``cache`` (result cache, default ``$REPRO_CACHE``),
``incremental`` (shared encodings; each back end picks its own sound
default), ``certify`` (require checker-accepted LRAT certificates for
UNSAT/VERIFIED answers, default ``$REPRO_CERTIFY``), ``chaos`` and
``solver_factory`` (test seams).

Solver tuning: ``solver_config`` accepts either a ready
:class:`~repro.smt.sat.cdcl.CDCLConfig` or a ``{name: value}`` mapping
of its fields (string values as parsed from the CLI's ``--solver-opt
key=value`` are coerced; see ``CDCLConfig.option_names()``)::

    repro.analyze(src, backend="smt", steps=5,
                  solver_config={"use_inprocessing": False,
                                 "restart_base": 200})
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Any, Optional

from ..runtime.budget import Budget, BudgetExhausted
from .result import AnalysisOutcome, Verdict

_BACKENDS = ("smt", "fperf", "dafny", "mc", "houdini")


def analyze(
    program: Any,
    query: Any = None,
    *,
    backend: str = "smt",
    steps: int = 6,
    budget: Optional[Budget] = None,
    jobs: Optional[int] = None,
    cache: Any = None,
    incremental: Optional[bool] = None,
    chaos: Any = None,
    solver_factory: Any = None,
    escalation: Any = None,
    config: Any = None,
    sat_config: Any = None,
    solver_config: Any = None,
    consts: Optional[dict[str, int]] = None,
    prove: bool = False,
    certify: Optional[bool] = None,
    telemetry: bool = False,
) -> AnalysisOutcome:
    """Run one analysis and return its :class:`AnalysisOutcome`.

    With ``telemetry=True`` the run records spans and metrics through
    :mod:`repro.obs` (including deltas shipped back from parallel
    workers) and attaches the resulting
    :class:`~repro.obs.TelemetrySnapshot` as ``outcome.telemetry``.
    """
    with _recording(telemetry, backend=backend, steps=steps):
        if backend not in _BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {_BACKENDS}"
            )
        if isinstance(program, str):
            from ..lang.checker import check_program
            from ..lang.parser import parse_program

            program = check_program(parse_program(program, consts=consts))
        knobs = dict(
            config=config,
            sat_config=resolve_solver_config(sat_config, solver_config),
            budget=budget, escalation=escalation, chaos=chaos,
            solver_factory=solver_factory, jobs=jobs, cache=cache,
            incremental=incremental, certify=certify,
        )
        outcome = _run(backend, program, query, steps, prove, knobs)
    if telemetry:
        from .. import obs

        outcome = dataclasses.replace(outcome, telemetry=obs.capture())
    return outcome


@contextlib.contextmanager
def _recording(telemetry: bool, **span_attrs: Any):
    """With ``telemetry``, record into a fresh :mod:`repro.obs` under one
    ``analyze`` span; otherwise do nothing."""
    if not telemetry:
        yield
        return
    from .. import obs

    obs.reset()
    obs.enable()
    try:
        with obs.TRACER.span("analyze", **span_attrs):
            yield
    finally:
        obs.disable()


def analyze_many(programs, **kwargs) -> "list[AnalysisOutcome]":
    """Analyze a batch of programs; durably when ``journal_dir`` is given.

    Thin facade over :func:`repro.persist.batch.analyze_many` (see
    there for the crash-recovery contract): with a ``journal_dir``,
    jobs are journaled, executed with retries + backoff, and a killed
    run can be finished by re-invoking with the same directory.
    """
    from ..persist.batch import analyze_many as _analyze_many

    return _analyze_many(programs, **kwargs)


def resolve_solver_config(sat_config: Any, solver_config: Any) -> Any:
    """Normalize the public ``solver_config`` knob onto ``sat_config``.

    ``solver_config`` may be a ready ``CDCLConfig`` (exclusive with
    ``sat_config``) or a ``{name: value}`` option mapping, applied on
    top of ``sat_config`` when one is given.
    """
    if solver_config is None:
        return sat_config
    from ..smt.sat.cdcl import CDCLConfig

    if isinstance(solver_config, CDCLConfig):
        if sat_config is not None:
            raise ValueError(
                "pass either 'sat_config' or a CDCLConfig 'solver_config',"
                " not both"
            )
        return solver_config
    return CDCLConfig.from_options(solver_config, base=sat_config)


def _run(backend: str, program: Any, query: Any, steps: int, prove: bool,
         knobs: dict[str, Any]) -> AnalysisOutcome:
    """Build the chosen back end with ``knobs`` and answer ``query``."""
    if backend == "smt":
        from ..backends.smt_backend import SmtBackend

        bk = SmtBackend(program, steps, **knobs)
        if query is None:
            return bk.check_assertions().outcome()
        term = query(bk) if callable(query) else query
        result = bk.prove(term) if prove else bk.find_trace(term)
        return result.outcome()

    if backend == "fperf":
        from ..backends.fperf import FPerfBackend

        fp = FPerfBackend(program, steps, **knobs)
        term = query(fp) if callable(query) else query
        if term is None:
            raise ValueError("backend='fperf' requires a query term")
        return fp.synthesize_by_generalization(term).outcome()

    if backend == "dafny":
        from ..backends.dafny import DafnyBackend

        dafny = DafnyBackend(program, **knobs)
        if query is None:
            return dafny.verify_monolithic(steps).outcome()
        return dafny.verify_modular(query).outcome()

    if backend == "mc":
        from ..backends.mc import ModelChecker

        if query is None:
            raise ValueError("backend='mc' requires a property query")
        mc = ModelChecker(program, **knobs)
        if prove:
            return mc.prove_with_increasing_k(query, max_k=steps).outcome()
        return mc.bmc(query, steps).outcome()

    from ..backends.houdini import HoudiniSynthesizer

    houdini = HoudiniSynthesizer(program, **knobs)
    try:
        return houdini.synthesize(query).outcome()
    except BudgetExhausted as exc:
        if exc.partial is not None:
            return exc.partial.outcome()
        from .result import verdict_for_unknown

        return AnalysisOutcome(
            verdict=verdict_for_unknown(exc.report), report=exc.report
        )
