"""The user-facing SMT solver: the repo's stand-in for Z3.

:class:`SmtSolver` exposes the familiar assert/check/model/push/pop
interface over the pipeline *terms → intervals → bit-blasting → CDCL*.
Because Buffy's fragment is bounded integers + booleans, this pipeline
is a complete decision procedure (see DESIGN.md, substitution table).

Example::

    solver = SmtSolver()
    x = mk_int_var("x")
    solver.set_bounds("x", 0, 10)
    solver.add(x * x <= mk_int(16), x >= mk_int(3))
    assert solver.check() is CheckResult.SAT
    assert solver.model()[x] in (3, 4)

Resource governance: construct with a :class:`repro.runtime.Budget`
and every phase of ``check()`` — encoding and search — becomes
cancellable; an exhausted run answers :attr:`CheckResult.UNKNOWN` with
:attr:`SmtSolver.last_report` populated instead of hanging or raising.
An optional :class:`repro.runtime.EscalationPolicy` retries retryable
UNKNOWNs (per-call conflict caps) with varied CDCL configurations
before giving up.

Every ``check()`` runs one path over a solver *session*: one
bit-blaster and one CDCL solver.  It probes the result cache, encodes
and loads, picks a solve strategy, handles the result and certifies an
UNSAT, in that order.  ``incremental=True`` keeps the session alive
across ``check()`` calls: assumptions become SAT-level assumption
literals, push/pop frames become activation literals, and learned
clauses survive — the mode `DafnyBackend` and Houdini use to discharge
many near-identical queries against one shared encoding.  Otherwise
the session lives for one check: its root frame holds the assertions
plus the assumptions, with no activation literal.

The solving engine (:mod:`repro.engine`) adds opt-in modes under this
same facade.  ``options=`` takes an :class:`repro.engine.EngineOptions`;
left at ``None`` it is resolved once, here in the constructor, from the
``REPRO_*`` environment, and never re-read:

* ``jobs=N`` races the escalation ladder's configurations concurrently
  in a shared process pool — first SAT or UNSAT wins, losers are
  cancelled.  Verdicts are deterministic (every configuration decides
  the same theory); models and timings may vary.
* ``cache`` is consulted *before* encoding; identical (formulas,
  bounds) queries answer in microseconds.
* ``certify`` requires every UNSAT answer to carry an LRAT certificate
  the independent :mod:`repro.trust` checker accepts.
* ``checkpoints`` lets a budget-exhausted sequential solve resume.

The escalation ladder, the portfolio and checkpoints apply to
single-check sessions only, and ``check()`` consults the cache only
there.  An incremental session's ladder is its one rung: its live
solver under the assumption literals.  :meth:`SmtSolver.check_each`
answers many goals over one encoding as a data-parallel batch on the
worker pool, consulting the cache per goal, on either kind of session.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence, Union

from ..obs import METRICS, TRACER, phase_scope
from ..runtime.budget import (
    Budget,
    BudgetExhausted,
    ExhaustionReason,
    ResourceReport,
    SolverFault,
)
from ..engine.options import EngineOptions
from ..trust import Certificate, LratChecker, ProofLog
from .bitblast import BitBlaster
from .intervals import BoundsEnv, Interval
from .model import Model
from .sat.cdcl import CDCLConfig, CDCLSolver, SatResult
from .stats import SatStats, SolverStats
from .sorts import BOOL
from .terms import TRUE, Term, evaluate, free_vars, mk_and

if TYPE_CHECKING:
    from ..runtime.chaos import ChaosMonkey
    from ..runtime.portfolio import EscalationPolicy


class CheckResult(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        raise TypeError(
            "CheckResult is not a boolean; compare against CheckResult.SAT"
        )


# SolverStats lives in repro.smt.stats (the unified schema);
# re-exported here because this was its historical home.


@dataclass
class _SolveOutcome:
    """Internal: what the (sequential or parallel) search produced."""

    result: SatResult
    model: Optional[list[bool]] = None
    stats: SatStats = field(default_factory=SatStats)
    exhaust_report: Optional[ResourceReport] = None
    attempts: int = 1
    # Certified runs: the winning solver's hinted proof steps and (for
    # UNSAT-under-assumptions) the failing assumption literals.
    proof: Optional[list] = None
    core: tuple = ()
    # The session's own solver answered, so its proof extends what the
    # session's live checker has already accepted.
    live: bool = False


class _Frame:
    """Bookkeeping for one assertion-stack frame of a session."""

    __slots__ = ("act", "encoded")

    def __init__(self, act: Optional[int]):
        self.act = act      # activation literal; None for the root frame
        self.encoded = 0    # formulas of this frame already encoded


class _Session:
    """One (BitBlaster, CDCLSolver) pair and the checks it serves.

    A single-check session lives for one ``check()``: its root frame
    holds the assertions plus the assumptions, encoded with
    ``assert_formula`` and no activation literal.  An incremental
    session persists across checks.  Its push frames get an *activation
    literal*: every formula ``f`` of the frame is encoded as the guard
    clause ``(-act ∨ lit(f))`` and ``act`` is assumed during solves.
    Popping retires the frame by permanently asserting ``-act`` — its
    clauses become vacuous, while everything learned from them stays
    valid (learnt clauses can only mention ``-act``, which is now true).
    """

    def __init__(self, bounds: BoundsEnv, config: Optional[CDCLConfig],
                 budget: Optional[Budget],
                 proof: Optional[ProofLog] = None,
                 incremental: bool = True):
        self.blaster = BitBlaster(bounds=bounds, budget=budget)
        self.sat = CDCLSolver(0, config, budget=budget, proof=proof)
        self.incremental = incremental
        self.path = "incremental" if incremental else "oneshot"
        self.frames: list[_Frame] = [_Frame(act=None)]
        self.retired_acts: list[int] = []
        self.loaded_clauses = 0
        # Live proof checker: a certified UNSAT feeds it only the proof
        # steps that appeared since the last certification (and the
        # originals they cite), so certifying N answers on one growing
        # formula stays linear in the proof.  ``cited`` accumulates the
        # originals the accepted steps cite, for standalone certificates.
        self.checker: Optional[LratChecker] = None
        self.checked_steps = 0
        self.cited: dict[int, list[int]] = {}

    def retire_to(self, depth: int) -> None:
        """Drop frames beyond ``depth`` (called from ``pop()``)."""
        while len(self.frames) > depth:
            frame = self.frames.pop()
            if frame.act is not None:
                self.retired_acts.append(frame.act)
                if METRICS.enabled:
                    METRICS.counter_inc(
                        "repro_incremental_frames_retired_total")

    def sync(self, stack: Sequence[Sequence[Term]],
             assumptions: Sequence[Term]) -> list[int]:
        """Encode everything new; return the assumption literals to solve under."""
        blaster = self.blaster
        for act in self.retired_acts:
            blaster.cnf.add_clause([-act])
        self.retired_acts.clear()
        while len(self.frames) < len(stack):
            self.frames.append(_Frame(act=blaster.cnf.new_var()))
            if METRICS.enabled:
                METRICS.counter_inc("repro_incremental_frames_pushed_total")
        for frame, formulas in zip(self.frames, stack):
            while frame.encoded < len(formulas):
                f = formulas[frame.encoded]
                if frame.act is None:
                    blaster.assert_formula(f)
                else:
                    blaster.cnf.add_clause([-frame.act, blaster.literal_for(f)])
                frame.encoded += 1
        lits = [frame.act for frame in self.frames if frame.act is not None]
        for a in assumptions:
            lits.append(blaster.literal_for(a))
        return lits

    def load_clauses(self) -> None:
        """Feed clauses added since the last solve into the live CDCL."""
        sat = self.sat
        sat.backtrack_to_root()
        sat._ensure_vars(self.blaster.cnf.num_vars)
        clauses = self.blaster.cnf.clauses
        with TRACER.span("cnf-load", path=self.path,
                         clauses=len(clauses) - self.loaded_clauses):
            try:
                # False only on root-level unsat, which consumes the rest.
                sat.add_clauses(clauses, self.loaded_clauses)
            except BaseException:
                self.loaded_clauses = sat.load_stopped_at
                raise
        self.loaded_clauses = len(clauses)

    @property
    def root_unsat(self) -> bool:
        return not self.sat._ok


class SmtSolver:
    """SMT solver for quantifier-free bounded-integer/boolean formulas."""

    # Installed by repro.runtime.chaos.inject_faults for fault testing.
    # Read through ``self._chaos`` so an instance-level monkey (threaded
    # in by a back end's ``chaos=`` parameter) overrides the class hook.
    _chaos: Optional["ChaosMonkey"] = None

    def __init__(
        self,
        sat_config: Optional[CDCLConfig] = None,
        default_bounds: Interval = Interval(-(1 << 15), (1 << 15) - 1),
        validate_models: bool = True,
        budget: Optional[Budget] = None,
        escalation: Optional["EscalationPolicy"] = None,
        incremental: bool = False,
        options: Optional[EngineOptions] = None,
    ):
        self.sat_config = sat_config
        self.validate_models = validate_models
        self.budget = budget
        self.escalation = escalation
        self.incremental = incremental
        # Resolved once: the environment is never consulted again.  With
        # options.certify every UNSAT answer must carry an LRAT
        # certificate accepted by the independent repro.trust checker,
        # else the answer degrades to UNKNOWN(certification_failed).
        self.options = (
            options if options is not None else EngineOptions.resolve()
        )
        # Learned clauses re-installed from a checkpoint by the last
        # check(); > 0 proves a resume actually reused prior work.
        self.last_restored_learnts = 0
        self.certificate: Optional[Certificate] = None
        self._bounds = BoundsEnv(default=default_bounds)
        self._stack: list[list[Term]] = [[]]
        self._session: Optional[_Session] = None
        self._model: Optional[Model] = None
        self._last_result: Optional[CheckResult] = None
        self.last_report: Optional[ResourceReport] = None
        self.stats = SolverStats()
        # Portfolio slots cancelled during the most recent parallel solve;
        # folded into resource reports so timeouts say what was tried.
        self._last_cancelled = 0
        # Supervision and trust counters for resource reports.
        self._last_respawned = 0
        self._last_quarantined = 0
        self._proofs_checked = 0
        self._proofs_failed = 0
        # Assumption terms behind the last UNSAT (incremental mode only).
        self._last_core_terms: Optional[list[Term]] = None

    # ----- assertions -------------------------------------------------------

    def add(self, *formulas: Term) -> None:
        """Assert one or more boolean formulas."""
        for f in formulas:
            if not isinstance(f, Term) or f.sort is not BOOL:
                raise TypeError(f"can only assert Bool terms, got {f!r}")
            self._stack[-1].append(f)

    def set_bounds(self, var: Union[Term, str], lo: int, hi: int) -> None:
        """Declare the interval of an integer variable.

        Tighter bounds mean narrower bit-vectors and faster solving; any
        variable without declared bounds uses the solver default.
        """
        name = var.name if isinstance(var, Term) else var
        if (
            self._session is not None
            and self._session.blaster.varmap.encodes_int(name)
            and self._bounds.get(name) != Interval(lo, hi)
        ):
            raise RuntimeError(
                f"cannot change bounds of {name!r}: it is already encoded"
                " in this incremental session"
            )
        self._bounds.set(name, lo, hi)

    def assertions(self) -> list[Term]:
        return [f for frame in self._stack for f in frame]

    # ----- scopes --------------------------------------------------------------

    def push(self) -> None:
        self._stack.append([])

    def pop(self) -> None:
        if len(self._stack) == 1:
            raise RuntimeError("pop without matching push")
        self._stack.pop()
        if self._session is not None:
            self._session.retire_to(len(self._stack))

    # ----- solving ---------------------------------------------------------------

    def check(self, *assumptions: Term) -> CheckResult:
        """Decide satisfiability of the asserted formulas (+ assumptions).

        Never hangs under a budget: the encode and search phases poll it
        cooperatively, and exhaustion yields UNKNOWN with
        :attr:`last_report` describing the spend.  Timing stats are
        recorded even for exhausted runs.
        """
        self._reset_answer()
        for a in assumptions:
            if a.sort is not BOOL:
                raise TypeError("assumptions must be Bool terms")

        if self.budget is not None:
            self.budget.start()
            self.budget.charge_solver_call()
            reason = self.budget.exhausted()
            if reason is not None:
                return self._exhausted(
                    self.budget.report(reason, "refused before encoding"),
                    SolverStats(),
                )

        monkey = self._chaos
        if monkey is not None:
            # May sleep or raise InjectedFault; "unknown" short-circuits.
            if monkey.intercept() == "unknown":
                report = ResourceReport(
                    reason=ExhaustionReason.INJECTED,
                    message="chaos harness injected UNKNOWN",
                )
                return self._exhausted(report, SolverStats())
            # An injected delay may have consumed the deadline.
            if self.budget is not None:
                reason = self.budget.exhausted()
                if reason is not None:
                    return self._exhausted(
                        self.budget.report(reason, "refused before encoding"),
                        SolverStats(),
                    )

        path = "incremental" if self.incremental else "oneshot"
        if METRICS.enabled:
            METRICS.counter_inc("repro_solver_checks_total", path=path)
        with TRACER.span("check", path=path):
            return self._check(list(assumptions))

    def _check(self, assumptions: list[Term]) -> CheckResult:
        """The one check path: session, cache, encode, solve, answer."""
        cache_key: Optional[str] = None
        stack: Sequence[Sequence[Term]] = self._stack
        if self._session is None and not self.incremental:
            # A single check's root frame holds the assertions plus the
            # assumptions; nothing is assumed at the SAT level.
            formulas = self.assertions() + [
                a for a in assumptions if a is not TRUE
            ]
            stack, assumptions = [formulas], []
            if self.options.cache is not None:
                cache_key, result = self._probe_cache(formulas)
                if result is not None:
                    return result
        sess = self._open_session()
        if sess.incremental and METRICS.enabled:
            METRICS.counter_inc("repro_incremental_checks_total")
            # Clauses already loaded into the live CDCL solver are work
            # this check inherits instead of redoing.
            METRICS.counter_inc(
                "repro_incremental_clauses_reused_total", sess.loaded_clauses
            )

        cnf = sess.blaster.cnf
        self.last_restored_learnts = 0
        t0 = time.perf_counter()
        try:
            with TRACER.span("bitblast", path=sess.path,
                             frames=len(stack)) as sp:
                lits = sess.sync(stack, assumptions)
                sp.set("cnf_vars", cnf.num_vars)
                sp.set("cnf_clauses", len(cnf.clauses))
            t1 = time.perf_counter()
            configs: list[Optional[CDCLConfig]] = [self.sat_config]
            if not sess.incremental and self.escalation is not None:
                configs.extend(
                    self.escalation.ladder(self.sat_config, self.budget)
                )
            outcome = None
            if not sess.incremental and self.options.jobs > 1:
                outcome = self._solve_parallel(cnf, configs)
            if outcome is None:
                sess.load_clauses()
                outcome = self._solve_sequential(sess, lits, configs)
        except BudgetExhausted as exc:
            return self._exhausted(
                exc.report,
                SolverStats(
                    encode_seconds=time.perf_counter() - t0,
                    cnf_vars=cnf.num_vars,
                    cnf_clauses=len(cnf.clauses),
                ),
            )
        return self._answer(
            sess, outcome, stack, assumptions, lits, cache_key,
            encode_seconds=t1 - t0, solve_seconds=time.perf_counter() - t1,
            cnf_size=(cnf.num_vars, len(cnf.clauses)),
        )

    def check_each(self, goals: Sequence[Term]) -> list[
        tuple[CheckResult, Optional[ResourceReport], SolverStats]
    ]:
        """``check(goal)`` for each goal, solved as one data-parallel batch.

        Returns, per goal, the ``(result, report)`` pair
        :func:`governed_check` returns for ``check(goal)``, plus the
        :attr:`stats` of that answer.  Each goal is first looked up in
        the result cache, keyed as a single ``check(goal)`` is.  The
        misses are encoded on the session, the assertions once and then
        one literal per goal, so a goal's CNF size is the one its
        ``check(goal)`` on an incremental session sees; the CNF ships
        once to the worker pool and is solved under each goal's literal
        in parallel.  Every answer is then handled as ``check()``
        handles one: UNKNOWN report, model decode and validation, UNSAT
        certification with a fresh checker, cache store.  A goal the
        batch leaves unanswered (its worker was lost or failed, the
        pool is unavailable, or the budget ran out while encoding) is
        answered by ``check(goal)``.  No model, core or certificate is
        retained afterwards.
        """
        goals = list(goals)
        if any(g.sort is not BOOL for g in goals):
            raise TypeError("goals must be Bool terms")
        answers: list[Optional[tuple]] = [None] * len(goals)
        keys: list[Optional[str]] = [None] * len(goals)
        if self.options.cache is not None:
            formulas = self.assertions()
            memo: dict[Term, bytes] = {}
            for i, goal in enumerate(goals):
                keys[i], result = self._probe_cache(
                    formulas if goal is TRUE else formulas + [goal], memo)
                if result is not None:
                    answers[i] = (result, None, self.stats)
        misses = [i for i, answer in enumerate(answers) if answer is None]
        if misses:
            with TRACER.span("check-batch", goals=len(misses),
                             jobs=self.options.jobs):
                self._solve_batch(goals, misses, keys, answers)
        for i, answer in enumerate(answers):
            if answer is None:
                result, report = governed_check(self, goals[i])
                answers[i] = (result, report, self.stats)
        self._reset_answer()
        return answers

    def _solve_batch(self, goals: list[Term], misses: list[int],
                     keys: list[Optional[str]],
                     answers: list[Optional[tuple]]) -> None:
        """Answer ``goals[i]`` for each ``i`` in ``misses`` on the pool."""
        sess = self._open_session()
        cnf = sess.blaster.cnf
        if self.budget is not None:
            self.budget.start()
            for _ in misses:
                self.budget.charge_solver_call()
        encoded = []  # per miss: (SAT assumptions, encode seconds, CNF size)
        try:
            with TRACER.span("bitblast", path=sess.path,
                             frames=len(self._stack)) as sp:
                for i in misses:
                    t0 = time.perf_counter()
                    lits = sess.sync(self._stack, [goals[i]])
                    encoded.append((lits, time.perf_counter() - t0,
                                    (cnf.num_vars, len(cnf.clauses))))
                sp.set("cnf_vars", cnf.num_vars)
                sp.set("cnf_clauses", len(cnf.clauses))
        except BudgetExhausted:
            return  # check(goal) refuses on the spent budget
        t1 = time.perf_counter()
        slots = self._run_pool(lambda pool, **knobs: pool.solve_many(
            cnf, [lits for lits, _, _ in encoded], config=self.sat_config,
            **knobs,
        ))
        if slots is None:
            return
        solve_seconds = (time.perf_counter() - t1) / len(misses)
        for i, (lits, encode_seconds, size), slot in zip(
            misses, encoded, slots
        ):
            if slot is None or slot.error is not None or slot.reason == "fault":
                continue
            self._reset_answer()
            result = self._answer(
                sess, self._slot_outcome(slot, attempts=1),
                self._stack, [goals[i]], lits, keys[i],
                encode_seconds=encode_seconds, solve_seconds=solve_seconds,
                cnf_size=size,
            )
            answers[i] = (result, self.last_report, self.stats)

    def _open_session(self) -> _Session:
        """The incremental session, or a fresh session for one check."""
        sess = self._session
        if sess is None:
            sess = _Session(
                self._bounds, self.sat_config, self.budget,
                proof=ProofLog() if self.options.certify else None,
                incremental=self.incremental,
            )
            if self.incremental:
                self._session = sess
        return sess

    def _reset_answer(self) -> None:
        self._model = None
        self._last_result = None
        self.last_report = None
        self.certificate = None
        self._last_core_terms = None

    def _answer(self, sess: _Session, outcome: _SolveOutcome,
                stack: Sequence[Sequence[Term]], assumptions: list[Term],
                lits: list[int], cache_key: Optional[str], *,
                encode_seconds: float, solve_seconds: float,
                cnf_size: tuple[int, int]) -> CheckResult:
        """Turn the outcome of solving under ``lits`` into the answer.

        Records :attr:`stats`, then handles the result: an UNKNOWN gets
        its resource report; an UNSAT maps its SAT-level core back to
        ``assumptions`` (incremental sessions) and is certified; a SAT
        model is decoded and validated against the ``stack`` formulas
        and ``assumptions``.  A definitive answer is stored under
        ``cache_key``.
        """
        self.stats = SolverStats(
            encode_seconds=encode_seconds,
            solve_seconds=solve_seconds,
            cnf_vars=cnf_size[0],
            cnf_clauses=cnf_size[1],
            attempts=outcome.attempts,
            sat=outcome.stats,
            # The session's own solver lives across an incremental
            # session's checks: its raw counters mix all previous queries.
            sat_lifetime=sess.sat.stats if outcome.live else outcome.stats,
        )
        if outcome.result is SatResult.UNKNOWN:
            self._last_result = CheckResult.UNKNOWN
            self.last_report = self._unknown_report(outcome)
            return CheckResult.UNKNOWN
        cache = self.options.cache
        if outcome.result is SatResult.UNSAT:
            if sess.incremental:
                # Map the SAT-level core back to the caller's assumption
                # terms (activation literals of push frames are dropped).
                core_set = set(outcome.core)
                own = lits[len(lits) - len(assumptions):]
                self._last_core_terms = [
                    t for (l, t) in zip(own, assumptions) if l in core_set
                ]
            if self.options.certify:
                failure = self._certify(sess, outcome)
                if failure is not None:
                    return failure
            if cache_key is not None:
                self._cache_store(cache, cache_key, "unsat", None)
            self._last_result = CheckResult.UNSAT
            return CheckResult.UNSAT

        assert outcome.model is not None
        assignment = sess.blaster.varmap.decode(outcome.model)
        model = Model(assignment)
        if self.validate_models:
            self._validate(
                [f for frame in stack for f in frame] + assumptions, model
            )
        if cache_key is not None:
            self._cache_store(cache, cache_key, "sat", dict(assignment))
        self._model = model
        self._last_result = CheckResult.SAT
        return CheckResult.SAT

    def _probe_cache(self, formulas: list[Term],
                     memo: Optional[dict[Term, bytes]] = None,
                     ) -> tuple[str, Optional[CheckResult]]:
        """The cache key of a check of ``formulas``, and its cached
        answer (None on a miss or on an unusable entry, which the cache
        then counts as a miss)."""
        from ..engine.cache import formula_fingerprint

        key = formula_fingerprint(formulas, self._bounds, memo)
        answer: Optional[CheckResult] = None

        def replay(hit) -> bool:
            nonlocal answer
            answer = self._replay_cached(formulas, hit)
            return answer is not None

        self.options.cache.get(key, replay)
        return key, answer

    def _replay_cached(self, formulas: list[Term],
                       hit) -> Optional[CheckResult]:
        """Answer from a cache entry, or None when the entry is unusable.

        SAT entries are always re-validated by evaluating the query's
        own terms under the stored assignment, so a stale or corrupted
        disk entry degrades to a miss, never to a wrong answer.  A
        certified run treats UNSAT hits as misses: cache entries carry
        no proof, and an uncheckable answer must be re-derived.
        """
        t0 = time.perf_counter()
        if hit.verdict == "unsat":
            if self.options.certify:
                return None
            self.stats = SolverStats(
                solve_seconds=time.perf_counter() - t0,
                cnf_vars=hit.cnf_vars,
                cnf_clauses=hit.cnf_clauses,
                cache_hit=True,
            )
            self._last_result = CheckResult.UNSAT
            return CheckResult.UNSAT
        assignment = hit.assignment or {}
        model = Model(assignment)
        for f in formulas:
            if model.eval(f) is not True:
                return None  # corrupt/colliding entry: fall through to solve
        self.stats = SolverStats(
            solve_seconds=time.perf_counter() - t0,
            cnf_vars=hit.cnf_vars,
            cnf_clauses=hit.cnf_clauses,
            cache_hit=True,
        )
        self._model = model
        self._last_result = CheckResult.SAT
        return CheckResult.SAT

    def _cache_store(self, cache, key: str, verdict: str,
                     assignment: Optional[dict]) -> None:
        from ..engine.cache import CacheEntry

        cache.put(key, CacheEntry(
            verdict=verdict,
            assignment=assignment,
            cnf_vars=self.stats.cnf_vars,
            cnf_clauses=self.stats.cnf_clauses,
        ))

    def _certify(self, sess: _Session,
                 outcome: _SolveOutcome) -> Optional[CheckResult]:
        """Check an UNSAT answer's hinted certificate.

        When the session's own solver answered, the session's live
        checker is fed only the proof steps added since its last
        certification, and the originals they cite (from step 0 on a
        fresh session, which is exactly :func:`repro.trust.check_lrat`);
        a fresh-rung or portfolio winner gets a fresh checker.  Returns
        None on success (with :attr:`certificate` populated) or the
        degraded UNKNOWN answer when the proof is rejected, or with the
        budget's reason when the check runs out of budget — a certified
        run never reports an UNSAT it cannot replay.  Either failure
        discards the live checker, so the next certification rebuilds
        from scratch.
        """
        cnf = sess.blaster.cnf
        chk = sess.checker if outcome.live else None
        if chk is None:
            chk = LratChecker()
            from_step = 0
        else:
            from_step = sess.checked_steps
            sess.checker = None  # suspect until this certification passes
        steps = outcome.proof or []
        cert = Certificate.of(cnf.num_vars, cnf.clauses, steps[from_step:],
                              outcome.core)
        monkey = self._chaos
        if monkey is not None:
            monkey.corrupt_proof(cert)
        try:
            with TRACER.span("proof-check", path=sess.path,
                             steps=len(cert.steps),
                             hints=sum(len(s[3]) for s in cert.steps
                                       if s[0] == "a"),
                             cited=len(cert.clauses)):
                ok = cert.verify(self.budget, checker=chk)
        except BudgetExhausted as exc:
            # Out of budget mid-check: the UNSAT is unchecked, not wrong.
            return self._exhausted(exc.report, self.stats)
        self._proofs_checked += 1
        if METRICS.enabled:
            METRICS.counter_inc("repro_trust_proofs_checked_total")
        if ok:
            if outcome.live:
                sess.checker = chk
                sess.checked_steps = len(steps)
                sess.cited.update(cert.clauses)
                if from_step:
                    # Vouched for by the live checker; the certificate
                    # still covers the whole proof for a standalone replay.
                    cert = Certificate(
                        num_vars=cnf.num_vars,
                        clauses=dict(sess.cited),
                        steps=list(steps),
                        core=outcome.core,
                        verified=True,
                    )
            self.certificate = cert
            return None
        self._proofs_failed += 1
        if METRICS.enabled:
            METRICS.counter_inc("repro_trust_proofs_failed_total")
        report = ResourceReport(
            reason=ExhaustionReason.CERTIFICATION_FAILED,
            message=f"UNSAT answer failed proof check: {cert.error}",
        )
        return self._exhausted(report, self.stats)

    def _solve_sequential(
        self, sess: _Session, lits: list[int],
        configs: list[Optional[CDCLConfig]],
    ) -> _SolveOutcome:
        """Climb the escalation ladder over the session's loaded CNF.

        Rung 1 is the session's own solver under the assumption
        literals; an incremental session's ladder is that one rung.
        Later rungs are fresh solvers over the same CNF with varied
        configurations.  Only a per-call conflict-cap UNKNOWN is
        retried; a hard budget exhaustion — deadline, cumulative caps,
        cancellation — always stops the ladder immediately.
        """
        certify = self.options.certify
        cnf = sess.blaster.cnf
        # Checkpoint/resume (repro.persist): a previous budget-exhausted
        # solve of this exact CNF left its learned clauses on disk —
        # restore them into the first rung.  Certified runs skip both
        # directions: a proof log cannot replay clause derivations made
        # by a previous process, so restored learnts would be
        # uncertifiable and a saved proof-logging state unusable.
        ck_store = (
            None if certify or sess.incremental
            else self.options.checkpoints
        )
        ck_key: Optional[str] = None
        if ck_store is not None:
            from ..persist.checkpoint import cnf_fingerprint

            ck_key = cnf_fingerprint(cnf.num_vars, cnf.clauses)

        attempts = 0
        outcome = _SolveOutcome(SatResult.UNKNOWN)
        sat = sess.sat
        last_seconds = 0.0
        for config in configs:
            if attempts > 0 and not self.escalation.can_afford(
                self.budget, last_seconds
            ):
                break  # the next (larger) rung cannot fit in the deadline
            attempts += 1
            t0 = time.perf_counter()
            with TRACER.span("portfolio-rung", rung=attempts,
                             mode="sequential") as rung_span, \
                    phase_scope(rung=attempts):
                if attempts == 1:
                    ok = not sess.root_unsat
                    state = (
                        ck_store.load(ck_key)
                        if ok and ck_store is not None else None
                    )
                    if state is not None:
                        try:
                            restored = sat.restore_state(state)
                        except ValueError:
                            pass  # stale/incompatible: solve from scratch
                        else:
                            self.last_restored_learnts = restored
                            if METRICS.enabled:
                                METRICS.counter_inc(
                                    "repro_checkpoint_restores_total")
                            ok = sat._ok
                else:
                    sat = CDCLSolver(
                        cnf.num_vars, config, budget=self.budget,
                        proof=ProofLog() if certify else None,
                    )
                    try:
                        with TRACER.span("cnf-load", path=sess.path,
                                         clauses=len(cnf.clauses)):
                            ok = sat.add_cnf(cnf)
                    except BudgetExhausted as exc:
                        return _SolveOutcome(
                            SatResult.UNKNOWN, stats=sat.stats,
                            exhaust_report=exc.report, attempts=attempts,
                        )
                with TRACER.span("cdcl", path=sess.path, rung=attempts,
                                 assumptions=len(lits)) as cdcl_span:
                    result = (
                        sat.solve(assumptions=lits, budget=self.budget)
                        if ok else SatResult.UNSAT
                    )
                    cdcl_span.set("result", result.value)
                    cdcl_span.set("conflicts", sat.last_stats.conflicts)
                    cdcl_span.set("inprocessings",
                                  sat.last_stats.inprocessings)
                    cdcl_span.set("inprocess_s", sat.last_inprocess_s)
                rung_span.set("result", result.value)
            last_seconds = time.perf_counter() - t0
            outcome = _SolveOutcome(
                result,
                model=sat.model() if result is SatResult.SAT else None,
                stats=sat.last_stats if sess.incremental else sat.stats,
                exhaust_report=sat.exhaust_report,
                attempts=attempts,
                proof=sat.proof.steps if sat.proof is not None else None,
                core=(
                    tuple(sat.unsat_assumptions())
                    if result is SatResult.UNSAT and sat._ok else ()
                ),
                live=sat is sess.sat,
            )
            if result is not SatResult.UNKNOWN:
                break
            if sat.exhaust_report is not None:
                break  # hard budget exhaustion: escalating would be futile
        if ck_store is not None:
            if outcome.result is SatResult.UNKNOWN:
                # Exhausted: persist the search state so the next solve
                # of this CNF resumes instead of restarting.
                ck_store.save(ck_key, sat.checkpoint_state())
            else:
                ck_store.discard(ck_key)  # answered: checkpoint is spent
        return outcome

    def _solve_parallel(
        self, cnf, configs: list[Optional[CDCLConfig]],
    ) -> Optional[_SolveOutcome]:
        """Race the whole ladder in the shared worker pool.

        The portfolio does not checkpoint: workers race
        non-deterministically, so there is no canonical state to
        serialize.  Returns None when the pool is unavailable (unlikely),
        and the caller climbs the ladder sequentially instead.
        """
        raced = self._run_pool(
            lambda pool, **knobs: pool.solve_portfolio(cnf, configs, **knobs)
        )
        if raced is None:
            return None
        slot, attempts = raced
        if slot.error is not None or slot.reason == "fault":
            raise SolverFault(
                f"portfolio worker failed: {slot.error or 'unknown fault'}"
            )
        return self._slot_outcome(slot, attempts)

    def _run_pool(self, run):
        """``run(pool, budget=, certify=, chaos=)`` on the shared pool.

        Returns what ``run`` returns, or None when the pool is
        unavailable; the pool's supervision counters feed the resource
        reports.
        """
        from ..engine.parallel import PoolUnavailable, get_pool

        monkey = self._chaos
        chaos = None
        if monkey is not None and monkey.config.worker_crash_rate > 0:
            chaos = (
                monkey.config.worker_crash_rate,
                monkey.config.seed,
                monkey.config.worker_max_crashes,
            )
        try:
            pool = get_pool(self.options.jobs)
            answer = run(pool, budget=self.budget,
                         certify=self.options.certify, chaos=chaos)
        except PoolUnavailable:
            return None
        self._last_cancelled = pool.last_cancelled
        self._last_respawned = pool.last_respawned
        self._last_quarantined = pool.last_quarantined
        return answer

    def _slot_outcome(self, slot, attempts: int) -> _SolveOutcome:
        """A pool slot's answer as a solve outcome."""
        exhaust_report: Optional[ResourceReport] = None
        if slot.verdict is SatResult.UNKNOWN and slot.reason not in (
            None, "cancelled",
        ):
            reason = ExhaustionReason(slot.reason)
            if self.budget is not None:
                exhaust_report = self.budget.report(
                    reason, "parallel portfolio", attempts=attempts
                )
            else:
                exhaust_report = ResourceReport(
                    reason=reason, message="parallel portfolio",
                    conflicts=slot.stats.conflicts, attempts=attempts,
                )
        return _SolveOutcome(
            slot.verdict,
            model=slot.model,
            stats=slot.stats,
            exhaust_report=exhaust_report,
            attempts=attempts,
            proof=slot.proof,
            core=tuple(slot.core or ()),
        )

    # ----- reporting ------------------------------------------------------------

    def _unknown_report(self, outcome: _SolveOutcome) -> ResourceReport:
        if outcome.exhaust_report is not None:
            report = outcome.exhaust_report
            report.attempts = outcome.attempts
        else:
            # Per-call conflict cap (CDCLConfig.max_conflicts), no Budget.
            max_conflicts = (
                self.sat_config.max_conflicts if self.sat_config else None
            )
            report = ResourceReport(
                reason=ExhaustionReason.CONFLICTS,
                message="per-call conflict cap (CDCLConfig.max_conflicts)",
                conflicts=outcome.stats.conflicts,
                max_conflicts=max_conflicts,
                solver_calls=self.budget.solver_calls if self.budget else 1,
                attempts=outcome.attempts,
            )
        self._attach_engine_counters(report)
        return report

    def _attach_engine_counters(self, report: ResourceReport) -> None:
        """Fold engine-level telemetry into a resource report.

        Cache traffic and cancelled portfolio slots tell a ``--timeout``
        user what was tried before the solver gave up.
        """
        cache = self.options.cache
        if cache is not None:
            report.cache_hits = cache.stats.hits
            report.cache_misses = cache.stats.misses
        report.cancelled_slots = self._last_cancelled
        report.workers_respawned = self._last_respawned
        report.quarantined_queries = self._last_quarantined
        report.proofs_checked = self._proofs_checked
        report.proofs_failed = self._proofs_failed

    def _exhausted(self, report: ResourceReport,
                   stats: SolverStats) -> CheckResult:
        self._attach_engine_counters(report)
        self.stats = stats
        self.last_report = report
        self._last_result = CheckResult.UNKNOWN
        return CheckResult.UNKNOWN

    def _validate(self, formulas: Sequence[Term], model: Model) -> None:
        """Cross-check the decoded model against the original terms.

        This guards the whole pipeline: if bit-blasting or the SAT solver
        mis-translated anything, evaluation of the *source* terms catches it.
        """
        for f in formulas:
            if model.eval(f) is not True:
                raise AssertionError(
                    f"internal error: model does not satisfy formula {f!r}"
                )

    def model(self) -> Model:
        if self._model is None:
            if self._last_result is CheckResult.UNKNOWN:
                why = (
                    f": {self.last_report.reason.value}"
                    if self.last_report is not None else ""
                )
                raise RuntimeError(
                    "model() is unavailable: the last check() returned"
                    f" UNKNOWN{why}; no (stale) model is retained"
                )
            raise RuntimeError("model() is only available after a SAT check()")
        return self._model

    def unsat_core(self) -> list[Term]:
        """The assumption terms the last UNSAT answer depended on.

        Computed by the CDCL final-conflict analysis over assumption
        literals, so it is a (not necessarily minimal, but usually
        small) subset of the ``check(*assumptions)`` arguments whose
        conjunction with the asserted stack is already unsatisfiable.
        Incremental mode only: a single-check session folds assumptions
        into its root frame and has no assumption literals to trace.
        """
        if self._last_result is not CheckResult.UNSAT:
            raise RuntimeError(
                "unsat_core() is only available after an UNSAT check()"
            )
        if self._last_core_terms is None:
            raise RuntimeError(
                "unsat_core() requires incremental mode"
                " (SmtSolver(incremental=True))"
            )
        return list(self._last_core_terms)


def governed_check(
    solver: SmtSolver, *assumptions: Term
) -> tuple[CheckResult, Optional[ResourceReport]]:
    """``solver.check()`` with solver faults degraded to UNKNOWN.

    The back ends' failure-isolation primitive: a budget exhaustion or
    an (injected) :class:`SolverFault` becomes ``(UNKNOWN, report)`` for
    this one query instead of aborting the whole analysis.  Genuine
    bugs (any other exception) still propagate.
    """
    try:
        result = solver.check(*assumptions)
    except BudgetExhausted as exc:
        return CheckResult.UNKNOWN, exc.report
    except SolverFault as exc:
        return CheckResult.UNKNOWN, ResourceReport(
            reason=ExhaustionReason.FAULT, message=str(exc)
        )
    return result, solver.last_report


def is_satisfiable(formula: Term, bounds: Optional[dict[str, tuple[int, int]]] = None,
                   **solver_kwargs) -> bool:
    """Convenience one-shot satisfiability test."""
    solver = SmtSolver(**solver_kwargs)
    for name, (lo, hi) in (bounds or {}).items():
        solver.set_bounds(name, lo, hi)
    solver.add(formula)
    result = solver.check()
    if result is CheckResult.UNKNOWN:
        raise RuntimeError("solver returned unknown")
    return result is CheckResult.SAT


def prove(formula: Term, bounds: Optional[dict[str, tuple[int, int]]] = None,
          **solver_kwargs) -> bool:
    """Validity check: True iff ``formula`` holds for all bounded assignments."""
    from .terms import mk_not

    return not is_satisfiable(mk_not(formula), bounds, **solver_kwargs)
