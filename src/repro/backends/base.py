"""Shared constructor convention and solver plumbing for back ends.

:class:`AnalysisBackend` gives every back end:

* one keyword signature — ``(program, steps, *, budget=None,
  chaos=None, solver_factory=None, ...)``;
* one :meth:`_new_solver` factory that threads the engine knobs
  (``jobs``/``cache``/``certify``, resolved once at construction into
  :attr:`options`, and ``incremental`` for push/pop CNF reuse) plus
  backend-scoped chaos injection and a caller-supplied
  ``solver_factory`` override into every solver the back end builds.

The back ends stay thin: they describe *what* to solve; the engine
underneath (:mod:`repro.engine`) decides *how*.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Union

from ..engine.options import EngineOptions
from ..runtime.budget import Budget
from ..runtime.chaos import ChaosConfig, ChaosMonkey
from ..smt.solver import SmtSolver

if TYPE_CHECKING:
    from ..compiler.symexec import SymbolicMachine
    from ..engine.cache import ResultCache


class AnalysisBackend:
    """Base class giving every back end the normalized keyword tail.

    Subclasses call ``super().__init__(program, steps, ...)`` and then
    use :meth:`_new_solver` / :meth:`_machine_solver` instead of
    constructing :class:`SmtSolver` inline.  ``chaos`` accepts either a
    :class:`ChaosMonkey` or a :class:`ChaosConfig` and scopes fault
    injection to this back end's solvers (unlike the process-global
    :func:`repro.runtime.chaos.inject_faults`).  ``solver_factory``
    replaces the :class:`SmtSolver` constructor wholesale — it receives
    the same keyword arguments and must return an object with the
    ``SmtSolver`` query surface.
    """

    def __init__(
        self,
        program: Any = None,
        steps: Optional[int] = None,
        *,
        sat_config=None,
        validate_models: bool = True,
        budget: Optional[Budget] = None,
        escalation=None,
        chaos: Union[ChaosMonkey, ChaosConfig, None] = None,
        solver_factory: Optional[Callable[..., SmtSolver]] = None,
        jobs: Optional[int] = None,
        cache: Union["ResultCache", bool, None] = None,
        incremental: Optional[bool] = None,
        certify: Optional[bool] = None,
    ):
        self.program = program
        self.steps = steps
        self.sat_config = sat_config
        self.validate_models = validate_models
        self.budget = budget
        self.escalation = escalation
        if isinstance(chaos, ChaosConfig):
            chaos = ChaosMonkey(chaos)
        self.chaos = chaos
        self.solver_factory = solver_factory
        self.incremental = incremental
        self.options = EngineOptions.resolve(
            jobs=jobs, cache=cache, certify=certify)

    # ----- engine-aware solver construction ---------------------------------

    def _default_incremental(self) -> bool:
        """Whether this back end shares one encoding across queries.

        Subclasses that batch many related queries against one machine
        (Dafny VCs, Houdini rounds, BMC steps) override this to True;
        ``incremental=...`` in the constructor always wins.
        """
        return False

    def _incremental(self) -> bool:
        if self.incremental is None:
            return self._default_incremental()
        return self.incremental

    def _new_solver(self, **overrides) -> SmtSolver:
        """Build one solver with the back end's knobs threaded through."""
        kwargs: dict[str, Any] = dict(
            sat_config=self.sat_config,
            validate_models=self.validate_models,
            budget=self.budget,
            escalation=self.escalation,
            incremental=self._incremental(),
            options=self.options,
        )
        kwargs.update(overrides)
        factory = self.solver_factory or SmtSolver
        solver = factory(**kwargs)
        if self.chaos is not None:
            # Instance-level hook: scoped to this back end's solvers,
            # read by SmtSolver.check() through ``self._chaos``.
            solver._chaos = self.chaos
        return solver

    def _machine_solver(self, machine: "SymbolicMachine", **overrides) -> SmtSolver:
        """A solver pre-loaded with one machine's bounds and assumptions."""
        solver = self._new_solver(**overrides)
        for name, (lo, hi) in machine.bounds.items():
            solver.set_bounds(name, lo, hi)
        for assumption in machine.assumptions:
            solver.add(assumption)
        return solver

    def _chaos_active(self) -> bool:
        """True when any chaos monkey could intercept this back end's calls."""
        return self.chaos is not None or SmtSolver._chaos is not None
