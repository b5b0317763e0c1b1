"""A conflict-driven clause-learning (CDCL) SAT solver on a flat clause arena.

This is the decision engine at the bottom of the reproduction's SMT
stack (the paper uses Z3; we build the solver ourselves).  The search
follows MiniSat/Glucose; the storage layer does not:

* clauses live in one flat literal arena (``_ar``) addressed by integer
  clause ids with parallel header lists (offset, size, learnt flag,
  LBD, activity, dead flag) — no per-clause Python objects,
* truth values are literal-indexed (slot ``2v`` for ``v``, ``2v+1`` for
  ``-v``), so the hot loops never call ``abs()`` or flip signs,
* watch lists are flat interleaved ``[cid, blocker, cid, blocker, ...]``
  lists keyed by literal index,
* binary clauses bypass the watch machinery entirely through direct
  implication lists ``[implied_lit, cid, ...]``,
* learned-clause DB reduction is LBD (glue) based with arena
  compaction, not activity based,
* inprocessing runs in place at restarts: root-level clause
  strengthening, subsumption/self-subsumption, clause vivification, and
  SatELite-style bounded variable elimination (with model extension and
  on-demand variable reintroduction for incremental sessions).  The
  first round runs at the first restart, so a solve that settles
  before it runs exactly the search it would without inprocessing.

Search features: two-watched-literal propagation, first-UIP conflict
analysis with clause minimization, VSIDS with phase saving, Luby
restarts, solving under assumptions with unsat-core extraction.
Individual features can be switched off through :class:`CDCLConfig`,
which the SAT ablation benchmark (experiment A2 in DESIGN.md) uses.

With a proof log (``--certify``) every derived clause (learnt,
resolvent, strengthened, vivified, root unit, the empty clause and a
final negated core) is logged with hints (LRAT); how the hints are
read off the solver's state is in :mod:`repro.smt.sat.hints`.  Proof
logging never moves the search, and without a log the search loops do
no proof work at all.
"""

from __future__ import annotations

import enum
import heapq
import time
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from ..cnf import CNF
from ..stats import SatStats
from .hints import ProofHints
from ...obs import METRICS
from ...obs.progress import BEACON

if TYPE_CHECKING:  # avoid a runtime ↔ smt import cycle; Budget is duck-typed
    from ...runtime.budget import Budget, ResourceReport
    from ...trust.proof import ProofLog


class SatResult(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


#: One-line help per public tuning knob, surfaced by ``--solver-opt help``.
CDCL_OPTION_HELP = {
    "use_vsids": "VSIDS decision heuristic (else first unassigned var)",
    "use_restarts": "Luby restarts",
    "use_phase_saving": "remember last polarity per variable",
    "use_minimization": "learned-clause self-subsumption minimization",
    "use_inprocessing": "inprocessing between restarts (master switch)",
    "use_subsume": "subsumption/self-subsumption during inprocessing",
    "use_vivify": "clause vivification during inprocessing",
    "use_elim": "bounded variable elimination during inprocessing",
    "restart_base": "conflicts per Luby restart unit",
    "var_decay": "VSIDS activity decay factor",
    "clause_decay": "learned-clause activity decay factor",
    "max_conflicts": "per-solve conflict cap (none = unlimited)",
    "lbd_keep": "learned clauses with LBD <= this are never deleted",
    "reduce_base": "conflicts before the first DB reduction",
    "reduce_inc": "extra conflicts between successive reductions",
    "inprocess_interval": "conflicts between inprocessing rounds",
    "elim_occ_limit": "skip elimination of vars with more occurrences",
    "elim_growth": "max extra clauses an elimination may add",
    "elim_lit_limit": "skip resolvents longer than this",
    "vivify_ticks": "cap on propagations per vivification round",
}


@dataclass
class CDCLConfig:
    """Feature switches and tuning constants for :class:`CDCLSolver`.

    Every field is a public tuning knob: :meth:`from_options` builds a
    config from ``key=value`` strings (the CLI's ``--solver-opt``) and
    :func:`repro.analyze`'s ``solver_config=`` accepts either an
    instance or such a mapping.
    """

    use_vsids: bool = True
    use_restarts: bool = True
    use_phase_saving: bool = True
    use_minimization: bool = True
    use_inprocessing: bool = True
    use_subsume: bool = True
    use_vivify: bool = True
    use_elim: bool = True
    restart_base: int = 200
    var_decay: float = 0.95
    clause_decay: float = 0.999
    max_conflicts: Optional[int] = None
    lbd_keep: int = 2
    reduce_base: int = 1000
    reduce_inc: int = 300
    inprocess_interval: int = 1000
    elim_occ_limit: int = 10
    elim_growth: int = 0
    elim_lit_limit: int = 24
    vivify_ticks: int = 120_000

    @classmethod
    def option_names(cls) -> list[str]:
        return [f.name for f in fields(cls)]

    @classmethod
    def from_options(
        cls,
        options: Mapping[str, object],
        base: Optional["CDCLConfig"] = None,
    ) -> "CDCLConfig":
        """Build a config from a ``{name: value}`` mapping.

        Values may be strings (as parsed from ``--solver-opt key=value``)
        or already-typed Python values.  Unknown names raise
        :class:`ValueError` listing the valid knobs; boolean fields
        accept ``1/0, true/false, yes/no, on/off``.
        """
        cfg = base if base is not None else cls()
        types = {f.name: str(f.type) for f in fields(cls)}
        updates = {}
        for key, raw in options.items():
            name = key.strip().replace("-", "_")
            if name not in types:
                raise ValueError(
                    f"unknown solver option {key!r}; valid options: "
                    + ", ".join(sorted(types))
                )
            updates[name] = _coerce_option(name, types[name], raw)
        return replace(cfg, **updates)


def _coerce_option(name: str, type_str: str, raw: object):
    """Coerce one ``--solver-opt`` value to its CDCLConfig field type."""
    if not isinstance(raw, str):
        return raw
    text = raw.strip().lower()
    if "bool" in type_str:
        if text in ("1", "true", "yes", "on"):
            return True
        if text in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"solver option {name!r} expects a boolean, got {raw!r}")
    if "Optional[int]" in type_str or "int | None" in type_str:
        if text in ("none", "null", ""):
            return None
        return int(text)
    try:
        if "float" in type_str:
            return float(text)
        return int(text)
    except ValueError as exc:
        raise ValueError(
            f"solver option {name!r} expects {type_str}, got {raw!r}"
        ) from exc


# SatStats lives in repro.smt.stats (the unified schema); re-exported
# here because this was its historical home.


#: A vivification round is sized by the search it follows, as in
#: CaDiCaL and Kissat: it may spend ``VIVIFY_EFFORT`` times the search
#: propagations since the previous round, at least ``VIVIFY_FLOOR`` and
#: at most ``CDCLConfig.vivify_ticks``.  Sized on the Fig-6 VCs: a
#: fixed 120k budget spent most of a short solve vivifying (a T=2 VC:
#: ~65k of ~80k propagations), while a smaller share (0.3) or a lower
#: floor (3k) took 12-24% more conflicts than that at T=4 or T=5.
VIVIFY_EFFORT = 0.5
VIVIFY_FLOOR = 5_000


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence."""
    x = i - 1  # 0-based position
    size = 1
    seq = 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x = x % size
    return 1 << seq


_UNASSIGNED = 0


class CDCLSolver(ProofHints):
    """CDCL SAT solver over DIMACS-style literals.

    Typical use::

        solver = CDCLSolver(num_vars)
        solver.add_clause([1, -2])
        result = solver.solve()
        if result is SatResult.SAT:
            model = solver.model()   # model[v] in {True, False}, 1-indexed

    Internally a literal ``l`` is addressed by its *index*
    ``2v`` (positive) or ``2v+1`` (negative), computed inline as
    ``(l+l) if l > 0 else (1-l-l)``; ``index ^ 1`` is the negation.
    The arena, watch/implication lists, trail, and learnt clauses all
    hold indices — signed DIMACS literals exist only at the public
    API, proof-log, and checkpoint boundaries (``index >> 1`` is the
    variable, ``index & 1`` the polarity), so the hot loops never
    branch on literal sign.
    """

    def __init__(self, num_vars: int = 0, config: Optional[CDCLConfig] = None,
                 budget: Optional["Budget"] = None,
                 proof: Optional["ProofLog"] = None):
        self.config = config or CDCLConfig()
        self.budget = budget
        # Optional hinted proof log: every derived clause with the
        # clause ids that make it RUP, every learned-clause deletion,
        # and the refutation.  Checked by repro.trust.drat independently.
        self.proof = proof
        # Proof bookkeeping, kept only with a proof log: the proof id of
        # each arena clause (``~pos`` for an original, where pos is its
        # index in the clause list given to the loaders), the proof id
        # of the unit clause behind each root-level variable that has
        # one, the originals loading cut (see _original_id), the ids of
        # the clauses on each elimination frame, and how many originals
        # add_clause has seen.
        self._c_pid: list[int] = []
        self._units: dict[int, int] = {}
        self._cut: dict[int, object] = {}
        self._elim_pids: list[list[int]] = []
        self._n_orig = 0
        # Populated when solve() answers UNKNOWN: a ResourceReport when a
        # Budget ran out, None when only the per-call conflict cap hit
        # (the retryable case the escalation portfolio targets).
        self.exhaust_report: Optional["ResourceReport"] = None
        # `stats` accumulates over the solver's lifetime (incremental
        # sessions reuse one solver across many solve() calls);
        # `last_stats` is the delta attributable to the most recent call.
        self.stats = SatStats()
        self.last_stats = SatStats()
        # Seconds spent in inprocessing rounds, the same two views.
        self.inprocess_s = 0.0
        self.last_inprocess_s = 0.0
        self.num_vars = 0
        # Literal-indexed truth values: slot 2v is the value of literal
        # v, slot 2v+1 of -v (+1 true, -1 false, 0 unassigned).
        self._vals: list[int] = [0, 0]
        # Per-variable state (1-indexed; slot 0 unused).
        self._level: list[int] = [0]
        self._reason: list[int] = [-1]      # clause id, -1 = no reason
        self._activity: list[float] = [0.0]
        self._phase: list[bool] = [False]
        self._seen: list[int] = [0]         # analysis scratch marks
        self._eliminated: list[int] = [0]
        # Watches keyed by literal index: flat [cid, blocker, ...] — the
        # clauses to visit when that literal becomes true (they watch
        # its negation).  Binary clauses use direct implication lists
        # [implied_lit, cid, ...] instead and never enter the watches.
        self._watches: list[list[int]] = [[], []]
        self._bins: list[list[int]] = [[], []]
        # The clause arena: one flat literal buffer plus parallel header
        # lists indexed by clause id.  The two watched literals of a
        # live clause are always at arena positions start and start+1.
        self._ar: list[int] = []
        self._c_start: list[int] = []
        self._c_size: list[int] = []
        self._c_learnt: list[int] = []
        self._c_lbd: list[int] = []
        self._c_act: list[float] = []
        self._c_dead: list[int] = []
        self._free_lits = 0                 # garbage literals in the arena
        self._n_irr = 0                     # live irredundant clauses
        self._n_learnt = 0                  # live learned clauses
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._var_inc = 1.0
        self._cla_inc = 1.0
        self._ok = True
        self._conflict_assumptions: list[int] = []
        # Max-activity heap with lazy (stale-entry) deletion.
        # _heap_act[v] is the priority of v's live heap entry (-1.0 when
        # v has none): backtrack pushes only when the activity actually
        # rose, and _decide drops entries whose stored priority no
        # longer matches — so duplicates die on first pop instead of
        # being requeued, keeping the heap near the unassigned-var count.
        self._heap: list[tuple[float, int]] = []
        self._heap_act: list[float] = [-1.0]
        # Where the next solve() resumes the Luby restart sequence.
        # 0 for fresh solvers; restore_state() advances it so a resumed
        # search continues the interrupted solve's restart schedule.
        # _restart_count mirrors the live position during _search so a
        # checkpoint taken after an UNKNOWN can serialize it.
        self._restart_resume = 0
        self._restart_count = 0
        # Learned clauses re-installed by restore_state(), for telemetry.
        self.restored_learnts = 0
        # Bounded variable elimination bookkeeping: the stack holds
        # (var, removed clauses) frames in elimination order; model()
        # extends assignments in reverse, and reintroduction replays a
        # suffix when an eliminated variable is mentioned again.
        self._elim_stack: list[tuple[int, list[list[int]]]] = []
        self._conflicts_at_reduce = 0
        self._reduce_fuel = self.config.reduce_base
        self._conflicts_at_inprocess = 0
        # Lifetime propagations when the last round ended: the search
        # effort since then sizes the next vivification round.
        self._props_at_inprocess = 0
        self._viv_cursor = 0
        # Where an exception stopped the last add_clauses call.
        self.load_stopped_at = 0
        self._ensure_vars(num_vars)

    # ----- problem construction -------------------------------------------

    def _ensure_vars(self, n: int) -> None:
        k = n - self.num_vars
        if k <= 0:
            return
        first = self.num_vars + 1
        self.num_vars = n
        self._vals.extend([0] * (k + k))
        self._level.extend([0] * k)
        self._reason.extend([-1] * k)
        self._activity.extend([0.0] * k)
        self._phase.extend([False] * k)
        self._seen.extend([0] * k)
        self._eliminated.extend([0] * k)
        self._watches.extend([] for _ in range(k + k))
        self._bins.extend([] for _ in range(k + k))
        self._heap_act.extend([0.0] * k)
        # Appending in order builds the heap k heappushes would: every
        # live key is -activity <= 0.0, and a new variable loses every
        # tie to an older one, so no new entry ever sifts up.
        self._heap.extend([(0.0, v) for v in range(first, n + 1)])

    def new_var(self) -> int:
        self._ensure_vars(self.num_vars + 1)
        return self.num_vars

    @staticmethod
    def _idx(lit: int) -> int:
        return (lit << 1) if lit > 0 else ((-lit) << 1) | 1

    @staticmethod
    def _to_signed(lits: Iterable[int]) -> list[int]:
        """Literal indices back to DIMACS literals (proof/API boundary)."""
        return [-(q >> 1) if q & 1 else (q >> 1) for q in lits]

    def _lit_value(self, lit: int) -> int:
        return self._vals[(lit + lit) if lit > 0 else (1 - lit - lit)]

    def _assert_unit(self, q: int, pid: int) -> bool:
        """Assert unassigned literal ``q`` at the root (proof id ``pid``)
        and propagate; False iff that refutes the formula."""
        self._enqueue(q, -1)
        if self.proof is not None:
            self._units[q >> 1] = pid
        confl = self._propagate()
        if confl >= 0:
            self._refute(confl)
            return False
        return True

    def _derived(self, keep: list[int], hints: Sequence[int]
                 ) -> Optional[tuple[list[int], int]]:
        """Root-normalize and log a derived clause (literal indices).

        None when a literal is true at the root.  Otherwise returns the
        unassigned literals and the proof id of the logged clause (0
        without a proof); the units of dropped false literals are cited
        first.
        """
        vals = self._vals
        if any(vals[q] > 0 for q in keep):
            return None
        live = [q for q in keep if vals[q] == 0]
        pid = 0
        if self.proof is not None:
            if len(live) < len(keep):
                hints = [self._unit_id(q >> 1) for q in keep
                         if vals[q] < 0] + list(hints)
            pid = self.proof.add(self._to_signed(live), hints)
        return live, pid

    # ----- clause arena -----------------------------------------------------

    def _alloc(self, lits: list[int], learnt: bool, lbd: int = 0,
               pid: int = 0) -> int:
        """Append a clause of literal *indices* (proof id ``pid``)."""
        if self.proof is not None:
            self._c_pid.append(pid)
        cid = len(self._c_start)
        self._c_start.append(len(self._ar))
        self._c_size.append(len(lits))
        self._c_learnt.append(1 if learnt else 0)
        self._c_lbd.append(lbd)
        self._c_act.append(0.0)
        self._c_dead.append(0)
        self._ar.extend(lits)
        if learnt:
            self._n_learnt += 1
        else:
            self._n_irr += 1
        return cid

    def _clause_lits(self, cid: int) -> list[int]:
        """A clause's literals as signed DIMACS values (export boundary)."""
        s = self._c_start[cid]
        return self._to_signed(self._ar[s:s + self._c_size[cid]])

    def _clause_idxs(self, cid: int) -> list[int]:
        s = self._c_start[cid]
        return self._ar[s:s + self._c_size[cid]]

    def _attach(self, cid: int) -> None:
        s = self._c_start[cid]
        a = self._ar[s]
        b = self._ar[s + 1]
        if self._c_size[cid] == 2:
            self._bins[a ^ 1].extend((b, cid))
            self._bins[b ^ 1].extend((a, cid))
        else:
            self._watches[a ^ 1].extend((cid, b))
            self._watches[b ^ 1].extend((cid, a))

    def _detach(self, cid: int) -> None:
        s = self._c_start[cid]
        a = self._ar[s]
        b = self._ar[s + 1]
        if self._c_size[cid] == 2:
            self._pair_remove(self._bins[a ^ 1], cid, 1)
            self._pair_remove(self._bins[b ^ 1], cid, 1)
        else:
            self._pair_remove(self._watches[a ^ 1], cid, 0)
            self._pair_remove(self._watches[b ^ 1], cid, 0)

    @staticmethod
    def _pair_remove(flat: list[int], cid: int, slot: int) -> None:
        """Remove the (pair-aligned) entry whose ``slot`` element is cid."""
        for k in range(slot, len(flat), 2):
            if flat[k] == cid:
                base = k - slot
                flat[base] = flat[-2]
                flat[base + 1] = flat[-1]
                del flat[-2:]
                return

    def _kill(self, cid: int) -> None:
        """Mark a clause dead; caller must have detached it already."""
        if self._c_dead[cid]:
            return
        self._c_dead[cid] = 1
        self._free_lits += self._c_size[cid]
        if self._c_learnt[cid]:
            self._n_learnt -= 1
        else:
            self._n_irr -= 1

    def _remove_clause(self, cid: int) -> None:
        """Detach + kill, logging the deletion only for learned clauses.

        Irredundant deletions are deliberately *not* logged, so their
        ids stay citable: reintroduction after variable elimination
        re-attaches them under the same ids.
        """
        if self._c_dead[cid]:
            return
        if self.proof is not None:
            self._retire(cid)
        self._detach(cid)
        self._kill(cid)

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause; returns False if the formula became trivially unsat.

        In the proof it is original number ``n`` when ``n`` clauses
        were given before it.
        """
        pid = ~self._n_orig
        self._n_orig += 1
        return self._add_clause(lits, pid)

    def _add_clause(self, lits: Iterable[int], pid: int) -> bool:
        """:meth:`add_clause` for a clause with proof id ``pid``."""
        if not self._ok:
            return False
        lits = list(lits)
        for lit in lits:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            self._ensure_vars(-lit if lit < 0 else lit)
        if self._elim_stack:
            # A new clause may mention variables a previous inprocessing
            # round eliminated; reintroduce them (in reverse elimination
            # order) before the clause joins the database.
            for lit in lits:
                v = -lit if lit < 0 else lit
                if self._eliminated[v]:
                    self._restore_eliminated(v)
            if not self._ok:
                return False
        clause: list[int] = []
        seen: set[int] = set()
        root = not self._trail_lim
        vals = self._vals
        for lit in lits:
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            # Skip literals already false at level 0; satisfied at level 0
            # makes the clause redundant.
            if root:
                v = vals[(lit + lit) if lit > 0 else (1 - lit - lit)]
                if v > 0:
                    return True
                if v < 0:
                    continue
            seen.add(lit)
            clause.append(lit)
        idxs = [(l + l) if l > 0 else (1 - l - l) for l in clause]
        if self.proof is not None and (root or not lits):
            pid = self._original_id(lits, idxs, pid)
        if not idxs:
            self._ok = False
            return False
        if len(idxs) == 1:
            if not self._enqueue(idxs[0], -1):
                self._refute_unit(idxs[0], pid)
                self._ok = False
                return False
            if self.proof is not None and not self._trail_lim:
                self._units.setdefault(idxs[0] >> 1, pid)
            confl = self._propagate()
            self._ok = confl < 0
            if not self._ok:
                self._refute(confl)
            return self._ok
        cid = self._alloc(idxs, learnt=False, pid=pid)
        self._attach(cid)
        return True

    def add_clauses(self, clauses: Sequence[Sequence[int]],
                    start: int = 0) -> bool:
        """Add ``clauses[start:]``; False once the formula is trivially unsat.

        ``clauses[i]`` is original number ``i`` in the proof.  Leaves
        exactly the state that adding each clause in turn leaves (same
        arena, watches, trail, heap and proof steps, or the same
        exception at the same clause), in one pass with local bindings.
        The budget is polled before clause ``i`` whenever
        ``i & 0xFFF == 0xFFF``.  If an exception escapes,
        :attr:`load_stopped_at` is the index of the clause it stopped
        at (earlier clauses are loaded, later ones are not).  Off the
        root, or once variables were eliminated, it falls back to
        :meth:`add_clause` per clause, which handles reintroduction.
        """
        budget = self.budget
        n = len(clauses)
        i = start
        # Off the root, or with eliminated variables to reintroduce.
        per_clause = bool(self._elim_stack or self._trail_lim or not self._ok)
        vals = self._vals
        ar = self._ar
        c_start = self._c_start
        c_size = self._c_size
        c_learnt = self._c_learnt
        watches = self._watches
        bins = self._bins
        pids = self._c_pid if self.proof is not None else None
        nvals = len(vals)

        def flush() -> None:
            # The constant headers of the clauses appended since the
            # last flush (nothing on the loading path reads them).
            k = len(c_start) - len(c_learnt)
            if k:
                c_learnt.extend([0] * k)
                self._c_lbd.extend([0] * k)
                self._c_act.extend([0.0] * k)
                self._c_dead.extend([0] * k)
                self._n_irr += k

        try:
            while i < n:
                if budget is not None and (i & 0xFFF) == 0xFFF:
                    budget.checkpoint("loading CNF into CDCL")
                if per_clause:
                    if not self._add_clause(clauses[i], ~i):
                        return False
                    i += 1
                    continue
                out: list[int] = []
                skip = False  # tautology, or true at the root
                for lit in clauses[i]:
                    if lit > 0:
                        q = lit + lit
                    elif lit:
                        q = 1 - lit - lit
                    else:
                        raise ValueError("0 is not a valid literal")
                    if q >= nvals:
                        self._ensure_vars(q >> 1)
                        nvals = len(vals)
                    if skip or q in out:
                        continue
                    if q ^ 1 in out:
                        skip = True
                        continue
                    v = vals[q]
                    if v:
                        skip = v > 0
                        continue
                    out.append(q)
                i += 1
                if skip:
                    continue
                k = len(out)
                if k > 1:
                    if pids is not None:
                        pids.append(~(i - 1) if k == len(clauses[i - 1])
                                    else self._original_id(clauses[i - 1],
                                                           out, ~(i - 1)))
                    cid = len(c_start)
                    c_start.append(len(ar))
                    c_size.append(k)
                    ar.extend(out)
                    a = out[0]
                    b = out[1]
                    if k == 2:
                        bins[a ^ 1].extend((b, cid))
                        bins[b ^ 1].extend((a, cid))
                    else:
                        watches[a ^ 1].extend((cid, b))
                        watches[b ^ 1].extend((cid, a))
                    continue
                flush()
                pid = (self._original_id(clauses[i - 1], out, ~(i - 1))
                       if pids is not None else 0)
                # A unit enqueues and propagates at once, as in add_clause.
                if not k or not self._assert_unit(out[0], pid):
                    self._ok = False
                    return False
        except BaseException:
            self.load_stopped_at = i
            raise
        finally:
            flush()
            self._n_orig = i
        return True

    def add_cnf(self, cnf: CNF) -> bool:
        self._ensure_vars(cnf.num_vars)
        return self.add_clauses(cnf.clauses)

    # ----- assignment / propagation ----------------------------------------

    def _enqueue(self, lit: int, reason: int = -1) -> bool:
        """Assign a literal given by *index*; False on contradiction."""
        v = self._vals[lit]
        if v > 0:
            return True
        if v < 0:
            return False
        self._vals[lit] = 1
        self._vals[lit ^ 1] = -1
        u = lit >> 1
        self._level[u] = len(self._trail_lim)
        self._reason[u] = reason
        self._trail.append(lit)
        return True

    def _propagate(self) -> int:
        """Unit propagation; returns the conflicting clause id, or -1."""
        vals = self._vals
        ar = self._ar
        watches = self._watches
        bins = self._bins
        trail = self._trail
        level = self._level
        reason = self._reason
        starts = self._c_start
        sizes = self._c_size
        lvl = len(self._trail_lim)
        qhead = self._qhead
        nprops = 0
        confl = -1
        while qhead < len(trail):
            pi = trail[qhead]
            qhead += 1
            nprops += 1
            false_lit = pi ^ 1

            blist = bins[pi]
            if blist:
                bk = 0
                nb = len(blist)
                while bk < nb:
                    other = blist[bk]
                    ov = vals[other]
                    if ov < 0:
                        confl = blist[bk + 1]
                        break
                    if ov == 0:
                        vals[other] = 1
                        vals[other ^ 1] = -1
                        u = other >> 1
                        level[u] = lvl
                        reason[u] = blist[bk + 1]
                        trail.append(other)
                    bk += 2
                if confl >= 0:
                    break

            wl = watches[pi]
            if not wl:
                continue
            i = 0
            j = 0
            n = len(wl)
            while i < n:
                blocker = wl[i + 1]
                if vals[blocker] > 0:
                    wl[j] = wl[i]
                    wl[j + 1] = blocker
                    j += 2
                    i += 2
                    continue
                cid = wl[i]
                i += 2
                s = starts[cid]
                # Normalize: keep the false literal at arena slot s+1.
                first = ar[s]
                if first == false_lit:
                    first = ar[s + 1]
                    ar[s] = first
                    ar[s + 1] = false_lit
                fv = vals[first]
                if fv > 0:
                    wl[j] = cid
                    wl[j + 1] = first
                    j += 2
                    continue
                # Look for a new literal to watch.
                end = s + sizes[cid]
                k = s + 2
                q = 0
                while k < end:
                    q = ar[k]
                    if vals[q] >= 0:
                        break
                    k += 1
                if k < end:
                    ar[s + 1] = q
                    ar[k] = false_lit
                    nwl = watches[q ^ 1]
                    nwl.append(cid)
                    nwl.append(first)
                    continue
                # Clause is unit or conflicting.
                wl[j] = cid
                wl[j + 1] = first
                j += 2
                if fv < 0:
                    # Conflict: keep remaining watches, restore, report.
                    while i < n:
                        wl[j] = wl[i]
                        wl[j + 1] = wl[i + 1]
                        j += 2
                        i += 2
                    confl = cid
                    break
                vals[first] = 1
                vals[first ^ 1] = -1
                u = first >> 1
                level[u] = lvl
                reason[u] = cid
                trail.append(first)
            del wl[j:]
            if confl >= 0:
                break
        self._qhead = len(trail) if confl >= 0 else qhead
        self.stats.propagations += nprops
        return confl

    # ----- activities -------------------------------------------------------

    def _rescale_var_act(self) -> None:
        act = self._activity
        for u in range(1, self.num_vars + 1):
            act[u] *= 1e-100
        self._var_inc *= 1e-100
        # Heap priorities are pre-rescale snapshots; rebuild so the old
        # generation cannot outrank (or shadow) post-rescale pushes.
        self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        vals = self._vals
        eliminated = self._eliminated
        act = self._activity
        heap_act = self._heap_act
        heap: list[tuple[float, int]] = []
        for u in range(1, self.num_vars + 1):
            if vals[u + u] == 0 and not eliminated[u]:
                a = act[u]
                heap.append((-a, u))
                heap_act[u] = a
            else:
                heap_act[u] = -1.0
        heapq.heapify(heap)
        self._heap = heap

    def _rescale_clause_act(self) -> None:
        ca = self._c_act
        learnt = self._c_learnt
        for i in range(len(ca)):
            if learnt[i]:
                ca[i] *= 1e-20
        self._cla_inc *= 1e-20

    # ----- conflict analysis -------------------------------------------------

    def _analyze(self, confl: int) -> tuple[list[int], int, int]:
        """First-UIP analysis; returns (learnt clause, backtrack level, LBD).

        The learnt clause is in literal-index form with the asserting
        literal first.
        """
        learnt: list[int] = [0]  # placeholder for the asserting literal
        seen = self._seen
        level = self._level
        trail = self._trail
        ar = self._ar
        starts = self._c_start
        sizes = self._c_size
        reason = self._reason
        activity = self._activity
        cla_act = self._c_act
        cla_learnt = self._c_learnt
        cleanup: list[int] = []
        counter = 0
        lit = 0
        cid = confl
        index = len(trail) - 1
        cur_level = len(self._trail_lim)
        var_inc = self._var_inc
        cla_inc = self._cla_inc

        while True:
            if cla_learnt[cid]:
                a = cla_act[cid] + cla_inc
                cla_act[cid] = a
                if a > 1e20:
                    self._rescale_clause_act()
                    cla_inc = self._cla_inc
            s = starts[cid]
            for k in range(s, s + sizes[cid]):
                q = ar[k]
                if q == lit:
                    continue
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    cleanup.append(v)
                    act = activity[v] + var_inc
                    activity[v] = act
                    if act > 1e100:
                        self._rescale_var_act()
                        var_inc = self._var_inc
                    if level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            # Find next literal to expand on the trail.
            q = trail[index]
            while not seen[q >> 1]:
                index -= 1
                q = trail[index]
            lit = q
            index -= 1
            v = lit >> 1
            seen[v] = 0
            counter -= 1
            if counter == 0:
                learnt[0] = lit ^ 1
                break
            cid = reason[v]

        if self.config.use_minimization and len(learnt) > 1:
            learnt = self._minimize(learnt)
        for v in cleanup:
            seen[v] = 0

        # Compute backtrack level: max level among non-asserting literals.
        if len(learnt) == 1:
            bt_level = 0
        else:
            max_i = 1
            lv_max = level[learnt[1] >> 1]
            for i in range(2, len(learnt)):
                lv = level[learnt[i] >> 1]
                if lv > lv_max:
                    max_i = i
                    lv_max = lv
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            bt_level = lv_max
        lbd = len({level[q >> 1] for q in learnt})
        return learnt, bt_level, lbd

    def _minimize(self, learnt: list[int]) -> list[int]:
        """Local clause minimization (self-subsumption with reasons)."""
        # Re-mark learnt literals (analysis unmarked expanded ones).
        seen = self._seen
        level = self._level
        reason = self._reason
        ar = self._ar
        starts = self._c_start
        sizes = self._c_size
        for q in learnt:
            seen[q >> 1] = 1
        out = [learnt[0]]
        removed = 0
        for q in learnt[1:]:
            v = q >> 1
            r = reason[v]
            if r < 0:
                out.append(q)
                continue
            redundant = True
            s = starts[r]
            for k in range(s, s + sizes[r]):
                p = ar[k]
                u = p >> 1
                if p != q ^ 1 and not seen[u] and level[u] > 0:
                    redundant = False
                    break
            if redundant:
                removed += 1
            else:
                out.append(q)
        self.stats.minimized_lits += removed
        return out

    def _backtrack(self, level_to: int) -> None:
        if len(self._trail_lim) <= level_to:
            return
        limit = self._trail_lim[level_to]
        vals = self._vals
        trail = self._trail
        phase = self._phase
        heap = self._heap
        heap_act = self._heap_act
        activity = self._activity
        reason = self._reason
        push = heapq.heappush
        saving = self.config.use_phase_saving
        for k in range(len(trail) - 1, limit - 1, -1):
            lit = trail[k]
            v = lit >> 1
            if saving:
                phase[v] = not lit & 1
            vals[lit] = 0
            vals[lit ^ 1] = 0
            reason[v] = -1
            a = activity[v]
            if a > heap_act[v]:
                heap_act[v] = a
                push(heap, (-a, v))
        del trail[limit:]
        del self._trail_lim[level_to:]
        self._qhead = limit

    # ----- decisions ----------------------------------------------------------

    def _decide(self) -> Optional[int]:
        vals = self._vals
        eliminated = self._eliminated
        if self.config.use_vsids:
            heap = self._heap
            heap_act = self._heap_act
            v = 0
            while heap:
                neg_act, u = heapq.heappop(heap)
                if -neg_act != heap_act[u]:
                    continue  # stale duplicate; a fresher entry served
                heap_act[u] = -1.0
                if vals[u + u] != 0 or eliminated[u]:
                    continue
                v = u
                break
            if v == 0:
                # Defensive completeness: variables reintroduced after
                # elimination may have no live entry; refill and retry.
                self._rebuild_heap()
                heap = self._heap
                while heap:
                    neg_act, u = heapq.heappop(heap)
                    heap_act[u] = -1.0
                    if vals[u + u] == 0 and not eliminated[u]:
                        v = u
                        break
                if v == 0:
                    return None
        else:
            v = 0
            for u in range(1, self.num_vars + 1):
                if vals[u + u] == 0 and not eliminated[u]:
                    v = u
                    break
            if v == 0:
                return None
        return (v + v) if self._phase[v] else (v + v + 1)

    # ----- learned clause DB ----------------------------------------------------

    def _reduce_db(self) -> None:
        """LBD-based reduction: drop the worse half of deletable learnts.

        Learned clauses with LBD <= ``lbd_keep`` (glue clauses), binary
        clauses, and clauses locked as reasons on the current trail are
        never deleted.  Triggered on a conflict schedule (``reduce_base``
        then +``reduce_inc`` per round), glucose style.
        """
        self._conflicts_at_reduce = self.stats.conflicts
        self._reduce_fuel += self.config.reduce_inc
        keep_lbd = self.config.lbd_keep
        ar = self._ar
        starts = self._c_start
        reason = self._reason
        c_lbd = self._c_lbd
        c_act = self._c_act
        cand = []
        for cid in range(len(starts)):
            if not self._c_learnt[cid] or self._c_dead[cid]:
                continue
            if self._c_size[cid] <= 2 or c_lbd[cid] <= keep_lbd:
                continue
            w0 = ar[starts[cid]]
            if reason[w0 >> 1] == cid:
                continue  # locked: reason for an assignment on the trail
            cand.append(cid)
        if cand:
            # Worst first: highest LBD, then lowest activity.
            cand.sort(key=lambda c: (-c_lbd[c], c_act[c]))
            proof = self.proof
            removed = 0
            for cid in cand[:len(cand) // 2]:
                if proof is not None:
                    proof.delete(self._c_pid[cid])
                self._detach(cid)
                self._kill(cid)
                removed += 1
            self.stats.deleted += removed
        if self._free_lits * 2 > len(ar):
            self._gc()

    def _gc(self) -> None:
        """Compact the arena: drop dead clauses, remap ids, rebuild watches."""
        old_ar = self._ar
        old_start = self._c_start
        old_size = self._c_size
        old_learnt = self._c_learnt
        old_lbd = self._c_lbd
        old_act = self._c_act
        old_dead = self._c_dead
        n_old = len(old_start)
        remap = [-1] * n_old
        new_ar: list[int] = []
        ns: list[int] = []
        nz: list[int] = []
        nl: list[int] = []
        nb: list[int] = []
        na: list[float] = []
        for cid in range(n_old):
            if old_dead[cid]:
                continue
            remap[cid] = len(ns)
            s = old_start[cid]
            sz = old_size[cid]
            ns.append(len(new_ar))
            new_ar.extend(old_ar[s:s + sz])
            nz.append(sz)
            nl.append(old_learnt[cid])
            nb.append(old_lbd[cid])
            na.append(old_act[cid])
        self._ar = new_ar
        self._c_start = ns
        self._c_size = nz
        self._c_learnt = nl
        self._c_lbd = nb
        self._c_act = na
        self._c_dead = [0] * len(ns)
        if self.proof is not None:
            pids = self._c_pid
            self._c_pid = [pids[c] for c in range(n_old) if remap[c] >= 0]
        self._free_lits = 0
        reason = self._reason
        for lit in self._trail:
            v = lit >> 1
            r = reason[v]
            if r >= 0:
                # A dead reason can only belong to a level-0 assignment
                # (inprocessing removes clauses at the root only); its
                # reason is never consulted, so -1 is safe.
                reason[v] = remap[r]
        nslots = 2 * self.num_vars + 2
        self._watches = [[] for _ in range(nslots)]
        self._bins = [[] for _ in range(nslots)]
        for cid in range(len(ns)):
            self._attach(cid)

    # ----- incremental interface -------------------------------------------------

    def backtrack_to_root(self) -> None:
        """Undo all decisions, keeping root-level assignments and learnts.

        Incremental callers must be at the root level before adding
        clauses between :meth:`solve` calls — :meth:`add_clause`'s
        level-0 simplification and unit handling assume it.
        """
        self._backtrack(0)

    # ----- checkpoint / resume ---------------------------------------------

    def checkpoint_state(self) -> dict:
        """Serialize everything a future solver needs to resume this search.

        Captured at the root level: the learned-clause database (with
        activities), root-level derived units, VSIDS activities and
        their increment, saved phases, and the Luby restart position.
        The dict is JSON-serializable; :mod:`repro.persist.checkpoint`
        wraps it in a checksummed on-disk envelope.  The original CNF
        is *not* included — learned clauses are only sound relative to
        the formula they were derived from, so the persistence layer
        keys checkpoints by a CNF fingerprint.

        The format is representation independent (clause literal lists,
        not arena offsets), so checkpoints interoperate across solver
        generations.  Clauses derived by inprocessing are all implied
        by the original CNF, which keeps restored learnts sound even
        though elimination state itself is not serialized.
        """
        self._backtrack(0)
        learnts = []
        for cid in range(len(self._c_start)):
            if self._c_learnt[cid] and not self._c_dead[cid]:
                learnts.append({
                    "lits": self._clause_lits(cid),
                    "act": self._c_act[cid],
                })
        return {
            "format": 1,
            "num_vars": self.num_vars,
            "ok": self._ok,
            "root_units": self._to_signed(self._trail),
            "learnts": learnts,
            "activity": list(self._activity[1:]),
            "phase": [1 if p else 0 for p in self._phase[1:]],
            "var_inc": self._var_inc,
            "cla_inc": self._cla_inc,
            "restarts": self._restart_count,
        }

    def restore_state(self, state: dict) -> int:
        """Re-install a :meth:`checkpoint_state` dict; returns learnts kept.

        Call after loading the *same* CNF the checkpoint was taken
        from (the persistence layer enforces this via fingerprinted
        keys; this method only sanity-checks the variable count).
        Restored learned clauses are re-filtered against the current
        root-level assignment, so restoring is safe even if level-0
        propagation ordered differently.  Raises :class:`ValueError`
        on a structural mismatch and refuses proof-logging solvers —
        a proof log cannot certify clauses whose derivations happened
        in a previous process.
        """
        if self.proof is not None:
            raise ValueError(
                "cannot restore a checkpoint into a proof-logging solver"
            )
        if int(state.get("format", 0)) != 1:
            raise ValueError("unsupported checkpoint format")
        if int(state["num_vars"]) != self.num_vars:
            raise ValueError(
                f"checkpoint has {state['num_vars']} vars,"
                f" solver has {self.num_vars}"
            )
        self._backtrack(0)
        if not state.get("ok", True):
            self._ok = False
            return 0
        restored = 0
        for lit in state.get("root_units", ()):
            if not self.add_clause([int(lit)]):
                return restored  # checkpointed root units refute the CNF
        for item in state.get("learnts", ()):
            lits = [int(l) for l in item["lits"]]
            keep: list[int] = []
            satisfied = False
            for lit in lits:
                val = self._lit_value(lit)
                if val == 1:
                    satisfied = True  # already true at root: redundant
                    break
                if val == 0:
                    keep.append(lit)
            if satisfied:
                continue
            if not keep:
                self._ok = False
                return restored
            if len(keep) == 1:
                if not self.add_clause(keep):
                    return restored
                restored += 1
                continue
            cid = self._alloc(
                [(l + l) if l > 0 else (1 - l - l) for l in keep],
                learnt=True, lbd=len(keep))
            self._c_act[cid] = float(item.get("act", 0.0))
            self._attach(cid)
            restored += 1
        if self._propagate() >= 0:
            self._ok = False
        activity = state.get("activity", ())
        for v, act in enumerate(activity, start=1):
            if v <= self.num_vars:
                self._activity[v] = float(act)
        phase = state.get("phase", ())
        for v, ph in enumerate(phase, start=1):
            if v <= self.num_vars:
                self._phase[v] = bool(ph)
        self._var_inc = float(state.get("var_inc", 1.0))
        self._cla_inc = float(state.get("cla_inc", 1.0))
        self._restart_resume = int(state.get("restarts", 0))
        # Rebuild the decision heap so restored activities take effect.
        self._rebuild_heap()
        self.restored_learnts = restored
        if METRICS.enabled and restored:
            METRICS.counter_inc(
                "repro_checkpoint_learnts_restored_total", restored)
        return restored

    # ----- main search -----------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = (),
              budget: Optional["Budget"] = None) -> SatResult:
        """Search for a model, optionally under assumption literals.

        With a ``budget``, the search loop polls it at every conflict
        (and periodically between decisions) and answers UNKNOWN with
        :attr:`exhaust_report` populated when it runs out — cooperative
        cancellation, so no formula can hang the caller.

        :attr:`stats` keeps accumulating across calls (lifetime view);
        :attr:`last_stats` holds just this call's delta, which is what
        per-query reporting must use on incremental sessions.
        """
        before = self.stats.snapshot()
        inprocess_before = self.inprocess_s
        # An UNSAT-under-assumptions answer leaves the assumption trail
        # in place; without a snapshot the *next* solve's backtrack(0)
        # would phase-save those assumption-forced values and bias its
        # search.  SAT answers keep their trail (model()) and their
        # phases (deliberate phase persistence across checks).
        phase_snapshot = list(self._phase) if assumptions else None
        result: Optional[SatResult] = None
        try:
            result = self._search(assumptions, budget)
            return result
        finally:
            if phase_snapshot is not None and result is SatResult.UNSAT:
                saving = self.config.use_phase_saving
                self.config.use_phase_saving = False
                try:
                    self._backtrack(0)
                finally:
                    self.config.use_phase_saving = saving
                phase_snapshot.extend(self._phase[len(phase_snapshot):])
                self._phase = phase_snapshot
            self.last_stats = self.stats.diff(before)
            self.last_inprocess_s = self.inprocess_s - inprocess_before
            if METRICS.enabled:
                proc = METRICS.proc
                # One family per SatStats field: the unified schema in
                # repro.smt.stats is also the metrics naming scheme.
                for name, value in self.last_stats.as_dict().items():
                    METRICS.counter_inc(
                        f"repro_cdcl_{name}_total", value, proc=proc)
                METRICS.counter_inc("repro_cdcl_solves_total", 1, proc=proc)

    def _search(self, assumptions: Sequence[int],
                budget: Optional["Budget"]) -> SatResult:
        if budget is None:
            budget = self.budget
        self.exhaust_report = None
        self._conflict_assumptions = []
        # The per-call conflict cap is a *delta* from this call's start,
        # so a reused (incremental) solver gets a fresh slice each call.
        conflicts_at_start = self.stats.conflicts
        self._backtrack(0)
        if self._elim_stack:
            # Assumptions may mention variables a previous round
            # eliminated; reintroduce them before searching under them.
            for a in assumptions:
                v = -a if a < 0 else a
                if v <= self.num_vars and self._eliminated[v]:
                    self._restore_eliminated(v)
        if not self._ok:
            return SatResult.UNSAT
        confl = self._propagate()
        if confl >= 0:
            self._refute(confl)
            self._ok = False
            return SatResult.UNSAT
        for a in assumptions:
            self._ensure_vars(-a if a < 0 else a)
        config = self.config
        frozen: Optional[set] = None
        decisions_since_check = 0
        # Progress beacon: resolved once per solve so a disabled beacon
        # costs nothing inside the loop; enabled, one int compare per
        # conflict plus a sample dict every `interval` conflicts.
        beacon = BEACON if BEACON.enabled else None
        beacon_next = 0
        beacon_mark = (0.0, 0, 0)
        if beacon is not None:
            beacon_next = self.stats.conflicts + beacon.interval
            beacon_mark = (time.perf_counter(), self.stats.conflicts,
                           self.stats.propagations)

        self._restart_count = self._restart_resume
        if config.use_restarts:
            conflicts_until_restart = (
                config.restart_base * _luby(self._restart_count + 1))
        elif config.use_inprocessing and not self.stats.inprocessings:
            # Without restarts the first round still runs once, at the
            # root, where the first restart would have been.
            conflicts_until_restart = config.restart_base
        else:
            conflicts_until_restart = -1
        conflicts_since_restart = 0

        while True:
            conflict = self._propagate()
            if conflict >= 0:
                self.stats.conflicts += 1
                conflicts_since_restart += 1
                if budget is not None:
                    budget.charge_conflicts(1)
                if not self._trail_lim:
                    self._refute(conflict)
                    self._ok = False
                    return SatResult.UNSAT
                learnt, bt_level, lbd = self._analyze(conflict)
                pid = 0
                if self.proof is not None:
                    pid = self.proof.add(
                        self._to_signed(learnt),
                        self._hints([q >> 1 for q in learnt], conflict))
                self._backtrack(bt_level)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], -1)
                    if pid:
                        self._units[learnt[0] >> 1] = pid
                else:
                    cid = self._alloc(learnt, learnt=True, lbd=lbd, pid=pid)
                    self._attach(cid)
                    self._c_act[cid] = self._cla_inc
                    self.stats.learned += 1
                    if budget is not None:
                        budget.charge_learned(1)
                    self._enqueue(learnt[0], cid)
                self._var_inc /= config.var_decay
                self._cla_inc /= config.clause_decay
                if budget is not None:
                    reason = budget.exhausted()
                    if reason is not None:
                        self.exhaust_report = budget.report(
                            reason, "CDCL search (conflict safepoint)"
                        )
                        return SatResult.UNKNOWN
                if (
                    config.max_conflicts is not None
                    and self.stats.conflicts - conflicts_at_start
                    >= config.max_conflicts
                ):
                    return SatResult.UNKNOWN
                if beacon is not None and self.stats.conflicts >= beacon_next:
                    beacon_next = self.stats.conflicts + beacon.interval
                    beacon_mark = self._emit_progress(beacon, beacon_mark)
                continue

            if 0 <= conflicts_until_restart <= conflicts_since_restart:
                conflicts_since_restart = 0
                if config.use_restarts:
                    self._restart_count += 1
                    self.stats.restarts += 1
                    conflicts_until_restart = config.restart_base * _luby(
                        self._restart_count + 1
                    )
                else:
                    conflicts_until_restart = -1
                self._backtrack(0)
                # The first round runs at the first restart, in place:
                # a solve that settles before it never pays for one.
                if config.use_inprocessing and (
                    not self.stats.inprocessings
                    or self.stats.conflicts - self._conflicts_at_inprocess
                    >= config.inprocess_interval
                ):
                    if frozen is None:
                        frozen = {-a if a < 0 else a for a in assumptions}
                    if not self._inprocess(frozen, budget):
                        return SatResult.UNSAT
                continue

            if (
                self._n_learnt
                and self.stats.conflicts - self._conflicts_at_reduce
                >= self._reduce_fuel
            ):
                self._reduce_db()

            # Place assumptions as pseudo-decisions before real decisions.
            next_lit: Optional[int] = None
            decision_level = len(self._trail_lim)
            if decision_level < len(assumptions):
                a = assumptions[decision_level]
                val = self._lit_value(a)
                if val == 1:
                    self._trail_lim.append(len(self._trail))
                    continue
                if val == -1:
                    self._conflict_assumptions = self._analyze_final(
                        a, assumptions)
                    if self.proof is not None:
                        self._log_core(a)
                    return SatResult.UNSAT
                next_lit = (a + a) if a > 0 else (1 - a - a)
            else:
                next_lit = self._decide()
                if next_lit is None:
                    return SatResult.SAT
                self.stats.decisions += 1
                # Deadline safepoint for conflict-free stretches of search.
                decisions_since_check += 1
                if budget is not None and decisions_since_check >= 256:
                    decisions_since_check = 0
                    reason = budget.exhausted()
                    if reason is not None:
                        self.exhaust_report = budget.report(
                            reason, "CDCL search (decision safepoint)"
                        )
                        return SatResult.UNKNOWN
            self._trail_lim.append(len(self._trail))
            self._enqueue(next_lit, -1)

    def _emit_progress(self, beacon, mark) -> tuple:
        """Emit one live-progress sample; returns the new rate mark.

        Rates are computed against the previous emission (or solve
        start), so a sample says what the solver is doing *now*, not a
        lifetime average.
        """
        t0, c0, p0 = mark
        now = time.perf_counter()
        dt = now - t0
        stats = self.stats
        beacon.emit({
            "conflicts": stats.conflicts,
            "decisions": stats.decisions,
            "propagations": stats.propagations,
            "restarts": stats.restarts,
            "learnt": self._n_learnt,
            "trail": len(self._trail),
            "num_vars": self.num_vars,
            "conflicts_per_s": round((stats.conflicts - c0) / dt, 1)
            if dt > 0 else 0.0,
            "props_per_s": round((stats.propagations - p0) / dt, 1)
            if dt > 0 else 0.0,
        })
        return (now, stats.conflicts, stats.propagations)

    def _analyze_final(self, failed: int,
                       assumptions: Sequence[int]) -> list[int]:
        """Compute the subset of assumptions implying ``-failed`` (unsat core)."""
        assumption_set = set(assumptions)
        core = {failed}
        seen = [False] * (self.num_vars + 1)
        seen[abs(failed)] = True
        ar = self._ar
        starts = self._c_start
        sizes = self._c_size
        level = self._level
        for lit in reversed(self._trail):
            v = lit >> 1
            if not seen[v]:
                continue
            r = self._reason[v]
            if r < 0:
                signed = -v if lit & 1 else v
                if signed in assumption_set:
                    core.add(signed)
            else:
                s = starts[r]
                for k in range(s, s + sizes[r]):
                    u = ar[k] >> 1
                    if level[u] > 0:
                        seen[u] = True
        return sorted(core, key=abs)

    def unsat_assumptions(self) -> list[int]:
        """Assumption literals involved in the last UNSAT answer."""
        return list(self._conflict_assumptions)

    def model(self) -> list[bool]:
        """The satisfying assignment (1-indexed; index 0 is unused).

        Variables removed by bounded elimination are re-valued here by
        replaying the elimination stack in reverse: each variable gets
        whichever polarity satisfies all of its removed clauses (the
        resolvent closure guarantees one always exists).
        """
        vals = self._vals
        out = [False] * (self.num_vars + 1)
        for v in range(1, self.num_vars + 1):
            out[v] = vals[v + v] > 0
        for v, saved in reversed(self._elim_stack):
            forced = None
            for lits in saved:
                vlit = 0
                satisfied = False
                for l in lits:
                    u = l if l > 0 else -l
                    if u == v:
                        vlit = l
                        continue
                    if (l > 0) == out[u]:
                        satisfied = True
                        break
                if not satisfied:
                    forced = vlit > 0
                    break
            if forced is not None:
                out[v] = forced
        return out

    # ----- inprocessing -----------------------------------------------------

    def _inprocess(self, frozen: set, budget: Optional["Budget"]) -> bool:
        """One inprocessing round at the root level; False iff now UNSAT.

        Schedule: strengthen against the root assignment, then
        subsumption/self-subsumption, then vivification, then bounded
        variable elimination, then arena compaction.  Every derived
        clause is RUP at the moment it is logged, and irredundant
        deletions are never logged, so ``--certify`` replay still works.
        """
        started = time.perf_counter()
        self.stats.inprocessings += 1
        self._conflicts_at_inprocess = self.stats.conflicts
        searched = self.stats.propagations - self._props_at_inprocess
        config = self.config
        ok = self._simplify_root()
        if ok and config.use_subsume:
            ok = self._subsume(budget)
        if ok and config.use_vivify:
            ticks = min(config.vivify_ticks,
                        max(VIVIFY_FLOOR, int(VIVIFY_EFFORT * searched)))
            ok = self._vivify(budget, ticks)
        if ok and config.use_elim:
            ok = self._eliminate(frozen, budget)
        if ok:
            self._gc()
        else:
            self._ok = False
        self._conflicts_at_inprocess = self.stats.conflicts
        self._props_at_inprocess = self.stats.propagations
        self.inprocess_s += time.perf_counter() - started
        return ok

    def _simplify_root(self) -> bool:
        """Remove satisfied clauses and false literals vs the root trail."""
        vals = self._vals
        ar = self._ar
        for cid in range(len(self._c_start)):
            if self._c_dead[cid]:
                continue
            s = self._c_start[cid]
            end = s + self._c_size[cid]
            satisfied = False
            has_false = False
            for k in range(s, end):
                v = vals[ar[k]]
                if v > 0:
                    satisfied = True
                    break
                if v < 0:
                    has_false = True
            if satisfied:
                self._remove_clause(cid)
                continue
            if not has_false:
                continue
            hints = ((self._cite(self._c_pid[cid]),)
                     if self.proof is not None else ())
            if not self._replace_clause(cid, ar[s:end], hints):
                return False
        return True

    def _replace_clause(self, cid: int, keep: list[int],
                        hints: Sequence[int]) -> bool:
        """Swap a live clause for a strengthened version; False iff UNSAT.

        ``keep`` is in literal-index form, derived with ``hints``.  The
        strengthened clause is logged before the original is retired;
        the unit and empty cases are handled, and the learnt flag/LBD
        preserved.
        """
        # Units derived earlier in the same pass may already decide some
        # of ``keep`` at the root; normalize so the watch invariant holds
        # at attach time.
        got = self._derived(keep, hints)
        if got is None:
            self._remove_clause(cid)
            return True  # satisfied at the root forever
        keep, pid = got
        if not keep:
            return False
        if len(keep) == 1:
            self._remove_clause(cid)
            return self._assert_unit(keep[0], pid)
        learnt = bool(self._c_learnt[cid])
        lbd = min(self._c_lbd[cid], len(keep)) if learnt else 0
        act = self._c_act[cid]
        new_cid = self._alloc(keep, learnt=learnt, lbd=lbd, pid=pid)
        self._c_act[new_cid] = act
        self._attach(new_cid)
        self._remove_clause(cid)
        self.stats.strengthened += 1
        return True

    def _build_occ(self, include_learnt: bool = True):
        """Occurrence lists + var-based signatures over live clauses."""
        occ: list[list[int]] = [[] for _ in range(2 * self.num_vars + 2)]
        sig: list[int] = [0] * len(self._c_start)
        ar = self._ar
        for cid in range(len(self._c_start)):
            if self._c_dead[cid]:
                continue
            if not include_learnt and self._c_learnt[cid]:
                continue
            s = self._c_start[cid]
            m = 0
            for k in range(s, s + self._c_size[cid]):
                q = ar[k]
                occ[q].append(cid)
                m |= 1 << ((q >> 1) & 63)
            sig[cid] = m
        return occ, sig

    def _subsume(self, budget: Optional["Budget"]) -> bool:
        """Backward subsumption and self-subsuming resolution.

        For each clause C (smallest first) find clauses D ⊇ C via the
        occurrence list of C's rarest literal: D is removed (subsumed),
        or strengthened when C∖{l} ⊆ D and ¬l ∈ D (self-subsumption).
        Var-based signatures prune most candidate pairs in O(1).
        """
        occ, sig = self._build_occ()
        ar = self._ar
        starts = self._c_start
        sizes = self._c_size
        dead = self._c_dead
        # Literal-indexed membership marks for the current subsumer C:
        # bytearray indexing beats a dict in the candidate scan below,
        # which visits every literal of every candidate clause.
        mark = bytearray(2 * self.num_vars + 2)
        queue = [cid for cid in range(len(starts)) if not dead[cid]]
        queue.sort(key=lambda c: sizes[c])
        qi = 0
        steps = 0
        while qi < len(queue):
            cid = queue[qi]
            qi += 1
            if dead[cid]:
                continue
            s = starts[cid]
            size_c = sizes[cid]
            if size_c > 20:
                continue  # long clauses almost never subsume anything
            steps += 1
            if budget is not None and (steps & 0x3FF) == 0x3FF:
                if budget.exhausted() is not None:
                    return True
            lits_c = ar[s:s + size_c]
            # Rarest literal = shortest candidate list (count both
            # polarities so flipped-pivot self-subsumption is found).
            best = None
            best_len = -1
            for q in lits_c:
                ln = len(occ[q]) + len(occ[q ^ 1])
                if best is None or ln < best_len:
                    best = q
                    best_len = ln
            for q in lits_c:
                mark[q] = 1
            sig_c = sig[cid]
            for cand_list in (occ[best], occ[best ^ 1]):
                for did in cand_list:
                    if did == cid or dead[did] or dead[cid]:
                        continue
                    dsz = sizes[did]
                    if dsz < size_c:
                        continue
                    if sig_c & ~sig[did]:
                        continue
                    same = 0
                    negged = 0
                    neg_count = 0
                    ds = starts[did]
                    for q in ar[ds:ds + dsz]:
                        if mark[q]:
                            same += 1
                        elif mark[q ^ 1]:
                            neg_count += 1
                            negged = q
                    if same == size_c:
                        # C subsumes D: retire D; if D was irredundant
                        # the subsumer must stay, so promote learnt C.
                        if not self._c_dead[did]:
                            if not self._c_learnt[did] and self._c_learnt[cid]:
                                self._c_learnt[cid] = 0
                                self._n_learnt -= 1
                                self._n_irr += 1
                            self._remove_clause(did)
                            self.stats.subsumed += 1
                    elif same == size_c - 1 and neg_count == 1:
                        # Self-subsumption: strengthen D by dropping
                        # `negged` (the resolvent of C and D).
                        keep = [ar[k]
                                for k in range(ds, ds + sizes[did])
                                if ar[k] != negged]
                        old_did = did
                        new_cid = len(starts)
                        hints = ((self._cite(self._c_pid[cid]),
                                  self._cite(self._c_pid[did]))
                                 if self.proof is not None else ())
                        if not self._replace_clause(old_did, keep, hints):
                            return False
                        # _replace_clause may not allocate (strengthened
                        # to a unit, or normalized away against the root
                        # assignment): index the new clause only if it
                        # actually landed at new_cid.
                        if len(starts) > new_cid and not dead[new_cid]:
                            # Index the strengthened clause so it can
                            # subsume (and be subsumed) in this pass.
                            m = 0
                            ns2 = starts[new_cid]
                            for k in range(ns2, ns2 + sizes[new_cid]):
                                q = ar[k]
                                occ[q].append(new_cid)
                                m |= 1 << ((q >> 1) & 63)
                            while len(sig) <= new_cid:
                                sig.append(0)
                            sig[new_cid] = m
                            queue.append(new_cid)
            for q in lits_c:
                mark[q] = 0
        return True

    def _vivify(self, budget: Optional["Budget"], ticks: int) -> bool:
        """Clause vivification: shorten clauses via trial propagation.

        For clause C = (l1 ∨ ... ∨ ln), assume ¬l1, ¬l2, ... in turn
        (with C itself detached).  If propagation falsifies some li the
        literal is redundant; if it satisfies li or conflicts, the
        clause shrinks to the assumed prefix.  ¬ln is never assumed: a
        conflict there could only give back all of C.  A round stops
        once it has spent ``ticks`` propagations (checked between
        clauses), and the next one resumes round-robin.
        """
        config = self.config
        saving = config.use_phase_saving
        config.use_phase_saving = False  # trial decisions must not bias phases
        start_props = self.stats.propagations
        try:
            n = len(self._c_start)
            if not n:
                return True
            cursor = self._viv_cursor % n
            vals = self._vals
            for _ in range(n):
                cid = cursor
                cursor = (cursor + 1) % n
                if self.stats.propagations - start_props > ticks:
                    break
                if budget is not None and budget.exhausted() is not None:
                    break
                if self._c_dead[cid] or self._c_size[cid] < 3:
                    continue
                lits = self._clause_idxs(cid)
                if any(vals[q] > 0 for q in lits):
                    self._remove_clause(cid)  # satisfied at the root
                    continue
                self._detach(cid)
                assumed: list[int] = []
                shrunk = False
                confl = -1
                last = lits[-1]
                for l in lits:
                    v = vals[l]
                    if v > 0:
                        # Earlier assumptions imply l: C' = prefix + l.
                        assumed.append(l)
                        shrunk = True
                        break
                    if v < 0:
                        # Earlier assumptions imply ¬l: l is redundant.
                        shrunk = True
                        continue
                    assumed.append(l)
                    if l == last:
                        break
                    self._trail_lim.append(len(self._trail))
                    self._enqueue(l ^ 1, -1)
                    confl = self._propagate()
                    if confl >= 0:
                        # Prefix already contradictory: C' = prefix.
                        shrunk = True
                        break
                shrunk = shrunk and len(assumed) < len(lits)
                hints = ()
                if shrunk and self.proof is not None:
                    # The trail under -C' falsifies the conflict, the
                    # reason of a literal it implied, or C itself.
                    if confl < 0:
                        q = assumed[-1]
                        confl = self._reason[q >> 1] if vals[q] > 0 else cid
                    hints = self._hints([q >> 1 for q in assumed], confl)
                self._backtrack(0)
                if shrunk:
                    self.stats.vivified_lits += len(lits) - len(assumed)
                    if not self._replace_clause_detached(cid, assumed, hints):
                        return False
                else:
                    self._attach(cid)
            self._viv_cursor = cursor
            return True
        finally:
            config.use_phase_saving = saving
            self.stats.vivify_propagations += (
                self.stats.propagations - start_props)

    def _replace_clause_detached(self, cid: int, keep: list[int],
                                 hints: Sequence[int]) -> bool:
        """Like :meth:`_replace_clause` for an already-detached original."""
        # Same root-normalization as _replace_clause: never attach a
        # clause whose watched literals may already be false at level 0.
        got = self._derived(keep, hints)
        if self.proof is not None:
            self._retire(cid)
        self._kill(cid)
        if got is None:
            return True  # satisfied at the root forever
        keep, pid = got
        if not keep:
            return False
        if len(keep) == 1:
            return self._assert_unit(keep[0], pid)
        learnt = bool(self._c_learnt[cid])
        lbd = min(self._c_lbd[cid], len(keep)) if learnt else 0
        new_cid = self._alloc(keep, learnt=learnt, lbd=lbd, pid=pid)
        self._c_act[new_cid] = self._c_act[cid]
        self._attach(new_cid)
        return True

    def _eliminate(self, frozen: set, budget: Optional["Budget"]) -> bool:
        """SatELite-style bounded variable elimination at the root.

        A variable v qualifies when unassigned, not assumed (frozen),
        and cheap: both polarities occur at most ``elim_occ_limit``
        times among irredundant clauses, and the non-tautological
        resolvent count does not grow the database by more than
        ``elim_growth``.  Each resolvent is logged as derived from its
        two parents; the originals move to the elimination stack for
        model extension and reintroduction.
        """
        config = self.config
        proof = self.proof
        c_pid = self._c_pid
        occ, _sig = self._build_occ()
        ar = self._ar
        starts = self._c_start
        sizes = self._c_size
        dead = self._c_dead
        learnt = self._c_learnt
        vals = self._vals
        limit = config.elim_occ_limit
        candidates = [
            v for v in range(1, self.num_vars + 1)
            if vals[v + v] == 0 and not self._eliminated[v]
            and v not in frozen
            and len(occ[v + v]) <= limit and len(occ[v + v + 1]) <= limit
        ]
        candidates.sort(key=lambda v: len(occ[v + v]) + len(occ[v + v + 1]))
        # Literal-indexed marks of the positive clause's other literals.
        # Arena clauses hold no duplicate or complementary literals, so
        # a resolvent is ``p_rest`` plus the negative clause's unmarked
        # literals, tautological iff one of those is a marked complement.
        mark = bytearray(len(vals))
        checked = 0
        for v in candidates:
            checked += 1
            if budget is not None and (checked & 0x3F) == 0x3F:
                if budget.exhausted() is not None:
                    return True
            if vals[v + v] != 0 or self._eliminated[v] or not self._ok:
                continue
            pos = [c for c in occ[v + v] if not dead[c] and not learnt[c]]
            neg = [c for c in occ[v + v + 1] if not dead[c] and not learnt[c]]
            if len(pos) > limit or len(neg) > limit:
                continue
            budget_clauses = len(pos) + len(neg) + config.elim_growth
            pos_idx = v + v
            neg_idx = pos_idx + 1
            resolvents: list[list[int]] = []
            parents: list[tuple[int, int]] = []  # with a proof log only
            feasible = True
            for p_cid in pos:
                ps = starts[p_cid]
                p_rest = [ar[k] for k in range(ps, ps + sizes[p_cid])
                          if ar[k] != pos_idx]
                for q in p_rest:
                    mark[q] = 1
                for n_cid in neg:
                    nst = starts[n_cid]
                    new: list[int] = []
                    taut = False
                    for k in range(nst, nst + sizes[n_cid]):
                        q = ar[k]
                        if q == neg_idx or mark[q]:
                            continue
                        if mark[q ^ 1]:
                            taut = True
                            break
                        new.append(q)
                    if taut:
                        continue
                    res = p_rest + new
                    if len(res) > config.elim_lit_limit:
                        feasible = False
                        break
                    resolvents.append(res)
                    if proof is not None:
                        parents.append((p_cid, n_cid))
                    if len(resolvents) > budget_clauses:
                        feasible = False
                        break
                for q in p_rest:
                    mark[q] = 0
                if not feasible:
                    break
            if not feasible:
                continue
            # Commit: retire the originals onto the elimination stack
            # (their proof ids stay citable: irredundant deletions are
            # never logged), then install the resolvents, each logged as
            # derived from its two parents.
            saved: list[list[int]] = []
            for cid in pos + neg:
                saved.append(self._clause_lits(cid))
            if proof is not None:
                self._elim_pids.append([c_pid[c] for c in pos + neg])
            self._elim_stack.append((v, saved))
            self._eliminated[v] = 1
            self.stats.eliminated += 1
            for cid in pos + neg:
                self._remove_clause(cid)
            # Learned clauses mentioning v are no longer connected to
            # anything useful; retire them (logged, they are redundant).
            for cid in occ[v + v] + occ[v + v + 1]:
                if not dead[cid] and learnt[cid]:
                    self._remove_clause(cid)
            for j, res in enumerate(resolvents):
                # Normalize against the root assignment: unit resolvents
                # installed earlier in this loop propagate at level 0, so
                # a later resolvent may carry literals that are already
                # decided.  Attaching it unfiltered can watch two false
                # literals — the clause then never wakes propagation and
                # the search can "satisfy" the formula while violating it.
                got = self._derived(res, (
                    (self._cite(c_pid[parents[j][0]]),
                     self._cite(c_pid[parents[j][1]]))
                    if proof is not None else ()))
                if got is None:
                    continue  # satisfied at the root forever
                live, pid = got
                if not live:
                    return False
                if len(live) == 1:
                    if not self._assert_unit(live[0], pid):
                        return False
                    continue
                cid = self._alloc(live, learnt=False, pid=pid)
                self._attach(cid)
                for q in live:
                    occ[q].append(cid)
        return True

    def _restore_eliminated(self, var: int) -> None:
        """Reintroduce an eliminated variable (and all eliminated after it).

        Frames are popped in reverse elimination order, which guarantees
        every clause re-added mentions only live variables: a frame's
        clauses were live at its elimination, so they contain no
        earlier-eliminated variable, and any later-eliminated variable
        they mention is restored by an earlier pop.
        """
        while self._eliminated[var] and self._elim_stack:
            v, saved = self._elim_stack.pop()
            pids = self._elim_pids.pop() if self.proof is not None else None
            self._eliminated[v] = 0
            for k, lits in enumerate(saved):
                if not self._add_clause(lits, pids[k] if pids else 0):
                    return

    # ----- one-shot convenience -------------------------------------------


def solve_cnf(
    cnf: CNF, config: Optional[CDCLConfig] = None,
    budget: Optional["Budget"] = None,
) -> tuple[SatResult, Optional[list[bool]], SatStats]:
    """One-shot convenience wrapper: solve a CNF and return (result, model, stats)."""
    solver = CDCLSolver(cnf.num_vars, config, budget=budget)
    if not solver.add_cnf(cnf):
        return SatResult.UNSAT, None, solver.stats
    result = solver.solve()
    model = solver.model() if result is SatResult.SAT else None
    return result, model, solver.stats
