"""Term simplification beyond constructor-level normalization.

The ``mk_*`` constructors already fold constants and apply local
identities.  This module adds a memoized bottom-up rewriter with rules
that specifically target the patterns guarded symbolic execution
produces in bulk:

* **nested same-guard ite fusion** — ``ite(c, ite(c, a, _), b) →
  ite(c, a, b)`` and ``ite(c, a, ite(c, _, b)) → ite(c, a, b)``.
  Sequential guarded updates re-test the same path guard constantly.
* **comparison/ite lifting** — ``cmp(ite(c, a, b), k)`` with constant
  ``k`` and at least one constant branch becomes ``ite(c, cmp(a, k),
  cmp(b, k))``, whose constant side folds; e.g. ``0 < ite(c, 1, 0)``
  collapses to ``c``.  Backlog counters are sums of such terms.
* **constant-offset normalization** — ``x + k1 <= k2 → x <= k2 - k1``
  (same for ``<`` and ``=``), improving sharing between comparisons
  that differ only by folded constants.

``simplify`` preserves semantics (property-tested against evaluation)
and never grows a term.  The solve path does not use it: measurements
showed the bit-blaster's gate-level constant propagation already
absorbs these patterns on compiled Buffy formulas (identical CNF
sizes), so the pass is for human-readable output (SMT-LIB export,
debugging), not for solving time.
"""

from __future__ import annotations

from typing import Optional

from .sorts import BOOL, INT
from .terms import (
    Op,
    Term,
    iter_dag,
    mk_add,
    mk_eq,
    mk_int,
    mk_ite,
    mk_le,
    mk_lt,
    mk_not,
    rebuild,
)


def simplify(root: Term) -> Term:
    """Bottom-up simplification; returns an equivalent, never-larger term.

    Individual rules can occasionally grow a term locally (e.g. the
    ite-lift duplicates a comparison before one side folds); the final
    result is compared against the input by DAG size and the smaller
    one wins, so ``simplify`` is monotone and idempotent-safe.
    """
    from .terms import dag_size

    cache: dict[int, Term] = {}
    for node in iter_dag(root):
        if not node.args:
            cache[id(node)] = node
            continue
        new_args = tuple(cache[id(a)] for a in node.args)
        if all(n is o for n, o in zip(new_args, node.args)):
            candidate = node
        else:
            candidate = rebuild(node.op, new_args, node.payload)
        rewritten = _rewrite(candidate)
        if rewritten is not candidate and dag_size(rewritten) > dag_size(candidate):
            rewritten = candidate
        cache[id(node)] = rewritten
    result = cache[id(root)]
    if result is not root and dag_size(result) > dag_size(root):
        return root
    return result


def _rewrite(node: Term) -> Term:
    if node.op is Op.ITE:
        fused = _fuse_ite(node)
        if fused is not node:
            return fused
    if node.op in (Op.LT, Op.LE, Op.EQ) and node.sort is BOOL:
        lifted = _lift_comparison(node)
        if lifted is not None:
            return lifted
        shifted = _shift_constants(node)
        if shifted is not None:
            return shifted
    return node


def _fuse_ite(node: Term) -> Term:
    cond, then, els = node.args
    changed = False
    if then.op is Op.ITE and then.args[0] is cond:
        then = then.args[1]
        changed = True
    if els.op is Op.ITE and els.args[0] is cond:
        els = els.args[2]
        changed = True
    if changed:
        return mk_ite(cond, then, els)
    return node


_CMP_BUILDERS = {Op.LT: mk_lt, Op.LE: mk_le, Op.EQ: mk_eq}


def _lift_comparison(node: Term) -> Optional[Term]:
    """cmp(ite(c,a,b), k) → ite(c, cmp(a,k), cmp(b,k)) when profitable."""
    left, right = node.args
    if left.sort is not INT:
        return None
    build = _CMP_BUILDERS[node.op]
    for ite_side, const_side, flipped in ((left, right, False),
                                          (right, left, True)):
        if ite_side.op is not Op.ITE or not const_side.is_const:
            continue
        cond, then, els = ite_side.args
        # Only lift when a branch is constant, so one side fully folds
        # and the rewrite strictly shrinks the term.
        if not (then.is_const or els.is_const):
            continue
        if flipped:
            then_cmp = build(const_side, then)
            els_cmp = build(const_side, els)
        else:
            then_cmp = build(then, const_side)
            els_cmp = build(els, const_side)
        return mk_ite(cond, then_cmp, els_cmp)
    return None


def _split_constant(term: Term) -> tuple[Term, int]:
    """View an INT term as (rest, constant-offset)."""
    if term.is_const:
        return mk_int(0), term.value  # type: ignore[return-value]
    if term.op is Op.ADD:
        const = 0
        rest = []
        for arg in term.args:
            if arg.is_const:
                const += arg.value  # type: ignore[operator]
            else:
                rest.append(arg)
        if const != 0:
            return (rest[0] if len(rest) == 1 else mk_add(*rest)), const
    return term, 0


def _shift_constants(node: Term) -> Optional[Term]:
    """x + k1 cmp y + k2  →  x cmp y + (k2 - k1) (moves consts one side)."""
    left, right = node.args
    if left.sort is not INT:
        return None
    left_rest, left_const = _split_constant(left)
    right_rest, right_const = _split_constant(right)
    if left_const == 0:
        return None  # already normalized (or nothing to move)
    build = _CMP_BUILDERS[node.op]
    new_right = mk_add(right_rest, mk_int(right_const - left_const))
    result = build(left_rest, new_right)
    return result if result is not node else None


def simplify_all(formulas) -> list[Term]:
    """Simplify a batch (shared subterms are memoized per formula)."""
    return [simplify(f) for f in formulas]
