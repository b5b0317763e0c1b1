"""A library of canonical performance queries (§3, assumptions & queries).

Queries are plain SMT terms over a back end's monitor/statistic
snapshots, so they compose with ``&``/``|``.  This module packages the
recurring ones:

* :func:`fair_share` — the paper's FQ query, ``cdeq[T-1] >= T/2``;
* :func:`starvation` — continuous backlog with (almost) no service;
* :func:`loss` — any drop at a buffer (CCAC's "occurrence of loss");
* :func:`work_conservation` — something is served whenever backlogged;
* :func:`ordering_fifo` — an order-sensitive query used by the
  buffer-model precision ablation (A1).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..backends.smt_backend import SmtBackend
from ..smt.terms import Term, mk_and, mk_eq, mk_int, mk_le, mk_lt, mk_or


def fair_share(backend: SmtBackend, label: str,
               share: Optional[int] = None) -> Term:
    """The §6.1 query: buffer ``label`` dequeues at least its fair share.

    The paper uses ``assert(cdeq[T-1] >= T/2)`` with T the horizon;
    ``share`` overrides the default ``T // 2``.
    """
    want = backend.horizon // 2 if share is None else share
    return mk_le(mk_int(want), backend.deq_count(label))


def starvation(
    backend: SmtBackend,
    victim: str,
    max_service: int = 1,
    from_step: int = 0,
    competitors_min_service: Optional[dict[str, int]] = None,
) -> Term:
    """Victim continuously backlogged yet served at most ``max_service``.

    Optionally require competitors to receive minimum service — useful
    to rule out trivial "the link was idle" traces.
    """
    conjuncts: list[Term] = [
        mk_le(mk_int(1), backend.backlog(victim, t))
        for t in range(from_step, backend.horizon)
    ]
    conjuncts.append(mk_le(backend.deq_count(victim), mk_int(max_service)))
    for label, minimum in (competitors_min_service or {}).items():
        conjuncts.append(mk_le(mk_int(minimum), backend.deq_count(label)))
    return mk_and(*conjuncts)


def loss(backend: SmtBackend, label: str, at_least: int = 1) -> Term:
    """At least ``at_least`` packets dropped at ``label`` by the horizon."""
    return mk_le(mk_int(at_least), backend.drop_count(label))


def no_loss(backend: SmtBackend, labels: Sequence[str]) -> Term:
    return mk_and(
        *[mk_eq(backend.drop_count(label), mk_int(0)) for label in labels]
    )


def work_conservation(backend: SmtBackend, inputs: Sequence[str],
                      output: str) -> Term:
    """Whenever some input is backlogged at a step's end, the output link
    made progress that step (its cumulative enqueue count grew)."""
    conjuncts: list[Term] = []
    for t in range(backend.horizon):
        backlogged = mk_or(
            *[mk_le(mk_int(1), backend.backlog(label, t)) for label in inputs]
        )
        prev = backend.enq_count(output, t - 1) if t > 0 else mk_int(0)
        progressed = mk_lt(prev, backend.enq_count(output, t))
        conjuncts.append(backlogged.implies(progressed))
    return mk_and(*conjuncts)


def ordering_fifo(backend: SmtBackend, output: str, first_flow: int,
                  second_flow: int, step: int = -1) -> Term:
    """Order-sensitive query: at ``step``, the head-of-line packet in
    ``output`` belongs to ``first_flow`` and a ``second_flow`` packet is
    also present behind it.

    Only the list-precision buffer model can express this (the counter
    model abstracts intra-buffer order away) — the A1 ablation relies
    on that contrast.
    """
    machine = backend.machine
    buf = machine._buffer_by_label(output)
    if not hasattr(buf, "flows"):
        raise ValueError(
            "ordering queries need the list-precision buffer model"
        )
    head_is_first = mk_and(
        mk_le(mk_int(1), buf.length), mk_eq(buf.flows[0], mk_int(first_flow))
    )
    second_present = mk_or(
        *[
            mk_and(
                mk_lt(mk_int(i), buf.length),
                mk_eq(buf.flows[i], mk_int(second_flow)),
            )
            for i in range(1, buf.hi)
        ]
    )
    return mk_and(head_is_first, second_present)
