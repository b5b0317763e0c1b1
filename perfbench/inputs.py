"""Seeded inputs and the hand-written oracle tables.

Every workload's inputs come from a *deck*: a fixed multiset of
operations, each paired with the verdict a human derived for it from
the scheduler's semantics (never from running the code under test).
The seed only shuffles each pass through the deck, so every seed
exercises the same mix of layers, and a run made of whole passes holds
that mix exactly.

The derivations rest on three facts of the encoding every workload
uses: at most ``arrivals_per_step`` (2) packets arrive per input buffer
per step, every scheduler here moves at most one packet per step
(the shaper: at most its tokens), and the output buffer keeps every
packet moved into it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# ----- fig6_verify --------------------------------------------------------

#: The Figure-6 instance: FQ over N=2 queues, capacity 5, <=2 arrivals.
FIG6_N = 2
FIG6_CAPACITY = 5
FIG6_ARRIVALS = 2


@dataclass(frozen=True)
class Fig6Op:
    scheduler: str   # "fq_buggy" | "fq_fixed"
    horizon: int


#: Expected per-VC verdicts, by hand, for every horizon T >= 1:
#: * ``total_work`` (deq <= enq): a packet is dequeued only after it was
#:   enqueued, so total dequeues never exceed total enqueues: VERIFIED.
#: * ``capacity`` (backlog(ibs[0]) <= T-1): two packets may reach
#:   ibs[0] every step while at most one leaves, so after T steps its
#:   backlog can be T: FAILED.
FIG6_EXPECTED = {"total_work": "VERIFIED", "capacity": "FAILED"}

#: One pass: horizons 1 and 2 at 3:5 for both FQ variants.  The 3:5
#: split keeps the median well inside the T=2 mode (a 1:1 split would
#: put it on the gap between the modes) while a 25 s run still yields
#: well over 100 verdicts.
FIG6_DECK = (
    [Fig6Op(s, 1) for s in ("fq_buggy", "fq_fixed", "fq_buggy")]
    + [Fig6Op(s, 2) for s in ("fq_buggy", "fq_fixed") * 2]
    + [Fig6Op("fq_fixed", 2)]
)


# ----- query_sweep ---------------------------------------------------------

@dataclass(frozen=True)
class Scheduler:
    source_key: str          # key into the scheduler source table
    consts: tuple            # ((name, value), ...)
    inputs: tuple            # input buffer labels
    baseline: str | None     # FPerf-style baseline encoding, if any


SCHEDULERS = {
    "fq_buggy": Scheduler("fq", (("N", 2),),
                          ("ibs[0]", "ibs[1]"), "fq"),
    "fq_fixed": Scheduler("fq_fixed", (("N", 2),),
                          ("ibs[0]", "ibs[1]"), None),
    "rr2": Scheduler("rr", (("N", 2),), ("ibs[0]", "ibs[1]"), "rr"),
    "rr3": Scheduler("rr", (("N", 3),),
                     ("ibs[0]", "ibs[1]", "ibs[2]"), "rr"),
    "prio2": Scheduler("prio", (("N", 2),),
                       ("ibs[0]", "ibs[1]"), "prio"),
    "drr": Scheduler("drr", (("N", 2), ("Q", 2)),
                     ("ibs[0]", "ibs[1]"), None),
    "shaper": Scheduler("shaper", (("RATE", 1), ("BUCKET", 3)),
                        ("ib",), None),
}


@dataclass(frozen=True)
class Query:
    scheduler: str
    kind: str      # starvation | loss | fair_share | work_conservation | ordering_fifo
    horizon: int
    expected: str  # "proved" | "violated" (repro.Verdict values)
    victim: int = 0

    @property
    def prove(self) -> bool:
        return self.kind == "work_conservation"


def _query_table() -> list[Query]:
    """The hand-derived query table (capacity 8 for every buffer).

    * loss(first input): at most 2T <= 6 packets ever arrive, fewer than
      the 8 slots, so no drop exists: find_trace is UNSAT -> violated.
    * fair_share(first input): send traffic only to it; every scheduler
      here serves a lone backlogged queue every step, so it gets T >=
      T//2 dequeues: SAT -> proved.
    * starvation(victim, max_service=0), victim backlogged every step:
      - prio2, victim 1: queue 0 kept backlogged wins every step: SAT.
      - prio2, victim 0: the top queue is served whenever backlogged: UNSAT.
      - shaper: it starts with a full bucket and refills one token a
        step, so a backlogged input is always served: UNSAT.
    * work_conservation (proved as a property): a queue backlogged at a
      step's end was backlogged while the body ran, and prio, rr and
      drr scan every queue, the shaper always holds >= 1 token: the
      output grows that step, so the property holds -> proved.
    * ordering_fifo(ob, first=1, second=0): for prio2, only queue 1
      sends at step 0 and only queue 0 at step 1; each is served in its
      step, so ob holds flow 1 then flow 0: SAT -> proved (T >= 2).  The
      shaper has one input, whose packets all carry flow 0, so no flow-1
      packet exists: UNSAT -> violated.

    The table leaves out pairs whose CDCL search dominates (ordering on
    the larger schedulers, starvation on rr and drr, most T=3 pairs), so
    that a run holds >= 100 verdicts and the front end, not CDCL,
    carries most of the time.
    """
    table = [Query(s, "loss", 2, "violated") for s in SCHEDULERS
             if s != "rr3"]
    table += [Query(s, "loss", 3, "violated")
              for s in ("fq_fixed", "rr2", "prio2", "shaper")]
    table += [Query(s, "fair_share", 2, "proved")
              for s in ("fq_buggy", "rr2", "prio2", "shaper")]
    table += [Query(s, "fair_share", 3, "proved") for s in ("prio2", "shaper")]
    table += [Query(s, "work_conservation", 2, "proved")
              for s in ("prio2", "rr2", "drr", "shaper")]
    table += [Query("shaper", "work_conservation", 3, "proved")]
    table += [Query("prio2", "ordering_fifo", 2, "proved")]
    table += [Query("shaper", "ordering_fifo", t, "violated") for t in (2, 3)]
    for t in (2, 3):
        table += [Query("prio2", "starvation", t, "proved", victim=1),
                  Query("prio2", "starvation", t, "violated", victim=0),
                  Query("shaper", "starvation", t, "violated")]
    table += [Query("rr3", "loss", 2, "violated")]
    # Repeats shape the latency distribution: the paper's FQ fair-share
    # query three times puts the p90 inside a cluster of equal-cost
    # operations, two more FQ loss queries do the same for the median.
    table += [Query("fq_buggy", "fair_share", 2, "proved")] * 2
    table += [Query(s, "loss", 2, "violated") for s in ("fq_buggy", "fq_fixed")]
    return table


QUERY_TABLE = _query_table()

#: Set-up warm-up: one query per scheduler, each answer kind (UNSAT,
#: SAT witness, proved property) at least once.
QUERY_WARMUP = (list(dict.fromkeys(q for q in QUERY_TABLE
                                   if q.kind == "loss" and q.horizon == 2))
                + [Query("fq_buggy", "fair_share", 2, "proved"),
                   Query("shaper", "work_conservation", 2, "proved")])


# ----- serve_mixed ---------------------------------------------------------

#: A single-queue link serving one packet a step.  Two packets may
#: arrive each step, so after T steps the backlog can reach T (<= 8
#: slots for T <= 3): ``backlog <= LIMIT`` holds iff LIMIT >= T.
LINK_SRC = """\
link(in buffer ib, out buffer ob){
  move-p(ib, ob, 1);
  assert(backlog-p(ib) <= LIMIT);
}
"""

#: Strict priority over two queues.  Queue 1 is served only when queue
#: 0 is empty, and both may receive two packets a step, so queue 1's
#: backlog can reach 2T after T steps (<= 8 slots for T <= 3):
#: ``backlog(ibs[1]) <= LIMIT`` holds iff LIMIT >= 2T.
PRIO_LIMIT_SRC = """\
prio(in buffer[2] ibs, out buffer ob){
  local bool dequeued;
  dequeued = false;
  for (i in 0..2) do {
    if (!dequeued & backlog-p(ibs[i]) > 0) {
      move-p(ibs[i], ob, 1);
      dequeued = true;}}
  assert(backlog-p(ibs[1]) <= LIMIT);
}
"""


@dataclass(frozen=True)
class Job:
    family: str   # "link" | "prio"
    limit: int
    steps: int

    @property
    def source(self) -> str:
        return LINK_SRC if self.family == "link" else PRIO_LIMIT_SRC

    @property
    def expected(self) -> str:
        bound = self.steps if self.family == "link" else 2 * self.steps
        return "proved" if self.limit >= bound else "violated"


#: Jobs solved during set-up; the journal holds their verdicts.
SERVE_BASE = [Job("link", 1, 2), Job("link", 2, 2), Job("link", 2, 3),
              Job("link", 3, 3), Job("prio", 3, 2), Job("prio", 4, 2),
              Job("prio", 5, 3), Job("prio", 6, 3)]


@dataclass(frozen=True)
class Request:
    kind: str       # "replay" | "respelled" | "fresh"
    job: Job
    source: str

    @property
    def expected(self) -> str:
        return self.job.expected


def respell(source: str, tag: str) -> str:
    """Same program, new text: changed layout and a comment.

    The job id hashes the source text, so the server cannot replay it
    from the journal; the formula is unchanged, so the result cache
    answers it after the front end.
    """
    body = source.replace("{\n  ", "{\n    ").replace(";\n", " ;\n")
    return f"// respelled request {tag}\n" + body


#: One pass of the serve mix: every base job once as an exact repeat
#: and once respelled, plus four fresh jobs (40/40/20).  Exact passes
#: put the median inside the respelled mode and the p90 inside the
#: fresh one in every run, not on the gap between two modes.
SERVE_PASS = ([("replay", job) for job in SERVE_BASE]
              + [("respelled", job) for job in SERVE_BASE]
              + [("fresh", None)] * 4)


@dataclass
class ServeSchedule:
    """The request stream: an endless series of seed-shuffled passes."""

    seed: int
    fresh_base: int = 8   # first fresh limit; above every base limit
    _rng: random.Random = field(init=False)
    _fresh: int = field(init=False, default=0)
    _respelled: int = field(init=False, default=0)
    _pending: list = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        self._rng = random.Random(f"serve_mixed/{self.seed}")

    def next(self) -> Request:
        if not self._pending:
            self._pending = list(SERVE_PASS)
            self._rng.shuffle(self._pending)
        kind, job = self._pending.pop()
        if kind == "fresh":
            # A distinct formula every time: limits above every base
            # limit never repeat, so neither journal nor cache has it.
            self._fresh += 1
            family = "link" if self._fresh % 2 else "prio"
            job = Job(family, self.fresh_base + self._fresh, 2)
            return Request("fresh", job, job.source)
        if kind == "respelled":
            self._respelled += 1
            tag = f"{self.seed}.{self._respelled}"
            return Request(kind, job, respell(job.source, tag))
        return Request(kind, job, job.source)


# ----- shuffling -------------------------------------------------------------

def dealt(deck: list, seed: int, salt: str):
    """Endless stream over ``deck``: each pass is a fresh shuffle."""
    rng = random.Random(f"{salt}/{seed}")
    while True:
        order = list(deck)
        rng.shuffle(order)
        yield from order
