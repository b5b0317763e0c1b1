"""Admission control: the service's first — and only unbounded — queue
is the TCP accept queue; everything behind it is bounded here.

One :class:`AdmissionController` guards the analysis service's worker
pool.  Every request passes three gates **before** any solver work is
scheduled:

1. **Bounded queue** — at most ``queue_limit`` admitted requests may be
   waiting for a worker.  A full queue answers ``429`` with a
   ``Retry-After`` estimate instead of queueing further: under
   overload, latency stays flat and the backlog cannot collapse the
   process (no unbounded queueing, ever).
2. **Per-tenant token buckets + budgets** — each tenant refills at a
   configured rate with a burst allowance; an empty bucket answers
   ``429`` with the exact refill wait.  A tenant may also carry a
   cumulative solve-seconds budget; a spent budget rejects until an
   operator raises it (accounting survives in the controller).
3. **The load-shedding ladder** — occupancy of the bounded queue picks
   an :class:`OverloadLevel`:

   * ``NORMAL``    — full budgets, the escalation ladder may climb;
   * ``DEGRADED``  — admitted, but the service tightens per-request
     budgets (short deadline, capped conflicts, no escalation) so
     saturated requests degrade to *fast UNKNOWN* verdicts rather than
     slow answers;
   * ``SHEDDING``  — additionally, tenants below the priority floor are
     rejected outright (``429``): the cheapest work to not do is the
     work nobody is waiting on.

Determinism: the controller takes an injectable ``clock`` so tests can
drive refills and levels without sleeping.
"""

from __future__ import annotations

import enum
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..obs import METRICS


class OverloadLevel(enum.IntEnum):
    """Where the service sits on the admission → degrade → shed ladder."""

    NORMAL = 0
    DEGRADED = 1
    SHEDDING = 2


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity."""

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = time.monotonic):
        self.rate = max(1e-9, rate)
        self.burst = max(1.0, burst)
        self._clock = clock
        self._tokens = self.burst
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(
            self.burst, self._tokens + (now - self._stamp) * self.rate
        )
        self._stamp = now

    def take(self, n: float = 1.0) -> float:
        """Take ``n`` tokens; returns 0.0 on success, else seconds to wait."""
        self._refill()
        if self._tokens >= n:
            self._tokens -= n
            return 0.0
        return (n - self._tokens) / self.rate

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens


@dataclass
class TenantPolicy:
    """Per-tenant admission knobs (all optional; defaults apply)."""

    name: str
    rate: float = 10.0            # token refills per second
    burst: float = 20.0           # bucket capacity
    priority: int = 0             # higher = survives shedding longer
    budget_seconds: Optional[float] = None  # cumulative solve-second cap


@dataclass
class TenantAccount:
    """What one tenant has consumed (the budget-accounting ledger)."""

    policy: TenantPolicy
    bucket: TokenBucket
    admitted: int = 0
    rejected: int = 0
    spent_seconds: float = 0.0

    @property
    def budget_exhausted(self) -> bool:
        cap = self.policy.budget_seconds
        return cap is not None and self.spent_seconds >= cap


@dataclass(frozen=True)
class Admission:
    """One admission decision, ready to render as an HTTP answer."""

    admitted: bool
    level: OverloadLevel
    status: int = 200             # 429 / 503 when rejected
    retry_after: float = 0.0      # seconds (the Retry-After header)
    reason: str = ""              # queue_full | rate_limited | budget |
    #                               shed | draining

    @property
    def retry_after_header(self) -> str:
        """Retry-After as an integer-seconds header value (ceil, >= 1)."""
        return str(max(1, math.ceil(self.retry_after)))


class AdmissionController:
    """Bounded-queue admission with per-tenant rate limits and shedding.

    Thread-safe: the asyncio loop admits while worker threads retire, so
    every mutation runs under one lock.  The controller never blocks —
    both outcomes of :meth:`admit` return immediately.
    """

    def __init__(
        self,
        queue_limit: int = 8,
        *,
        degrade_ratio: float = 0.5,
        shed_ratio: float = 0.875,
        shed_priority_floor: int = 1,
        default_rate: float = 200.0,
        default_burst: float = 400.0,
        drain_retry_after: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.queue_limit = max(1, queue_limit)
        self.degrade_ratio = degrade_ratio
        self.shed_ratio = shed_ratio
        self.shed_priority_floor = shed_priority_floor
        self.default_rate = default_rate
        self.default_burst = default_burst
        self.drain_retry_after = drain_retry_after
        self.draining = False
        self._clock = clock
        self._lock = threading.Lock()
        self._tenants: dict[str, TenantAccount] = {}
        # Live occupancy of the bounded queue and the worker pool.
        self.queued = 0
        self.running = 0
        self.max_queued = 0          # high-water mark (the test oracle)
        # EWMA of observed service time, seeding Retry-After estimates.
        self._service_ewma = 0.25

    # ----- tenant registry --------------------------------------------------

    def register_tenant(self, policy: TenantPolicy) -> TenantAccount:
        with self._lock:
            return self._account(policy.name, policy)

    def _account(self, name: str,
                 policy: Optional[TenantPolicy] = None) -> TenantAccount:
        acct = self._tenants.get(name)
        if acct is None:
            policy = policy or TenantPolicy(
                name=name, rate=self.default_rate, burst=self.default_burst,
            )
            acct = TenantAccount(
                policy=policy,
                bucket=TokenBucket(policy.rate, policy.burst, self._clock),
            )
            self._tenants[name] = acct
        elif policy is not None:
            acct.policy = policy
            acct.bucket = TokenBucket(policy.rate, policy.burst, self._clock)
        return acct

    def tenant(self, name: str) -> TenantAccount:
        with self._lock:
            return self._account(name)

    # ----- the ladder -------------------------------------------------------

    def level(self) -> OverloadLevel:
        """Current rung of the admission → degrade → shed ladder."""
        occupancy = self.queued / self.queue_limit
        if occupancy >= self.shed_ratio:
            return OverloadLevel.SHEDDING
        if occupancy >= self.degrade_ratio:
            return OverloadLevel.DEGRADED
        return OverloadLevel.NORMAL

    def _retry_after_estimate(self) -> float:
        """How long until a queue slot frees: backlog over service rate."""
        backlog = self.queued + self.running
        workers = max(1, self.running)
        return max(0.1, self._service_ewma * backlog / workers)

    # ----- admission --------------------------------------------------------

    def admit(self, tenant: str = "default",
              priority: Optional[int] = None) -> Admission:
        """Decide one request; an admitted one holds a queue slot until
        :meth:`note_started` moves it to the worker pool."""
        with self._lock:
            acct = self._account(tenant)
            if priority is None:
                priority = acct.policy.priority
            level = self.level()
            if self.draining:
                return self._reject(
                    acct, level, 503, self.drain_retry_after, "draining")
            if self.queued >= self.queue_limit:
                return self._reject(
                    acct, level, 429, self._retry_after_estimate(),
                    "queue_full")
            if (level is OverloadLevel.SHEDDING
                    and priority < self.shed_priority_floor):
                return self._reject(
                    acct, level, 429, self._retry_after_estimate(), "shed")
            if acct.budget_exhausted:
                return self._reject(acct, level, 429, 60.0, "budget")
            wait = acct.bucket.take()
            if wait > 0.0:
                return self._reject(acct, level, 429, wait, "rate_limited")
            acct.admitted += 1
            self.queued += 1
            if self.queued > self.max_queued:
                self.max_queued = self.queued
            self._gauges(level)
            return Admission(admitted=True, level=level)

    def _reject(self, acct: TenantAccount, level: OverloadLevel,
                status: int, retry_after: float, reason: str) -> Admission:
        acct.rejected += 1
        if METRICS.enabled:
            METRICS.counter_inc(
                "repro_serve_rejected_total",
                reason=reason, tenant=acct.policy.name,
            )
        self._gauges(level)
        return Admission(
            admitted=False, level=level, status=status,
            retry_after=retry_after, reason=reason,
        )

    # ----- occupancy bookkeeping (called by the service) --------------------

    def note_started(self) -> None:
        """An admitted request left the queue for a worker thread."""
        with self._lock:
            self.queued = max(0, self.queued - 1)
            self.running += 1
            self._gauges(self.level())

    def note_finished(self, tenant: str, service_seconds: float) -> None:
        """A request retired; fold its cost into accounting and the EWMA."""
        with self._lock:
            self.running = max(0, self.running - 1)
            acct = self._account(tenant)
            acct.spent_seconds += max(0.0, service_seconds)
            self._service_ewma = (
                0.8 * self._service_ewma + 0.2 * max(0.001, service_seconds)
            )
            self._gauges(self.level())

    def note_abandoned(self) -> None:
        """An admitted request never started (shutdown raced it)."""
        with self._lock:
            self.queued = max(0, self.queued - 1)
            self._gauges(self.level())

    def _gauges(self, level: OverloadLevel) -> None:
        if METRICS.enabled:
            METRICS.gauge_set("repro_serve_queue_depth", self.queued)
            METRICS.gauge_set("repro_serve_inflight", self.running)
            METRICS.gauge_set("repro_serve_overload_level", int(level))
