"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.compiler.symexec import EncodeConfig
from repro.runtime.budget import (
    BudgetExhausted,
    ExhaustionReason,
    ResourceReport,
)
from repro.netmodels.schedulers import (
    fq_buggy,
    fq_fixed,
    round_robin,
    strict_priority,
)


@pytest.fixture
def prio2():
    return strict_priority(2)


@pytest.fixture
def rr2():
    return round_robin(2)


@pytest.fixture
def fq2():
    return fq_buggy(2)


@pytest.fixture
def fq2_fixed():
    return fq_fixed(2)


@pytest.fixture
def small_config():
    """A compact encoding configuration used across backend tests."""
    return EncodeConfig(buffer_capacity=4, arrivals_per_step=2)


class PollBudget:
    """A duck-typed budget that runs out at its ``n``-th poll."""

    def __init__(self, n: int):
        self.n = n
        self.polls = 0

    def checkpoint(self, context: str = "") -> None:
        self.polls += 1
        if self.polls >= self.n:
            raise BudgetExhausted(ResourceReport(
                reason=ExhaustionReason.DEADLINE, message=context))
