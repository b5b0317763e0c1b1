"""The solving engine: parallel portfolio, incremental reuse, caching.

Everything here sits *under* the :class:`repro.smt.solver.SmtSolver`
facade — callers keep the assert/check/model interface and opt into the
engine through ``SmtSolver(options=EngineOptions(jobs=..., cache=...))``,
``SmtSolver(incremental=True)`` or the backend/CLI ``jobs`` knobs.
:meth:`EngineOptions.resolve` is the one place the ``REPRO_*`` engine
variables are read.
"""

from .cache import (
    CacheEntry,
    CacheStats,
    ResultCache,
    formula_fingerprint,
)
from .options import EngineOptions
from .parallel import (
    PoolUnavailable,
    PortfolioPool,
    SlotResult,
    get_pool,
    shutdown_pool,
)

__all__ = [
    "CacheEntry",
    "CacheStats",
    "EngineOptions",
    "ResultCache",
    "formula_fingerprint",
    "PoolUnavailable",
    "PortfolioPool",
    "SlotResult",
    "get_pool",
    "shutdown_pool",
]
