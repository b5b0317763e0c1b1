"""Engine options, resolved once.

An :class:`EngineOptions` value is everything the solving engine needs
to know beyond the query: portfolio width, result cache, proof
checking and checkpoint store.  It is frozen, and
:meth:`EngineOptions.resolve` is the one place where a knob left at
``None`` falls back to the environment:

===============  ===========================  ==============================
knob             ``None`` reads               other values
===============  ===========================  ==============================
``jobs``         ``REPRO_JOBS`` (default 1)   an int, clamped to >= 1
``cache``        ``REPRO_CACHE``,             ``False``: none; ``True``: the
                 ``REPRO_CACHE_DIR``          process-wide in-memory cache;
                                              a ResultCache: used as-is
``certify``      ``REPRO_CERTIFY``            a bool
``checkpoints``  ``REPRO_CHECKPOINT_DIR``     ``False``: none; a path: a
                                              store there; a
                                              CheckpointStore: used as-is
===============  ===========================  ==============================

Solvers and back ends resolve at construction and never look at the
environment again, so a verdict depends only on what was in force when
the solver was built.  Environment-derived caches and stores are shared
per value: every solver in a process that resolves
``REPRO_CACHE_DIR=D`` uses the same :class:`ResultCache`.  A malformed
value warns once per (variable, value) and falls back as it always has.
"""

from __future__ import annotations

import functools
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Optional

if TYPE_CHECKING:
    from ..persist.checkpoint import CheckpointStore
    from .cache import ResultCache

_TRUTHY = ("1", "true", "on", "yes")
_FALSY = ("", "0", "false", "off", "no")
_CACHE_OFF = ("", "0", "off", "none", "false")
_warned: set[tuple[str, str]] = set()


@dataclass(frozen=True)
class EngineOptions:
    """The resolved engine knobs one solver runs with."""

    jobs: int = 1
    cache: Optional["ResultCache"] = None
    certify: bool = False
    checkpoints: Optional["CheckpointStore"] = None

    def __post_init__(self) -> None:
        # A value built directly takes a bool as resolve() does; a solver
        # only ever reads a store or None.
        if isinstance(self.cache, bool):
            object.__setattr__(self, "cache", _cache_for(self.cache, {}))
        if isinstance(self.checkpoints, bool):
            object.__setattr__(
                self, "checkpoints", _checkpoints_for(self.checkpoints, {}))

    @classmethod
    def resolve(cls, *, jobs: Optional[int] = None, cache=None,
                certify: Optional[bool] = None, checkpoints=None,
                environ: Optional[Mapping[str, str]] = None,
                ) -> "EngineOptions":
        """Resolve caller knobs, filling each ``None`` from ``environ``
        (default ``os.environ``)."""
        env = os.environ if environ is None else environ
        return cls(
            jobs=max(1, jobs) if jobs is not None else _env_jobs(env),
            cache=_cache_for(cache, env),
            certify=certify if certify is not None else _env_certify(env),
            checkpoints=_checkpoints_for(checkpoints, env),
        )


def _warn(name: str, raw: str, accepted: str) -> None:
    """Warn once per (variable, value): a typo must not silently turn a
    CI leg's coverage off."""
    if (name, raw) in _warned:
        return
    _warned.add((name, raw))
    warnings.warn(f"malformed {name}={raw!r} (accepted: {accepted})",
                  RuntimeWarning, stacklevel=4)


def _env_jobs(env: Mapping[str, str]) -> int:
    raw = env.get("REPRO_JOBS", "")
    if not raw.strip():
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        _warn("REPRO_JOBS", raw, "an integer; running with 1 job")
        return 1


def _env_certify(env: Mapping[str, str]) -> bool:
    raw = env.get("REPRO_CERTIFY", "")
    value = raw.strip().lower()
    if value not in _TRUTHY and value not in _FALSY:
        _warn("REPRO_CERTIFY", raw,
              "1/true/on/yes or 0/false/off/no; certification stays off")
    return value in _TRUTHY


def _cache_for(setting, env: Mapping[str, str]) -> Optional["ResultCache"]:
    if setting is False:
        return None
    if setting is True:
        return _shared_cache(None)
    if setting is not None:
        return setting
    raw = env.get("REPRO_CACHE", "")
    mode = raw.strip().lower()
    cache_dir = env.get("REPRO_CACHE_DIR")
    if mode in _CACHE_OFF and not cache_dir:
        return None
    if mode not in _CACHE_OFF + _TRUTHY + ("disk",):
        _warn("REPRO_CACHE", raw,
              "0/off/none/false, 1/true/on/yes or disk; treated as 1")
    if cache_dir:
        return _shared_cache(cache_dir)
    if mode == "disk":
        from .cache import DEFAULT_DISK_DIR

        return _shared_cache(str(DEFAULT_DISK_DIR))
    return _shared_cache(None)


def _checkpoints_for(setting, env: Mapping[str, str]
                     ) -> Optional["CheckpointStore"]:
    from ..persist.checkpoint import CheckpointStore

    if setting is None:
        directory = env.get("REPRO_CHECKPOINT_DIR")
        return _shared_store(directory) if directory else None
    if setting is False:
        return None
    if setting is True:
        raise TypeError("checkpoints=True names no directory;"
                        " pass a path or a CheckpointStore")
    if isinstance(setting, CheckpointStore):
        return setting
    return CheckpointStore(setting)


# Unbounded on purpose: one entry per distinct value a process resolves
# (a handful), and evicting one would split a "process-wide" cache.
@functools.lru_cache(maxsize=None)
def _shared_cache(disk_dir: Optional[str]) -> "ResultCache":
    from .cache import ResultCache

    return ResultCache(disk_dir=Path(disk_dir) if disk_dir else None)


@functools.lru_cache(maxsize=None)
def _shared_store(directory: str) -> "CheckpointStore":
    from ..persist.checkpoint import CheckpointStore

    return CheckpointStore(directory)
