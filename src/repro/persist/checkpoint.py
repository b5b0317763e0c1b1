"""On-disk solver checkpoints: exhausted solves resume, not restart.

A checkpoint is a :meth:`CDCLSolver.checkpoint_state` dict — learned
clauses, VSIDS activities, saved phases, restart position — wrapped in
the same checksum envelope the journal and the result cache use, and
keyed by a **CNF fingerprint** (sha256 over the clause list): learned
clauses are only sound relative to the formula they were derived from,
so a checkpoint can never be applied to a different query.

:class:`SmtSolver` consults a store (``EngineOptions.checkpoints``,
filled from ``REPRO_CHECKPOINT_DIR`` when left unset) on the sequential
solve path: a budget- or conflict-cap-exhausted UNKNOWN saves a
checkpoint; the next check of the same query restores it — learned
clauses, phases and the Luby position survive process death.  A
definitive answer discards the checkpoint.  Certified runs skip restore
(a proof log cannot replay clause derivations from a previous process)
and the parallel portfolio path does not checkpoint (workers race
non-deterministically).

Trust on load: the envelope's sha256 is recomputed; any mismatch,
truncation or parse failure deletes the file and reports a miss —
exactly the :mod:`repro.engine.cache` discipline.  Writes are atomic
(temp file + ``os.replace``) and honor the ``io_error`` and
``kill_during_checkpoint`` chaos hooks.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
from pathlib import Path
from typing import Iterable, Optional, Union

from ..obs import METRICS
from .journal import payload_checksum

CHECKPOINT_SUFFIX = ".ckpt.json"


def cnf_fingerprint(num_vars: int, clauses: Iterable[Iterable[int]]) -> str:
    """Stable hex key for one CNF instance (variable count + clauses)."""
    h = hashlib.sha256()
    h.update(f"v{num_vars}".encode())
    for clause in clauses:
        h.update(b"|")
        h.update(" ".join(str(l) for l in clause).encode())
    return h.hexdigest()


def _default_kill():  # pragma: no cover - exercised via subprocess tests
    os.kill(os.getpid(), signal.SIGKILL)


class CheckpointStore:
    """Checksummed, atomically-written solver checkpoints in one directory."""

    #: Chaos hook (repro.runtime.chaos.inject_faults): drives io_error
    #: and kill_during_checkpoint injection.
    _chaos = None

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.saves = 0
        self.restores = 0
        self.corrupt = 0
        self.io_errors = 0
        # Test seam: what "the process dies here" means for the
        # kill_during_checkpoint hook.  Production value is SIGKILL.
        self._kill_hook = _default_kill

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}{CHECKPOINT_SUFFIX}"

    def save(self, key: str, state: dict) -> bool:
        """Persist one checkpoint; returns False on (injected) I/O failure.

        The ``kill_during_checkpoint`` chaos hook fires *between* the
        temp-file write and the ``os.replace`` — the worst possible
        instant — so recovery tests can prove a torn save leaves the
        previous checkpoint (or none) intact, never a corrupt one.
        """
        doc = {"sha256": payload_checksum(state), "state": state}
        path = self._path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        monkey = CheckpointStore._chaos
        try:
            if monkey is not None:
                monkey.maybe_io_error("checkpoint")
            self.directory.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc, sort_keys=True))
                fh.flush()
                os.fsync(fh.fileno())
            if monkey is not None and monkey.fires("kill_checkpoint"):
                self._kill_hook()
            os.replace(tmp, path)
        except OSError:
            self.io_errors += 1
            if METRICS.enabled:
                METRICS.counter_inc(
                    "repro_persist_io_errors_total", where="checkpoint")
            try:
                tmp.unlink()
            except OSError:
                pass
            return False
        self.saves += 1
        if METRICS.enabled:
            METRICS.counter_inc("repro_checkpoint_saves_total")
        return True

    def load(self, key: str) -> Optional[dict]:
        """Read a checkpoint back; any integrity failure is a miss."""
        path = self._path(key)
        try:
            raw = path.read_text()
        except FileNotFoundError:
            return None
        except OSError:
            self.io_errors += 1
            if METRICS.enabled:
                METRICS.counter_inc(
                    "repro_persist_io_errors_total", where="checkpoint")
            return None
        try:
            doc = json.loads(raw)
            state = doc["state"]
            if doc["sha256"] != payload_checksum(state):
                raise ValueError("checksum mismatch")
            if not isinstance(state, dict):
                raise ValueError("bad checkpoint payload")
        except (json.JSONDecodeError, ValueError, KeyError, TypeError):
            # Truncated or tampered: drop it so it cannot keep costing
            # a read, report a miss — never a wrong resume.
            self.corrupt += 1
            if METRICS.enabled:
                METRICS.counter_inc("repro_checkpoint_corrupt_total")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.restores += 1
        return state

    def discard(self, key: str) -> None:
        """Drop a checkpoint (its query answered definitively)."""
        try:
            self._path(key).unlink()
        except OSError:
            pass

    def __len__(self) -> int:
        try:
            return sum(
                1 for p in self.directory.iterdir()
                if p.name.endswith(CHECKPOINT_SUFFIX)
            )
        except OSError:
            return 0
