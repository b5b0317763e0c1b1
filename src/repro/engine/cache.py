"""Content-addressed result cache for SMT queries.

A query is the pair *(set of asserted formulas, effective integer
bounds)*.  Both determine the answer completely — the pipeline is a
decision procedure — so a canonical fingerprint of the two is a sound
cache key.  The fingerprint is **structural** (per-node sha256 over the
hash-consed term DAG), not ``id``-based, so keys are stable across
processes and interpreter runs and can address an on-disk store.  The
arguments of the operators whose constructors order them by ``id()``
(``terms.ID_ORDERED_OPS``) are digested in sorted order for the same
reason.

Two tiers:

* an in-memory LRU (:class:`ResultCache`), always on when the solver is
  given a cache;
* an optional on-disk store (JSON files under ``~/.cache/repro`` by
  default, overridable via ``REPRO_CACHE_DIR``) shared between runs.

Only definitive answers (SAT with a decoded assignment, UNSAT) are
cached; UNKNOWN depends on the budget that produced it and is never
stored.  SAT hits are re-validated against the query's own terms by the
solver before being trusted, so a corrupted disk entry degrades to a
miss, never to a wrong answer.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from ..obs import METRICS
from ..smt.intervals import BoundsEnv
from ..smt.terms import ID_ORDERED_OPS, Term, iter_dag

Assignment = Mapping[str, Union[bool, int]]


def _term_digests(root: Term, memo: dict[Term, bytes]) -> bytes:
    """Structural sha256 digest of every node under ``root`` (memoized)."""
    for node in iter_dag(root):
        if node in memo:
            continue
        h = hashlib.sha256()
        h.update(node.op.value.encode())
        h.update(b"\x00")
        h.update(node.sort.value.encode())
        h.update(b"\x00")
        if node.payload is not None:
            # repr() distinguishes True from 1 and "x" from x.
            h.update(repr(node.payload).encode())
        h.update(b"\x00")
        args = [memo[arg] for arg in node.args]
        if node.op in ID_ORDERED_OPS:  # stored order comes from id()
            args.sort()
        for digest in args:
            h.update(digest)
        memo[node] = h.digest()
    return memo[root]


def formula_fingerprint(
    formulas: Sequence[Term], bounds: BoundsEnv,
    memo: Optional[dict[Term, bytes]] = None,
) -> str:
    """Canonical hex key for a query: formulas + the bounds that matter.

    Formula digests are sorted, so assertion order does not split cache
    entries.  Bounds contribute only the intervals of integer variables
    free in the formulas (plus the default interval, which governs any
    undeclared variable) — changing an irrelevant bound does not miss,
    while changing a relevant one always does.
    """
    if memo is None:
        memo = {}
    digests = sorted(_term_digests(f, memo) for f in formulas)
    names = sorted(
        {
            node.name
            for f in formulas
            for node in iter_dag(f)
            if node.is_var
        }
    )
    h = hashlib.sha256()
    for d in digests:
        h.update(d)
    h.update(b"|bounds|")
    default = bounds.default
    h.update(f"default:{default.lo}:{default.hi}".encode())
    for name in names:
        iv = bounds.get(name)
        h.update(f"|{name}:{iv.lo}:{iv.hi}".encode())
    return h.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters, surfaced in :class:`ResourceReport`."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    stores: int = 0
    evictions: int = 0
    invalid: int = 0  # disk entries that failed to parse / validate
    corrupt_entries: int = 0  # checksum mismatches / truncated JSON
    io_errors: int = 0  # disk writes/reads that failed (real or injected)


@dataclass
class CacheEntry:
    """A definitive answer: verdict plus the decoded assignment (SAT)."""

    verdict: str  # "sat" | "unsat"
    assignment: Optional[dict[str, Union[bool, int]]] = None
    cnf_vars: int = 0
    cnf_clauses: int = 0


class ResultCache:
    """In-memory LRU + optional on-disk store of query results.

    Thread-compatible for the repo's single-threaded solvers; disk
    writes are atomic (temp file + rename) so concurrent CI shards can
    share one directory.  Disk entries carry a sha256 checksum over the
    canonical payload; any mismatch, truncation or parse failure is a
    miss — the bad file is deleted so it cannot keep costing a read.
    """

    # Chaos hook: repro.runtime.chaos.inject_faults installs a monkey
    # here so tests can corrupt entries at write time.
    _chaos = None

    def __init__(self, capacity: int = 1024,
                 disk_dir: Optional[Union[str, Path]] = None):
        self.capacity = max(1, capacity)
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.stats = CacheStats()
        self._lru: OrderedDict[str, CacheEntry] = OrderedDict()

    # ----- lookup -----------------------------------------------------------

    def get(self, key: str) -> Optional[CacheEntry]:
        entry = self._lru.get(key)
        if entry is not None:
            self._lru.move_to_end(key)
            self.stats.hits += 1
            if METRICS.enabled:
                METRICS.counter_inc("repro_cache_hits_total", tier="memory")
            return entry
        entry = self._disk_get(key)
        if entry is not None:
            self.stats.hits += 1
            self.stats.disk_hits += 1
            if METRICS.enabled:
                METRICS.counter_inc("repro_cache_hits_total", tier="disk")
            self._remember(key, entry)
            return entry
        self.stats.misses += 1
        if METRICS.enabled:
            METRICS.counter_inc("repro_cache_misses_total")
        return None

    def put(self, key: str, entry: CacheEntry) -> None:
        if entry.verdict not in ("sat", "unsat"):
            raise ValueError("only definitive verdicts are cacheable")
        self.stats.stores += 1
        if METRICS.enabled:
            METRICS.counter_inc("repro_cache_stores_total")
        self._remember(key, entry)
        self._disk_put(key, entry)

    def clear(self) -> None:
        self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)

    def _remember(self, key: str, entry: CacheEntry) -> None:
        self._lru[key] = entry
        self._lru.move_to_end(key)
        while len(self._lru) > self.capacity:
            self._lru.popitem(last=False)
            self.stats.evictions += 1

    # ----- disk tier --------------------------------------------------------

    def _disk_path(self, key: str) -> Path:
        assert self.disk_dir is not None
        return self.disk_dir / key[:2] / f"{key}.json"

    @staticmethod
    def _payload_checksum(payload: dict) -> str:
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def _disk_get(self, key: str) -> Optional[CacheEntry]:
        if self.disk_dir is None:
            return None
        path = self._disk_path(key)
        try:
            raw = path.read_text()
        except FileNotFoundError:
            return None
        except OSError:
            self.stats.invalid += 1
            self.stats.io_errors += 1
            if METRICS.enabled:
                METRICS.counter_inc(
                    "repro_persist_io_errors_total", where="cache")
            return None
        try:
            data = json.loads(raw)
            stored = data.pop("sha256")
            if stored != self._payload_checksum(data):
                raise ValueError("checksum mismatch")
            verdict = data["verdict"]
            if verdict not in ("sat", "unsat"):
                raise ValueError(verdict)
            assignment = data.get("assignment")
            if assignment is not None and not isinstance(assignment, dict):
                raise ValueError("bad assignment")
            return CacheEntry(
                verdict=verdict,
                assignment=assignment,
                cnf_vars=int(data.get("cnf_vars", 0)),
                cnf_clauses=int(data.get("cnf_clauses", 0)),
            )
        except (json.JSONDecodeError, ValueError, KeyError,
                AttributeError, TypeError):
            # Truncated, tampered or legacy (pre-checksum) entry: treat
            # as corrupt, drop it from disk, report a miss.
            self.stats.invalid += 1
            self.stats.corrupt_entries += 1
            if METRICS.enabled:
                METRICS.counter_inc("repro_cache_corrupt_entries_total")
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def _disk_put(self, key: str, entry: CacheEntry) -> None:
        if self.disk_dir is None:
            return
        path = self._disk_path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        payload = {
            "verdict": entry.verdict,
            "assignment": entry.assignment,
            "cnf_vars": entry.cnf_vars,
            "cnf_clauses": entry.cnf_clauses,
        }
        payload["sha256"] = self._payload_checksum(payload)
        text = json.dumps(payload)
        monkey = ResultCache._chaos
        if monkey is not None:
            text = monkey.corrupt_cache_text(text)
        try:
            if monkey is not None:
                monkey.maybe_io_error("cache")
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(text)
            tmp.replace(path)
        except OSError:
            # Best-effort: a read-only or full disk must not fail a solve.
            self.stats.io_errors += 1
            if METRICS.enabled:
                METRICS.counter_inc(
                    "repro_persist_io_errors_total", where="cache")
            try:
                tmp.unlink()
            except OSError:
                pass


DEFAULT_DISK_DIR = Path.home() / ".cache" / "repro"
