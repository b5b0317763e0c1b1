"""Append-only write-ahead journal with per-record integrity framing.

The durability substrate under :mod:`repro.persist.batch` and any other
component that must survive SIGKILL.  One :class:`Journal` is one JSONL
file; every line frames one record as::

    {"l": <len>, "h": "<sha256>", "r": <payload>}

where ``h`` is the sha256 of the canonical (sorted-keys, no-whitespace)
JSON encoding of ``r`` and ``l`` its byte length — the same checksum
discipline :mod:`repro.trust` and :mod:`repro.engine.cache` apply to
certificates and cache entries.  A record is accepted on replay only if
it parses *and* both frame fields match; the first record that fails is
treated as the torn tail of an interrupted write and the file is
truncated back to the last good byte, so a crash mid-``write()`` can
never poison subsequent appends.  A reader that keeps state current
calls :meth:`Journal.tail` instead: it verifies only the records
appended since a byte offset and never modifies the file.

Fsync policy (the durability/throughput dial):

* ``"always"`` — fsync after every append (every accepted record
  survives power loss; the batch runner's default for state records);
* ``"batch"``  — flush every append, fsync every ``fsync_interval``
  appends and on close (survives process death, may lose a short tail
  on power loss);
* ``"never"``  — OS-buffered only (tests, throwaway runs).

Snapshot + compaction: a journal directory can carry a ``snapshot``
file (atomic temp-file + ``os.replace``, checksummed the same way).
:func:`write_snapshot` persists a compacted state; the caller then
truncates the journal via :meth:`Journal.reset`.  Replay is *idempotent
by contract* — records are state transitions that may be re-applied on
top of a snapshot that already includes them — so a crash between the
two steps only costs redundant replay work, never correctness.

Failure degradation: every write path honors the seeded ``io_error``
chaos hook (:mod:`repro.runtime.chaos`) and degrades an ``OSError`` to
a counted metric (``repro_persist_io_errors_total``) plus
``Journal.degraded = True`` instead of an unhandled exception — an
analysis never fails because its journal disk did.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Optional, Union

from ..obs import METRICS


def canonical_json(payload: Any) -> str:
    """The canonical encoding both checksums are computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_checksum(payload: Any) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def frame_record(payload: Any) -> str:
    """One journal line (newline-terminated) framing ``payload``."""
    canon = canonical_json(payload)
    return json.dumps(
        {"l": len(canon), "h": hashlib.sha256(canon.encode()).hexdigest(),
         "r": payload},
        sort_keys=True, separators=(",", ":"),
    ) + "\n"


def _unframe(line: str) -> Any:
    """Decode one line; raises ``ValueError`` on any integrity failure."""
    doc = json.loads(line)
    if not isinstance(doc, dict) or "r" not in doc:
        raise ValueError("not a framed record")
    canon = canonical_json(doc["r"])
    if doc.get("l") != len(canon):
        raise ValueError("length mismatch")
    if doc.get("h") != hashlib.sha256(canon.encode()).hexdigest():
        raise ValueError("checksum mismatch")
    return doc["r"]


class Journal:
    """An append-only, checksummed, crash-recoverable JSONL log."""

    #: Chaos hook: repro.runtime.chaos.inject_faults installs a monkey
    #: here so tests can make journal writes fail on demand.
    _chaos = None

    FSYNC_POLICIES = ("always", "batch", "never")

    def __init__(self, path: Union[str, Path], fsync: str = "batch",
                 fsync_interval: int = 16):
        if fsync not in self.FSYNC_POLICIES:
            raise ValueError(
                f"fsync policy must be one of {self.FSYNC_POLICIES}")
        self.path = Path(path)
        self.fsync = fsync
        self.fsync_interval = max(1, fsync_interval)
        #: True once a write failed and was degraded to a metric: the
        #: in-process run stays correct, but durability is best-effort
        #: from that point on.
        self.degraded = False
        self.records_written = 0
        self.bytes_written = 0
        self._unsynced = 0
        self._fh = None

    # ----- writing ----------------------------------------------------------

    def _open(self):
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        return self._fh

    def append(self, payload: Any) -> bool:
        """Frame and append one record; returns False when degraded.

        An ``OSError`` (real or injected by the ``io_error`` chaos
        hook) is counted and swallowed — durability degrades, the run
        continues.
        """
        line = frame_record(payload)
        monkey = Journal._chaos
        try:
            if monkey is not None:
                monkey.maybe_io_error("journal")
            fh = self._open()
            fh.write(line)
            self._unsynced += 1
            if self.fsync == "always":
                fh.flush()
                os.fsync(fh.fileno())
                self._unsynced = 0
            elif self.fsync == "batch":
                fh.flush()
                if self._unsynced >= self.fsync_interval:
                    os.fsync(fh.fileno())
                    self._unsynced = 0
        except OSError:
            self.degraded = True
            if METRICS.enabled:
                METRICS.counter_inc(
                    "repro_persist_io_errors_total", where="journal")
            return False
        self.records_written += 1
        self.bytes_written += len(line)
        if METRICS.enabled:
            METRICS.counter_inc("repro_persist_journal_records_total")
            METRICS.counter_inc(
                "repro_persist_journal_bytes_total", len(line))
        return True

    def flush(self) -> None:
        """Push buffered appends to the OS and, unless the policy is
        ``"never"``, fsync them.

        A no-op when no append is left unsynced: under ``"always"``
        each append already synced itself, so a second fsync would pay
        for nothing.
        """
        if self._fh is not None and self._unsynced:
            try:
                self._fh.flush()
                if self.fsync != "never":
                    os.fsync(self._fh.fileno())
                self._unsynced = 0
            except OSError:
                self.degraded = True

    def close(self) -> None:
        if self._fh is not None:
            self.flush()
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    def reset(self) -> None:
        """Truncate the journal (after its state moved into a snapshot)."""
        self.close()
        try:
            with open(self.path, "w", encoding="utf-8"):
                pass
        except OSError:
            self.degraded = True
            if METRICS.enabled:
                METRICS.counter_inc(
                    "repro_persist_io_errors_total", where="journal")

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ----- replay -----------------------------------------------------------

    def replay(self, truncate_torn_tail: bool = True) -> list[Any]:
        """Read back every intact record, truncating any torn tail."""
        return self.recover(truncate_torn_tail)[0]

    def recover(self, truncate_torn_tail: bool = True
                ) -> tuple[list[Any], int]:
        """Full replay from byte 0: every intact record, plus the byte
        offset a later :meth:`tail` resumes from.

        The first line that fails to parse or verify marks the end of
        the valid prefix; with ``truncate_torn_tail`` the file is cut
        back to that byte so future appends start from a clean state.
        This is the only place a torn tail is ever truncated.
        """
        records: list[Any] = []
        good_bytes = 0
        torn = False
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return records, 0
        except OSError:
            self.degraded = True
            if METRICS.enabled:
                METRICS.counter_inc(
                    "repro_persist_io_errors_total", where="journal")
            return records, 0
        offset = 0
        for chunk in raw.split(b"\n"):
            if not chunk:
                offset += 1
                continue
            line_len = len(chunk) + 1  # +1 for the newline
            if offset + len(chunk) >= len(raw):
                line_len = len(chunk)  # final line, unterminated
            try:
                records.append(_unframe(chunk.decode("utf-8")))
            except ValueError:  # incl. JSON and UTF-8 decode errors
                torn = True
                break
            offset += line_len
            good_bytes = offset
        end = len(raw)
        if torn:
            end = good_bytes
            if METRICS.enabled:
                METRICS.counter_inc(
                    "repro_persist_torn_tail_truncations_total")
            if truncate_torn_tail:
                try:
                    with open(self.path, "r+b") as fh:
                        fh.truncate(good_bytes)
                except OSError:
                    self.degraded = True
        elif raw and not raw.endswith(b"\n") and truncate_torn_tail:
            # A complete final record that lost only its newline (the
            # write was cut between the JSON and the terminator): close
            # the line so the next append starts a fresh record.
            try:
                with open(self.path, "ab") as fh:
                    fh.write(b"\n")
                end += 1
            except OSError:
                self.degraded = True
        return records, end

    def tail(self, offset: int) -> Optional[tuple[list[Any], int]]:
        """Verify only the records appended since byte ``offset``.

        Returns ``(records, end)`` with ``end`` the next resume offset,
        or None when the caller must fall back to :meth:`recover`: the
        file is shorter than ``offset`` (reset under us), a line fails
        to verify, or the last line is unterminated.  Never modifies
        the file — a resume offset may be stale, so it must not decide
        what a torn tail is.
        """
        try:
            size = os.stat(self.path).st_size
        except FileNotFoundError:
            size = 0
        except OSError:
            return None
        if size < offset:
            return None
        if size == offset:
            return [], offset
        try:
            with open(self.path, "rb") as fh:
                fh.seek(offset)
                raw = fh.read()
        except OSError:
            return None
        if not raw.endswith(b"\n"):
            return None
        records: list[Any] = []
        for chunk in raw[:-1].split(b"\n"):
            if not chunk:
                continue
            try:
                records.append(_unframe(chunk.decode("utf-8")))
            except ValueError:
                return None
        return records, offset + len(raw)


def tear_tail(path: Union[str, Path]) -> bool:
    """Cut the journal's final framed line in half (a nemesis helper).

    Models the torn tail a power cut leaves behind: the last record's
    write was interrupted mid-line, so bytes exist but the frame cannot
    verify.  :meth:`Journal.replay` must detect exactly this shape and
    truncate back to the last good byte.  Only the *final* line is ever
    torn — corrupting an interior record would destroy the good suffix
    behind it, which no single interrupted ``write()`` can do.

    Returns True when a tear was applied (the file had at least one
    complete line to tear).
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError:
        return False
    body = raw.rstrip(b"\n")
    if not body:
        return False
    start = body.rfind(b"\n") + 1  # 0 when the file has a single line
    last = body[start:]
    if len(last) < 2:
        return False
    torn = raw[:start] + last[:len(last) // 2]
    try:
        with open(path, "wb") as fh:
            fh.write(torn)
            fh.flush()
            os.fsync(fh.fileno())
    except OSError:
        return False
    return True


# ----- snapshots (compaction targets) ---------------------------------------


def write_snapshot(path: Union[str, Path], state: Any) -> bool:
    """Atomically persist a compacted ``state`` with a checksum envelope.

    Temp-file + ``os.replace`` (the :mod:`repro.engine.cache` pattern),
    so a crash mid-write leaves either the old snapshot or the new one,
    never a truncated hybrid.  Returns False (and counts a metric) on
    I/O failure instead of raising.
    """
    path = Path(path)
    doc = {"sha256": payload_checksum(state), "state": state}
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    monkey = Journal._chaos
    try:
        if monkey is not None:
            monkey.maybe_io_error("snapshot")
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        return True
    except OSError:
        if METRICS.enabled:
            METRICS.counter_inc(
                "repro_persist_io_errors_total", where="snapshot")
        try:
            tmp.unlink()
        except OSError:
            pass
        return False


def load_snapshot(path: Union[str, Path]) -> Optional[Any]:
    """Read a snapshot back; any integrity failure is a miss (None)."""
    path = Path(path)
    try:
        raw = path.read_text()
    except (FileNotFoundError, OSError):
        return None
    try:
        doc = json.loads(raw)
        state = doc["state"]
        if doc["sha256"] != payload_checksum(state):
            raise ValueError("checksum mismatch")
        return state
    except (json.JSONDecodeError, ValueError, KeyError, TypeError):
        if METRICS.enabled:
            METRICS.counter_inc("repro_persist_snapshot_corrupt_total")
        try:
            path.unlink()
        except OSError:
            pass
        return None
