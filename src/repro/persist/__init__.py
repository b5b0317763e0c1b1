"""Durability layer: write-ahead journal, solver checkpoints, batch queue.

Three pieces, one discipline (checksummed records, atomic replacement,
corrupt = miss):

* :class:`Journal` — append-only JSONL write-ahead log with per-record
  sha256 framing, torn-tail truncation on replay, and snapshot-based
  compaction;
* :class:`CheckpointStore` — CDCL solver state keyed by CNF
  fingerprint, so a budget-exhausted or killed solve resumes with its
  learned clauses instead of restarting;
* :class:`BatchRunner` / :func:`analyze_many` — a crash-recoverable
  queue of analysis jobs with retries, backoff and deadletters.
"""

from .batch import (
    BatchReport,
    BatchRunner,
    JobRecord,
    LeaseHeld,
    SpoolLease,
    analyze_many,
    job_id_for,
)
from .checkpoint import CheckpointStore, cnf_fingerprint
from .journal import (
    Journal,
    canonical_json,
    frame_record,
    load_snapshot,
    payload_checksum,
    write_snapshot,
)

__all__ = [
    "BatchReport",
    "BatchRunner",
    "CheckpointStore",
    "JobRecord",
    "Journal",
    "LeaseHeld",
    "SpoolLease",
    "analyze_many",
    "canonical_json",
    "cnf_fingerprint",
    "frame_record",
    "job_id_for",
    "load_snapshot",
    "payload_checksum",
    "write_snapshot",
]
