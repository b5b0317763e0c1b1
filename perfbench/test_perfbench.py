"""The benchmark's own checks.  Run from the checkout root with::

    python3 -m pytest perfbench -q

Each test starts ``worker.py`` processes exactly as ``run.py`` does,
at a short run length.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from kernel import KERNEL_REF_S  # noqa: E402
from run import ROOT, _child_env  # noqa: E402

#: The counts later changes may cite as counts: they must repeat exactly.
EXACT_COUNTS = ("sat.conflicts", "sat.propagations", "smt.cnf_clauses",
                "lang.programs", "trust.certificates")


def worker(tmp_path, workload: str, *, seed: int = 1, seconds: float = 4,
           trace: int = 0, extra=()) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", str(tmp_path), *extra,
           "--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300,
                          env=_child_env(), cwd=str(ROOT))
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["failed"] == 0, doc.get("errors")
    return doc


def test_normalizer_cannot_absorb_a_real_slowdown(tmp_path):
    """A fixed delay in one layer shows in verdict_p50_s, not the kernel.

    ``SymbolicMachine.__init__`` runs once per fig6_verify operation, so
    a 0.1 s sleep there must lift the normalized median by about
    0.1 s (scaled to reference seconds), while the kernel, which never
    touches the program, keeps its time.
    """
    delay = 0.1
    plain = worker(tmp_path, "fig6_verify")
    slowed = worker(tmp_path, "fig6_verify",
                    extra=["--delay", f"compiler.machine={delay}"])
    expected = delay * KERNEL_REF_S / slowed["kernel_s"]
    moved = (slowed["metrics"]["verdict_p50_s"][0]
             - plain["metrics"]["verdict_p50_s"][0])
    assert 0.7 * expected < moved < 1.3 * expected, (moved, expected)
    ratio = slowed["kernel_s"] / plain["kernel_s"]
    assert 0.8 < ratio < 1.25, ratio


@pytest.mark.parametrize("workload", ["fig6_verify", "query_sweep"])
def test_counts_repeat_exactly(tmp_path, workload):
    """Two traced runs of the same deck give the same counts, and two
    seeds give the same layer mix."""
    runs = [worker(tmp_path, workload, seed=seed, seconds=2, trace=1)["layers"]
            for seed in (1, 1, 2)]
    for name in EXACT_COUNTS:
        assert runs[0][name] == runs[1][name], name
    assert runs[0]["sat.solves"] > 0
    busy = [{k for k, v in r.items() if k.startswith("share.") and v > 0.001}
            for r in runs]
    assert busy[0] == busy[2]
    for name in ("lang.programs", "compiler.steps", "trust.certificates",
                 "sat.solves"):
        assert runs[0][name] == runs[2][name], name


def test_decks_are_seeded():
    n = len(inputs.QUERY_TABLE)

    def first_pass(seed):
        stream = inputs.dealt(inputs.QUERY_TABLE, seed, "sweep")
        return [next(stream) for _ in range(n)]

    a, b, c = first_pass(4), first_pass(4), first_pass(5)
    assert a == b and a != c
    assert sorted(map(repr, a)) == sorted(map(repr, inputs.QUERY_TABLE))
    assert sorted(map(repr, c)) == sorted(map(repr, a))


def test_serve_schedule_never_repeats_fresh_or_respelled_text():
    schedule = inputs.ServeSchedule(3)
    reqs = [schedule.next() for _ in range(400)]
    for kind in ("fresh", "respelled"):
        texts = [(r.source, r.job) for r in reqs if r.kind == kind]
        assert len(texts) == len(set(texts)), kind
    bases = {(job.source, job) for job in inputs.SERVE_BASE}
    assert all((r.source, r.job) in bases for r in reqs if r.kind == "replay")


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it refuses to run."""
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for f in HERE.glob("*.py"):
        (bare / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig6_verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
