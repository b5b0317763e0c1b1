"""Verdict benchmark for the ``repro`` package of this checkout.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig6_verify --seed 1 --seconds 25 --trace 0

Workloads: ``fig6_verify``, ``query_sweep`` (closed loops, one caller)
and ``serve_mixed`` (``repro serve`` in its own process, open loop).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ledger with ``--trace 1``.

Timings are reference seconds (see ``kernel.py``).  ``setup_s`` is the
median over three set-ups, each in a fresh process: two that stop after
set-up and the one that goes on to measure.  The package is imported
from ``src/`` of the checkout this file sits in; without it the
benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from kernel import to_reference
from ledger import METRICS as LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig6_verify", "query_sweep", "serve_mixed")
SETUP_REPEATS = 3
SETUP_TIMEOUT = 40.0


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, workdir: Path, *, setup_only: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=_child_env(), cwd=str(ROOT))
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker timed out after {timeout:.0f}s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {err[-2000:]}")
    return json.loads(lines[-1])


def _setup_reference(doc: dict) -> float:
    return to_reference(doc["setup_raw"], doc["setup_kernel"])


def run(args) -> dict:
    """Run one benchmark invocation; returns the result object."""
    workdir = ROOT / ".perfbench_work" / f"{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        warmup_errors: list = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                doc = _worker(args, workdir, setup_only=True,
                              timeout=SETUP_TIMEOUT)
                setups.append(_setup_reference(doc))
                warmup_errors += doc["warmup_errors"]
        doc = _worker(args, workdir, setup_only=False,
                      timeout=args.seconds + 120.0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    setups.append(_setup_reference(doc))
    warmup_errors += doc["warmup_errors"]
    failed = doc["failed"] + len(warmup_errors)
    errors = warmup_errors + doc.get("errors", [])
    if errors:
        print("failed operations:", *errors[:10], sep="\n  ", file=sys.stderr)
    for note in doc.get("notes", ()):
        print(f"perfbench: {note}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": doc["layers"][name], "unit": unit}
                   for name, unit in LAYER_METRICS}
    else:
        metrics = {"setup_s": {"value": statistics.median(setups),
                               "unit": "s"}}
        for name, (value, unit) in doc["metrics"].items():
            metrics[name] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": doc["attempted"],
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
