"""One benchmark process: set up a workload, then (unless ``--setup-only``)
measure it.  Started by ``run.py``; prints one JSON line as its last
line of output.

``--t0`` is the ``time.monotonic()`` reading the parent took just
before starting this process, so the reported set-up time covers the
interpreter's start, every import, input generation, building and
warm-up.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

#: Kernel runs just before and just after set-up, for its normalizer.
SETUP_KERNELS = 5


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--delay", default=None, metavar="SPAN=SECONDS",
                   help="test only: add a fixed delay to one ledger span")
    args = p.parse_args(argv)

    from kernel import KernelSampler

    # One core for the work, the kernel beside it and, in serve_mixed,
    # the server (a child inherits the mask): the kernel then measures
    # the core the work runs on, not a neighbour with other contention.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    # Kernels at both ends of set-up and between its warm-up operations;
    # their own time is not set-up time.
    sampler = KernelSampler()
    sampler.sample(SETUP_KERNELS)

    def setup_doc(warmup_errors: list, checking: float = 0.0) -> dict:
        setup_raw = time.monotonic() - args.t0 - sampler.spent - checking
        sampler.sample(SETUP_KERNELS)
        return {"setup_raw": setup_raw, "setup_kernel": sampler.median(),
                "warmup_errors": warmup_errors}

    if args.workload == "serve_mixed":
        import serve_mixed

        with serve_mixed.ServeRun(args.seed, Path(args.workdir),
                                  trace=bool(args.trace),
                                  sampler=sampler) as run:
            out = setup_doc(run.warmup_errors)
            if not args.setup_only:
                out.update(run.measure(args.seconds))
    else:
        import closed_loop

        work = closed_loop.SETUPS[args.workload]()
        if args.delay:
            _add_delay(args.delay)
        out = setup_doc(*closed_loop.warm_up(work, sampler))
        if not args.setup_only:
            out.update(closed_loop.measure(
                work, args.seed, args.seconds, bool(args.trace)))
    print(json.dumps(out), flush=True)
    return 0


def _add_delay(spec: str) -> None:
    """Slow one layer down by a fixed sleep per call (guard test only)."""
    import ledger

    span, seconds = spec.split("=")
    delay = float(seconds)
    for owner, attr, name, _after in ledger.entry_points():
        if name == span:
            original = getattr(owner, attr)

            def slowed(*a, _original=original, **k):
                time.sleep(delay)
                return _original(*a, **k)

            setattr(owner, attr, slowed)
            return
    raise SystemExit(f"unknown span {span!r}")


if __name__ == "__main__":
    sys.exit(main())
