"""CNF-identity gate: sha256 of every CNF the benchmark instances build.

Usage (from the root of a checkout)::

    python scripts/cnf_digest.py                     # print the digests
    python scripts/cnf_digest.py --check benchmarks/cnf_digests.json

Runs the operations of two verdict-benchmark workloads in this process,
one after another in a fixed order:

* ``fig6/<scheduler>/T=<n>``: the Fig-6 FQ VCs (buggy and fixed) at
  horizons 1..3, through ``DafnyBackend.verify_monolithic``;
* ``sweep/<scheduler>/<query>/T=<n>[/victim=<v>]``: every distinct
  scheduler x query pair of the ``query_sweep`` table, through
  ``repro.analyze`` exactly as the benchmark calls it.

For each operation it records the sha256 of the DIMACS text of every
bit-blaster's final CNF, in creation order.  A change that must leave
the encoding alone (a faster term layer, a faster loader) leaves every
digest as it is; a change that moves the CNF on purpose regenerates the
committed file.  ``PYTHONHASHSEED`` is pinned to 0 (the script re-runs
itself when it is not), because set iteration order reaches the
encoder.  With ``--check`` it exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HORIZONS = (1, 2, 3)


def _op_name(query) -> str:
    name = f"sweep/{query.scheduler}/{query.kind}/T={query.horizon}"
    if query.kind == "starvation":
        name += f"/victim={query.victim}"
    return name


def digests() -> dict[str, list[str]]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import closed_loop
    import inputs
    from repro.smt.bitblast import BitBlaster

    blasters: list = []
    init = BitBlaster.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        blasters.append(self)

    BitBlaster.__init__ = recording_init
    ops = [(f"fig6/{sched}/T={t}", closed_loop.setup_fig6,
            inputs.Fig6Op(sched, t))
           for sched in ("fq_buggy", "fq_fixed") for t in HORIZONS]
    ops += [(_op_name(q), closed_loop.setup_query_sweep, q)
            for q in dict.fromkeys(inputs.QUERY_TABLE)]
    workloads: dict = {}
    out: dict[str, list[str]] = {}
    for name, setup, op in ops:
        if setup not in workloads:
            workloads[setup] = setup()
        work = workloads[setup]
        blasters.clear()
        result = work.run_op(op)
        out[name] = [hashlib.sha256(b.cnf.to_dimacs().encode()).hexdigest()
                     for b in blasters]
        # The oracle solves the FPerf-style baseline with blasters of
        # its own; only the operation's are digested.
        error = work.check(op, result)
        if error is not None:
            raise SystemExit(f"cnf_digest: {name}: {error}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--check", metavar="FILE",
                   help="compare with a committed digest file; exit 1 on "
                        "any difference")
    argv = sys.argv[1:] if argv is None else list(argv)
    args = p.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        return subprocess.call([sys.executable, __file__, *argv], env=env)
    got = digests()
    if args.check is None:
        print(json.dumps(got, indent=1, sort_keys=True))
        return 0
    want = json.loads(Path(args.check).read_text(encoding="utf-8"))
    diff = sorted(k for k in want.keys() | got.keys()
                  if want.get(k) != got.get(k))
    for key in diff:
        print(f"CNF differs: {key}: committed {want.get(key)}, "
              f"now {got.get(key)}")
    print(f"cnf_digest: {len(got)} operations, {len(diff)} differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
