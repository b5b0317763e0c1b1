"""Start ``repro serve`` the way users run it, with the ledger ready.

Usage::

    python3 perfbench/serve_launcher.py --ledger OUT.json -- serve --port P ...

Everything after ``--`` is passed to the ``repro`` command line.  On
SIGUSR1 the launcher installs the ledger's wrappers in this process
and writes ``OUT.json.on``; when serve exits it writes the recorder's
summary to ``OUT.json``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--ledger", required=True)
    p.add_argument("repro_args", nargs=argparse.REMAINDER)
    args = p.parse_args(argv)
    repro_args = args.repro_args[1:] if args.repro_args[:1] == ["--"] \
        else args.repro_args

    import ledger
    from repro.cli import main as repro_main

    recorder = ledger.Recorder()
    ledger_path = Path(args.ledger)

    def start_tracing(_signum, _frame) -> None:
        recorder.install()
        ledger_path.with_suffix(".on").write_text("on")

    signal.signal(signal.SIGUSR1, start_tracing)
    code = repro_main(repro_args)
    ledger_path.write_text(json.dumps(recorder.summary()))
    return code


if __name__ == "__main__":
    sys.exit(main())
