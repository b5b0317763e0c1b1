"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.netmodels.schedulers import PRIO_SRC, RR_SRC
from repro.smt.sat.cdcl import CDCLConfig


@pytest.fixture
def prio_file(tmp_path):
    path = tmp_path / "prio.buffy"
    path.write_text(PRIO_SRC)
    return str(path)


@pytest.fixture
def asserting_file(tmp_path):
    src = """\
p(in buffer ib, out buffer ob){
  monitor int steps;
  steps = steps + 1;
  assert(steps <= LIMIT);
  move-p(ib, ob, 1);
}
"""
    path = tmp_path / "asserting.buffy"
    path.write_text(src)
    return str(path)


class TestCli:
    def test_check(self, prio_file, capsys):
        assert main(["check", prio_file, "-D", "N=2"]) == 0
        out = capsys.readouterr().out
        assert "prio: OK" in out

    def test_retired_solver_opt_lists_the_valid_knobs(self, prio_file,
                                                      capsys):
        """``max_learnts_frac`` was inert and is gone: naming it is an
        unknown-option error that lists every ``CDCLConfig`` knob."""
        with pytest.raises(SystemExit) as exited:
            main(["verify", prio_file, "-D", "N=2",
                  "--solver-opt", "max_learnts_frac=0.35"])
        assert exited.value.code == 4
        err = capsys.readouterr().err
        assert "unknown solver option 'max_learnts_frac'" in err
        valid = err.strip().split("valid options: ", 1)[1].split(", ")
        assert valid == sorted(CDCLConfig.option_names())

    def test_check_bad_program(self, tmp_path, capsys):
        path = tmp_path / "bad.buffy"
        path.write_text("p(in buffer ib, out buffer ob){ x = 1; }")
        assert main(["check", str(path)]) == 4
        assert "error" in capsys.readouterr().err

    def test_pretty_round_trips(self, prio_file, capsys, tmp_path):
        assert main(["pretty", prio_file, "-D", "N=2"]) == 0
        printed = capsys.readouterr().out
        again = tmp_path / "again.buffy"
        again.write_text(printed)
        assert main(["check", str(again)]) == 0

    def test_run(self, prio_file, capsys):
        assert main(["run", prio_file, "-D", "N=2", "--horizon", "5"]) == 0
        out = capsys.readouterr().out
        assert "simulated 5 steps" in out
        assert "ibs[0]" in out

    def test_verify_proved(self, asserting_file, capsys):
        assert main(["verify", asserting_file, "-D", "LIMIT=4",
                     "--horizon", "3"]) == 0
        assert "proved" in capsys.readouterr().out

    def test_verify_violated_prints_trace(self, asserting_file, capsys):
        assert main(["verify", asserting_file, "-D", "LIMIT=2",
                     "--horizon", "4"]) == 1
        out = capsys.readouterr().out
        assert "violated" in out
        assert "counterexample over 4 steps" in out

    def test_smtlib_dump_parses(self, prio_file, capsys):
        assert main(["smtlib", prio_file, "-D", "N=2",
                     "--horizon", "2"]) == 0
        text = capsys.readouterr().out
        from repro.smt.smtlib import parse_smtlib

        script = parse_smtlib(text)
        assert script.has_check_sat

    def test_loc(self, capsys):
        assert main(["loc"]) == 0
        assert "Fair-Queue" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent.buffy"]) == 4

    def test_bad_define(self, prio_file):
        with pytest.raises(SystemExit):
            main(["check", prio_file, "-D", "N"])

    def test_verify_generous_timeout_still_proves(self, asserting_file, capsys):
        assert main(["verify", asserting_file, "-D", "LIMIT=4",
                     "--horizon", "3", "--timeout", "600"]) == 0
        assert "proved" in capsys.readouterr().out

    def test_verify_tiny_timeout_exits_3_with_report(self, asserting_file,
                                                     capsys):
        # 1 microsecond: the deadline passes during encoding, so the
        # run must stop early, exit 3, and print the resource report.
        assert main(["verify", asserting_file, "-D", "LIMIT=2",
                     "--horizon", "4", "--timeout", "1e-6"]) == 3
        out = capsys.readouterr().out
        assert "unknown" in out
        assert "resource budget exhausted: deadline" in out

    def test_verify_injected_unknown_exits_2(self, asserting_file, capsys):
        from repro.runtime import ChaosConfig, inject_faults

        with inject_faults(ChaosConfig(seed=1, unknown_rate=1.0)):
            code = main(["verify", asserting_file, "-D", "LIMIT=2",
                         "--horizon", "3"])
        assert code == 2
        out = capsys.readouterr().out
        assert "resource budget exhausted: injected" in out

    def test_verify_rejects_nonpositive_timeout(self, asserting_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", asserting_file, "-D", "LIMIT=2",
                  "--timeout", "0"])
        assert excinfo.value.code == 4  # usage error, not "violated"

    def test_usage_errors_exit_4_not_2(self, asserting_file):
        # argparse's stock exit code (2) would collide with "undecided".
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", asserting_file, "--timeout", "banana"])
        assert excinfo.value.code == 4


class TestShippedModel:
    """The `.buffy` file shipped with the repo must stay healthy."""

    MODEL = "examples/model.buffy"

    def test_check_run_verify(self, capsys):
        import pathlib

        model = str(pathlib.Path(__file__).resolve().parent.parent
                    / "examples" / "model.buffy")
        assert main(["check", model, "-D", "N=3"]) == 0
        assert main(["run", model, "-D", "N=3", "--horizon", "4"]) == 0
        assert main(["verify", model, "-D", "N=3", "--horizon", "3"]) == 0
        out = capsys.readouterr().out
        assert "proved" in out
