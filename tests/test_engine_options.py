"""Engine options are resolved once, in one place.

:meth:`EngineOptions.resolve` is the only reader of the ``REPRO_*``
engine variables, and solvers and back ends call it at construction:

* a resolution table over explicit ``environ`` dicts;
* construction-time resolution (the environment at ``check()`` time
  does not matter);
* ``cache=True`` is the process-wide in-memory cache;
* malformed values warn once per (variable, value);
* the env-scrubbed matrix: every ``analyze`` back end gives the same
  verdicts with the environment set and no keyword as with the
  environment scrubbed and an explicit keyword;
* a structural check that no other ``src/`` module reads the names.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro import Verdict
from repro.compiler.symexec import EncodeConfig
from repro.engine import options as options_mod
from repro.engine.cache import DEFAULT_DISK_DIR, ResultCache
from repro.engine.options import EngineOptions
from repro.netmodels.schedulers import round_robin, strict_priority
from repro.persist.checkpoint import CheckpointStore
from repro.smt.solver import CheckResult, SmtSolver
from repro.smt.terms import mk_and, mk_bool_var, mk_int, mk_le, mk_not, mk_or

ENGINE_ENV = ("REPRO_JOBS", "REPRO_CACHE", "REPRO_CACHE_DIR",
              "REPRO_CERTIFY", "REPRO_CHECKPOINT_DIR")
CONFIG = EncodeConfig(buffer_capacity=4, arrivals_per_step=2)
# Small enough that 5 back ends x 4 engine settings x 2 spellings stay
# well under half a minute, proof checking included.
MATRIX_CONFIG = EncodeConfig(buffer_capacity=2, arrivals_per_step=1)


@pytest.fixture
def scrubbed(monkeypatch):
    """No engine variable set, whatever CI leg runs the suite."""
    for name in ENGINE_ENV:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


# ----- (a) the resolution table ----------------------------------------------


def test_empty_environment_gives_the_defaults():
    assert EngineOptions.resolve(environ={}) == EngineOptions()


@pytest.mark.parametrize("jobs, environ, expected", [
    (None, {}, 1),
    (None, {"REPRO_JOBS": "3"}, 3),
    (None, {"REPRO_JOBS": "0"}, 1),
    (2, {"REPRO_JOBS": "3"}, 2),
    (0, {}, 1),
])
def test_jobs(jobs, environ, expected):
    assert EngineOptions.resolve(jobs=jobs, environ=environ).jobs == expected


@pytest.mark.parametrize("certify, environ, expected", [
    (None, {}, False),
    (None, {"REPRO_CERTIFY": "1"}, True),
    (None, {"REPRO_CERTIFY": "Yes"}, True),
    (None, {"REPRO_CERTIFY": "off"}, False),
    (True, {}, True),
    (False, {"REPRO_CERTIFY": "1"}, False),
])
def test_certify(certify, environ, expected):
    resolved = EngineOptions.resolve(certify=certify, environ=environ)
    assert resolved.certify is expected


def test_cache_resolution(tmp_path):
    def cache(setting=None, **environ):
        return EngineOptions.resolve(cache=setting, environ=environ).cache

    assert cache() is None
    assert cache(REPRO_CACHE="0") is None
    memory = cache(REPRO_CACHE="1")
    assert isinstance(memory, ResultCache) and memory.disk_dir is None
    assert cache(REPRO_CACHE="on") is memory  # shared per resolved value
    assert cache(REPRO_CACHE_DIR=str(tmp_path)).disk_dir == tmp_path
    assert cache(REPRO_CACHE="disk").disk_dir == DEFAULT_DISK_DIR
    assert cache(False, REPRO_CACHE="1") is None
    # True is the process-wide in-memory cache, whatever the env says.
    assert cache(True) is memory
    assert cache(True, REPRO_CACHE_DIR=str(tmp_path)) is memory
    mine = ResultCache()
    assert cache(mine, REPRO_CACHE="1") is mine


def test_checkpoint_resolution(tmp_path):
    def store(setting=None, **environ):
        return EngineOptions.resolve(
            checkpoints=setting, environ=environ).checkpoints

    assert store() is None
    mine = CheckpointStore(tmp_path)
    assert store(mine) is mine
    assert store(tmp_path).directory == tmp_path
    env_dir = str(tmp_path / "env")
    assert store(False, REPRO_CHECKPOINT_DIR=env_dir) is None
    resolved = store(REPRO_CHECKPOINT_DIR=env_dir)
    assert resolved is not None and resolved.directory == Path(env_dir)
    assert resolved is store(REPRO_CHECKPOINT_DIR=env_dir)  # cached per dir
    with pytest.raises(TypeError, match="names no directory"):
        store(True)


def test_direct_construction_takes_bools_as_resolve_does():
    direct = EngineOptions(jobs=1, cache=False, certify=True,
                           checkpoints=False)
    assert direct.cache is None and direct.checkpoints is None
    assert EngineOptions(cache=True).cache is \
        EngineOptions.resolve(cache=True, environ={}).cache
    with pytest.raises(TypeError, match="names no directory"):
        EngineOptions(checkpoints=True)
    solver = SmtSolver(options=direct)
    a = mk_bool_var("opt_direct")
    solver.add(a, mk_not(a))
    assert solver.check() is CheckResult.UNSAT
    assert solver.certificate is not None


# ----- (b) construction-time resolution --------------------------------------


def test_environment_is_read_at_construction_not_at_check(scrubbed):
    solver = SmtSolver()
    scrubbed.setenv("REPRO_CERTIFY", "1")
    a = mk_bool_var("opt_a")
    solver.add(a, mk_not(a))
    assert solver.check() is CheckResult.UNSAT
    assert solver.certificate is None
    assert solver.options.certify is False


def test_backend_resolves_once(scrubbed):
    backend = repro.SmtBackend(strict_priority(2), 2, config=CONFIG)
    scrubbed.setenv("REPRO_JOBS", "2")
    assert backend._new_solver().options is backend.options
    assert backend.options.jobs == 1


# ----- cache=True ------------------------------------------------------------


def test_cache_true_is_the_in_memory_cache(scrubbed):
    def run():
        return repro.analyze(
            round_robin(2),
            lambda bk: mk_le(mk_int(2), bk.deq_count("ibs[1]")),
            steps=2, config=CONFIG, cache=True, certify=False, jobs=1,
        )

    first, second = run(), run()
    assert first.verdict is second.verdict is Verdict.PROVED
    assert second.stats["cache_hit"]


# ----- malformed values ------------------------------------------------------


@pytest.mark.parametrize("name, raw", [
    ("REPRO_JOBS", "two"),
    ("REPRO_CERTIFY", "yes please"),
    ("REPRO_CACHE", "dsik"),
])
def test_malformed_value_warns_and_keeps_its_meaning(scrubbed, name, raw):
    scrubbed.setattr(options_mod, "_warned", set())
    scrubbed.setenv(name, raw)
    x = mk_bool_var("opt_x")
    with pytest.warns(RuntimeWarning, match=name):
        solver = SmtSolver()
        solver.add(mk_or(x, mk_not(x)))
        assert solver.check() is CheckResult.SAT
    # The value is what it always was: sequential, uncertified, and a
    # typo'd cache mode still caches in memory.
    assert solver.options.jobs == 1
    assert solver.options.certify is False
    if name == "REPRO_CACHE":
        assert solver.options.cache is not None
        assert solver.options.cache.disk_dir is None


def test_malformed_value_warns_once_per_value(monkeypatch, recwarn):
    monkeypatch.setattr(options_mod, "_warned", set())
    for _ in range(3):
        EngineOptions.resolve(environ={"REPRO_JOBS": "lots"})
    EngineOptions.resolve(environ={"REPRO_JOBS": "many"})
    messages = [str(w.message) for w in recwarn.list
                if issubclass(w.category, RuntimeWarning)]
    assert len(messages) == 2
    assert "'lots'" in messages[0] and "'many'" in messages[1]


# ----- (c) the env-scrubbed matrix -------------------------------------------


def conservation(view):
    return mk_and(*[
        (view.deq_p(label) + view.backlog_p(label)).eq(view.enq_p(label))
        for label in view.buffer_labels()
    ])


MATRIX = {
    "smt": dict(program=strict_priority(2), prove=True,
                query=lambda bk: mk_le(mk_int(0), bk.deq_count("ibs[0]"))),
    "fperf": dict(program=round_robin(2),
                  query=lambda fp: mk_le(mk_int(1),
                                         fp.backend.deq_count("ibs[0]"))),
    "dafny": dict(program=strict_priority(2), query=conservation),
    "mc": dict(program=round_robin(2), query=conservation),
    "houdini": dict(program=strict_priority(2), query=None),
}


@pytest.mark.parametrize("backend", sorted(MATRIX))
def test_env_and_explicit_keywords_agree(scrubbed, backend):
    case = MATRIX[backend]
    built: list[EngineOptions] = []
    init = SmtSolver.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.options)

    scrubbed.setattr(SmtSolver, "__init__", spy)

    def run(**knobs):
        built.clear()
        outcome = repro.analyze(
            case["program"], case["query"], backend=backend, steps=2,
            config=MATRIX_CONFIG, prove=case.get("prove", False), **knobs)
        return outcome.verdict, list(built)

    for jobs in (1, 2):
        for certify in (False, True):
            scrubbed.setenv("REPRO_JOBS", str(jobs))
            scrubbed.setenv("REPRO_CERTIFY", "1" if certify else "0")
            from_env = run()
            scrubbed.delenv("REPRO_JOBS")
            scrubbed.delenv("REPRO_CERTIFY")
            explicit = run(jobs=jobs, certify=certify)
            assert from_env == explicit, (backend, jobs, certify)
            assert all(o == EngineOptions(jobs=jobs, certify=certify)
                       for o in explicit[1]), (backend, jobs, certify)


# ----- (d) one reader --------------------------------------------------------


def test_only_the_options_module_reads_engine_variables():
    src = Path(repro.__file__).parent
    # cli.py's serve command *writes* REPRO_CHECKPOINT_DIR (setdefault)
    # so its own back ends checkpoint under the spool; it never reads it.
    allowed = {
        "engine/options.py": set(ENGINE_ENV),
        "cli.py": {"REPRO_CHECKPOINT_DIR"},
    }
    found = {}
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        names = {
            node.value for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and node.value in ENGINE_ENV
        }
        extra = names - allowed.get(rel, set())
        if extra:
            found[rel] = sorted(extra)
    assert found == {}
