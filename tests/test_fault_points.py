"""The one fault-point primitive: ``ChaosMonkey.fires(kind)``.

Pins what must not move when the chaos layer changes shape: the seeded
draw order of every hook, the kind table that drives ``REPRO_CHAOS_*``
parsing and the campaign's fault universe, and one metric increment
per fired fault.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import types

import pytest

from repro import obs
from repro.chaos import ScheduledMonkey
from repro.engine.options import EngineOptions
from repro.obs import METRICS
from repro.persist.journal import tear_tail
from repro.runtime.chaos import ChaosConfig, ChaosMonkey, InjectedFault
from repro.smt.solver import SmtSolver
from repro.smt.terms import mk_int, mk_int_var, mk_le

RATE_FIELDS = [f.name for f in dataclasses.fields(ChaosConfig)
               if f.name.endswith("_rate")]
KINDS = [name[: -len("_rate")] for name in RATE_FIELDS]


@pytest.fixture
def metrics():
    obs.reset()
    METRICS.enable()
    yield METRICS
    obs.reset()
    obs.disable()


@pytest.fixture
def fresh_env_warning(monkeypatch):
    import repro.runtime.chaos as chaos_mod

    monkeypatch.setattr(chaos_mod, "_warned_unknown_env", False)
    return chaos_mod


# ----- (a) the seeded draw order --------------------------------------------

#: Pure-boolean kinds once had their own ``should_*`` predicates; the
#: golden values below hold for either spelling.
_PREDICATES = {
    "proof_corrupt": "should_corrupt_proof",
    "kill_checkpoint": "should_kill_during_checkpoint",
    "request_kill": "should_kill_request_worker",
    "replica_kill": "should_kill_replica",
    "probe_flap": "should_flap_probe",
}


def _fires(monkey, kind):
    fires = getattr(monkey, "fires", None)
    if fires is None:
        return getattr(monkey, _PREDICATES[kind])()
    return fires(kind)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InjectedFault:
        return "InjectedFault"
    except OSError:
        return "OSError"


def _golden_run():
    rates = {name: 0.3 for name in RATE_FIELDS}
    monkey = ChaosMonkey(ChaosConfig(seed=11, delay_seconds=0.0, **rates))
    cert = types.SimpleNamespace(steps=[], num_vars=5)
    out = []
    for i in range(200):
        out.append(_outcome(monkey.intercept))
        out.append(_outcome(monkey.maybe_io_error,
                            "journal" if i % 2 else "cache"))
        out.append(monkey.corrupt_cache_text("abcdefgh"))
        out.append(monkey.slow_client_delay())
        out.append(_fires(monkey, "request_kill"))
        out.append(monkey.is_partitioned(f"router->r{i % 3}"))
        out.append(_fires(monkey, "replica_kill"))
        out.append(_fires(monkey, "probe_flap"))
        out.append(monkey.lease_skew())
        out.append(monkey.corrupt_proof(cert))
        out.append(_fires(monkey, "proof_corrupt"))
        out.append(_fires(monkey, "kill_checkpoint"))
        out.append(monkey.nemesis("replica_down"))
        if i % 50 == 49:
            monkey.heal_partitions()
    return monkey, out, cert


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def test_golden_draw_order():
    monkey, out, cert = _golden_run()
    assert out[:13] == [None, None, "abcdefgh", 0.0, True, False, False,
                        False, 60.0, False, True, False, False]
    assert monkey.log.schedule[:6] == [
        "ok", "request_kill", "lease_skew", "proof_corrupt", "fault",
        "partition:router->r1"]
    assert _sha(out) == (
        "c9f7394e7215439ff53097b038dffe638e997b2ff4d7e79a345184424335270f")
    assert _sha(monkey.log.schedule) == (
        "de3b9546fd4604a5cf370f743b26a7d68480380e25110f0f9adfdd30149557ec")
    log = monkey.log
    assert (log.calls, log.unknowns, log.faults, log.delays) == (
        200, 37, 58, 64)
    assert (log.proofs_corrupted, log.cache_corrupted, log.io_errors,
            log.checkpoint_kills) == (107, 58, 50, 57)
    assert (log.slow_clients, log.request_kills, log.replica_kills,
            log.probe_flaps, log.partitions, log.lease_skews) == (
        62, 63, 55, 60, 33, 71)
    assert len(cert.steps) == 56


def test_log_is_a_counter_with_the_attribute_spellings():
    monkey = ChaosMonkey(seed=0, io_error_rate=1.0)
    with pytest.raises(OSError, match="journal"):
        monkey.maybe_io_error("journal")
    assert monkey.log["io_error"] == monkey.log.io_errors == 1
    assert monkey.log.schedule == ["io_error:journal"]
    assert not hasattr(monkey.log, "io_errorz")


# ----- (b) the kind table ---------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_every_rate_field_is_an_env_knob(kind, fresh_env_warning, capsys):
    env = {"REPRO_CHAOS_" + kind.upper(): "0.5", "REPRO_CHAOS_SEED": "4"}
    with fresh_env_warning.chaos_from_env(env):
        monkey = SmtSolver._chaos
        assert getattr(monkey.config, f"{kind}_rate") == 0.5
        assert monkey.config.seed == 4
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("kind", KINDS)
def test_record_mode_counts_every_kind(kind):
    monkey = ScheduledMonkey(record=True)
    assert monkey.fires(kind) is False
    assert monkey.fires(kind) is False
    assert monkey.counts[kind] == 2
    assert monkey.fired == []


@pytest.mark.parametrize("kind", KINDS)
def test_a_scheduled_fire_counts_once(kind, metrics):
    monkey = ScheduledMonkey([(kind, 1)])
    assert [monkey.fires(kind) for _ in range(3)] == [False, True, False]
    assert monkey.fired == [(kind, 1)]
    assert monkey.log[kind] == 1
    assert metrics.counter_value(
        "repro_chaos_injected_total", kind=kind) == 1


def test_a_zero_rate_kind_draws_nothing():
    quiet = ChaosMonkey(seed=5, io_error_rate=0.5)
    noisy = ChaosMonkey(seed=5, io_error_rate=0.5)
    for _ in range(20):
        assert quiet.fires("partition") is False
        assert quiet.nemesis("replica_down") is False
    assert [quiet.fires("io_error") for _ in range(20)] == [
        noisy.fires("io_error") for _ in range(20)]


def test_torn_tail_is_counted_once(tmp_path, metrics):
    journal = tmp_path / "journal.jsonl"
    journal.write_text('{"a": 1}\n{"b": 2}\n')
    monkey = ScheduledMonkey([("torn_tail", 0)])
    assert monkey.nemesis("torn_tail")
    assert tear_tail(journal)
    assert metrics.counter_value(
        "repro_chaos_injected_total", kind="torn_tail") == 1


# ----- worker crashes reach the pool from the environment -------------------


def test_worker_crash_env_reaches_the_portfolio(monkeypatch):
    from repro.engine import parallel
    from repro.runtime.chaos import chaos_from_env

    seen = []

    class _Pool:
        def solve_portfolio(self, cnf, configs, **kwargs):
            seen.append(kwargs["chaos"])
            raise parallel.PoolUnavailable("recorded")

    monkeypatch.setattr(parallel, "get_pool", lambda jobs: _Pool())
    env = {
        "REPRO_CHAOS_WORKER_CRASH": "0.5",
        "REPRO_CHAOS_WORKER_MAX_CRASHES": "2",
        "REPRO_CHAOS_SEED": "3",
    }
    with chaos_from_env(env):
        monkey = SmtSolver._chaos
        assert monkey is not None
        assert monkey.config.worker_crash_rate == 0.5
        assert monkey.config.worker_max_crashes == 2
        solver = SmtSolver(options=EngineOptions.resolve(
            jobs=2, cache=False, checkpoints=False))
        x = mk_int_var("x")
        solver.set_bounds("x", 0, 10)
        solver.add(mk_le(mk_int(3), x))
        assert solver.check().name == "SAT"
    assert seen == [(0.5, 3, 2)]


def test_concurrent_consultations_lose_no_update():
    """Serve workers, router forwards and lease heartbeats consult one
    monkey concurrently: every consultation gets its own index."""
    import sys
    import threading

    threads, per_thread = 8, 400
    monkey = ScheduledMonkey([("io_error", i) for i in range(0, 3200, 7)])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=lambda: [
                monkey.fires("io_error") for _ in range(per_thread)])
            for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert monkey.counts["io_error"] == threads * per_thread
    assert sorted(monkey.fired) == sorted(monkey.schedule)
    assert monkey.log["io_error"] == len(monkey.schedule)
