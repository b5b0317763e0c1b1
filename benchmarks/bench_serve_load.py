"""Load benchmark for ``repro serve`` — latency, hit rate, shed rate.

Boots a real in-process server (real HTTP, real solves) and drives it
through two phases:

* a **warm** phase: each unique program solved once, sequentially —
  the cold-solve latency floor and the journal/cache warm-up;
* a **burst** phase: a thread per request, several times the admission
  limit at once, mixing repeats (journal replays, served from the warm
  ``ResultCache``/journal without a solve) with fresh programs.

The burst is where the overload machinery earns its keep: requests
past the bounded queue shed with ``429`` + ``Retry-After`` instead of
queueing, and every connection still gets a terminal answer.  Recorded
into ``BENCH_serve_load.json``:

* ``latency_p50_seconds`` / ``latency_p99_seconds`` per phase (label
  ``variant`` = ``warm`` | ``burst``; CI gates the burst p99 against
  ``BENCH_serve_load.baseline.json``, calibrated by the warm p99),
* ``replay_hit_rate`` — fraction of burst answers served by replay,
* ``shed_rate`` — fraction of burst requests rejected by admission.

Runs under the chaos hooks too (CI's serve-smoke chaos leg sets
``REPRO_CHAOS_IO_ERROR`` / ``REPRO_CHAOS_REQUEST_KILL``): faults turn
into fast UNKNOWN answers, never errors, so the assertions below hold
either way.
"""

import threading
import time

from repro.client import ServiceClient
from repro.runtime.chaos import chaos_from_env
from repro.serve import AnalysisService, ReproServer, ServeConfig

SRC = """
prog(in buffer ib, out buffer ob){
  move-p(ib, ob, 1);
  assert(backlog-p(ob) >= 0);
}
"""

QUEUE_LIMIT = 4
WARM_UNIQUE = 6          # distinct programs solved in the warm phase
BURST_REPLAYS = 18       # burst requests replaying warm programs
BURST_FRESH = 6          # burst requests needing a real solve
STEPS = 2


def _program(i: int) -> str:
    # Job ids hash the source text: a comment suffices for uniqueness.
    return SRC + f"// workload {i}\n"


def _percentile(samples, q):
    ordered = sorted(samples)
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def test_serve_load(benchmark, bench_json, results_table, tmp_path):
    cfg = ServeConfig(
        port=0, spool_dir=tmp_path / "spool",
        queue_limit=QUEUE_LIMIT, workers=2,
        deadline_seconds=30.0, degraded_deadline=0.25,
    )
    service = AnalysisService(cfg)
    server = ReproServer(service)

    lock = threading.Lock()
    warm_latencies: list = []
    burst_latencies: list = []
    burst_statuses: list = []

    def one_burst_request(i: int) -> None:
        client = ServiceClient(port=server.port, timeout=60.0)
        if i < BURST_REPLAYS:
            src = _program(i % WARM_UNIQUE)        # replayed
        else:
            src = _program(WARM_UNIQUE + i)        # fresh solve
        started = time.perf_counter()
        try:
            doc = client.analyze(src, steps=STEPS, retry=False)
            status = doc["status"]
        except Exception as exc:  # noqa: BLE001 - a drop fails the bench
            status = f"error: {exc!r}"
        elapsed = time.perf_counter() - started
        with lock:
            burst_latencies.append(elapsed)
            burst_statuses.append(status)

    def run() -> None:
        server.start_background()
        warm = ServiceClient(port=server.port, timeout=60.0)
        for i in range(WARM_UNIQUE):
            started = time.perf_counter()
            doc = warm.analyze(_program(i), steps=STEPS)
            warm_latencies.append(time.perf_counter() - started)
            assert doc["status"] == 200, doc
        threads = [
            threading.Thread(target=one_burst_request, args=(i,))
            for i in range(BURST_REPLAYS + BURST_FRESH)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120.0)

    try:
        with chaos_from_env():
            benchmark.pedantic(run, rounds=1, iterations=1)
    finally:
        server.stop_background()

    total = BURST_REPLAYS + BURST_FRESH
    assert len(burst_statuses) == total
    # Terminal answers only — overload rejects are fine, drops are not.
    assert all(s in (200, 400, 429) for s in burst_statuses), burst_statuses
    replayed = service.counters["replayed"]
    rejected = [s for s in burst_statuses if s == 429]
    hit_rate = replayed / total
    shed_rate = len(rejected) / total
    assert service.admission.max_queued <= QUEUE_LIMIT

    # ``variant`` keys the regression gate: the warm phase (sequential
    # cold solves) anchors machine speed, the burst p99 is gated.
    for phase, latencies in (("warm", warm_latencies),
                             ("burst", burst_latencies)):
        for name, q in (("latency_p50_seconds", 0.50),
                        ("latency_p99_seconds", 0.99)):
            bench_json(name, _percentile(latencies, q), "s",
                       phase=phase, variant=phase)
    bench_json("replay_hit_rate", hit_rate, "fraction",
               replays=BURST_REPLAYS, total=total)
    bench_json("shed_rate", shed_rate, "fraction",
               queue_limit=QUEUE_LIMIT, total=total)
    bench_json("max_queued", service.admission.max_queued, "requests",
               queue_limit=QUEUE_LIMIT)

    results_table["Serve — burst load (4x admission limit)"] = [
        f"warm  p50/p99: {_percentile(warm_latencies, 0.5):6.3f}s"
        f" / {_percentile(warm_latencies, 0.99):6.3f}s",
        f"burst p50/p99: {_percentile(burst_latencies, 0.5):6.3f}s"
        f" / {_percentile(burst_latencies, 0.99):6.3f}s",
        f"replay hit rate: {hit_rate:5.1%}   shed rate: {shed_rate:5.1%}",
        f"queue high-water: {service.admission.max_queued}"
        f" (limit {QUEUE_LIMIT})",
    ]
