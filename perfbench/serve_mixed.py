"""The serve_mixed workload: ``repro serve`` under an open loop.

The server runs in its own process (2 worker threads, a temporary
spool), started as ``repro serve`` by ``serve_launcher.py``.  This
process is the load generator: at most two connections send requests
on a fixed schedule whether or not earlier ones have returned, and
every latency is timed from the request's due time.

A run is a fixed-rate phase well below capacity (its latencies give
``verdict_p50_s``/``verdict_p90_s``), then a fixed ladder of rates for
``capacity_rps``.  The reference kernel runs only in the pauses between
load segments, when no request is in flight.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import inputs
from kernel import (KERNEL_REF_S, KernelSampler, kernel, percentile,
                    to_reference)
from ledger import layer_metrics

HERE = Path(__file__).resolve().parent

WORKERS = 2              # server solve threads
CONNECTIONS = 2          # generator connections
FIXED_RATE = 20.0        # requests/s in the fixed-rate phase
SEGMENT_S = 1.0          # one load segment between kernel pauses
PAUSE_KERNELS = 3        # kernel runs per pause
#: Share of ``--seconds`` spent at FIXED_RATE; each 1 s segment is 20
#: requests, one whole pass of the mix.
FIXED_SHARE = 0.8
#: The capacity ladder in reference requests/s, climbed until a rung
#: misses twice in a row; the fixed-rate phase is rung 0.  Rungs are
#: ~5% apart where capacity has been seen (37-53) and wider around it;
#: the first rung sits well below the lowest capacity seen, so a climb
#: that stalls on it does not read as a collapse.  Each rung is offered
#: at ``rate * KERNEL_REF_S / kernel_s`` raw requests/s, so the climb
#: starts below capacity however fast the machine is at the time.
LADDER = (30.0, 34.0, 37.0, 39.0, 41.0, 43.0, 45.0, 47.0, 49.0, 51.0,
          53.0, 56.0, 59.0, 62.0, 66.0, 70.0, 75.0, 80.0, 86.0, 93.0,
          100.0)
LADDER_SEGMENT_S = 1.5
#: Latency limit on a rung's p90, in reference seconds.
LATENCY_LIMIT_S = 0.25
#: Independent climbs of the ladder; capacity_rps is their median.
CLIMBS = 2
#: Fresh jobs in set-up use limits from here on, so none repeats later.
WARMUP_FRESH_BASE = 5000


@dataclass
class Sample:
    due: float
    sent: float
    done: float
    error: str | None
    replayed: bool

    @property
    def latency(self) -> float:        # from the due time
        return self.done - self.due


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class ServeRun:
    """One server process plus the generator's state, as a context."""

    def __init__(self, seed: int, workdir: Path, trace: bool = False,
                 sampler: KernelSampler | None = None):
        from repro.client import ServiceClient

        self._client_cls = ServiceClient
        self.seed = seed
        self.trace = trace
        self.dir = workdir / f"serve-{os.getpid()}-{time.monotonic_ns()}"
        self.dir.mkdir(parents=True)
        self.ledger_path = self.dir / "ledger.json"
        self.port = _free_port()
        self.proc: subprocess.Popen | None = None
        self.warmup_errors: list[str] = []
        self.sampler = sampler or KernelSampler()
        self.schedule = inputs.ServeSchedule(seed)
        self._pauses: list[list[float]] = []

    # ----- lifetime ------------------------------------------------------

    def __enter__(self) -> "ServeRun":
        try:
            self._start()
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._stop()

    def _start(self) -> None:
        cmd = [sys.executable, str(HERE / "serve_launcher.py"),
               "--ledger", str(self.ledger_path), "--",
               "serve", "--port", str(self.port),
               "--spool", str(self.dir / "spool"),
               "--workers", str(WORKERS), "--jobs", "1"]
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.DEVNULL,
            stderr=open(self.dir / "server.log", "w"))
        client = self._client()
        deadline = time.monotonic() + 30.0
        while True:
            try:
                if client.ready().get("status") == 200:
                    break
            except Exception:  # noqa: BLE001 - not listening yet
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("repro serve did not become ready")
            time.sleep(0.02)
        # Pre-populate the journal: every base job solved once.
        for job in inputs.SERVE_BASE:
            self._warm(client, inputs.Request("base", job, job.source))
            self.sampler.sample()
        # Warm-up: one pass of the mix, with fresh limits of its own.
        warm = inputs.ServeSchedule(self.seed + 1_000_003,
                                    fresh_base=WARMUP_FRESH_BASE)
        for i in range(len(inputs.SERVE_PASS)):
            self._warm(client, warm.next())
            if i % 2:
                self.sampler.sample()

    def _stop(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        shutil.rmtree(self.dir, ignore_errors=True)

    def _client(self):
        return self._client_cls(port=self.port, timeout=10.0, max_retries=0)

    def server_peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def server_cpu_s(self) -> float:
        """User + system CPU seconds of the server process, all threads."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    # ----- requests ------------------------------------------------------

    @staticmethod
    def _one(client, req: inputs.Request) -> tuple[str | None, bool]:
        """Send one request and check its verdict: (error, replayed)."""
        try:
            doc = client.analyze(req.source, steps=req.job.steps,
                                 consts={"LIMIT": req.job.limit},
                                 retry=False)
        except Exception as exc:  # noqa: BLE001 - counted as failed
            return f"{req.kind} {req.job}: {exc!r}", False
        error = None
        if doc.get("status") != 200:
            error = f"{req.kind} {req.job}: status {doc.get('status')} {doc}"
        elif doc.get("verdict") != req.expected:
            error = (f"{req.kind} {req.job}: verdict {doc.get('verdict')},"
                     f" expected {req.expected}")
        elif req.kind == "replay" and not doc.get("replayed"):
            error = f"replay {req.job}: answered without journal replay"
        elif req.kind in ("respelled", "fresh") and doc.get("replayed"):
            error = f"{req.kind} {req.job}: unexpectedly replayed"
        return error, bool(doc.get("replayed"))

    def _warm(self, client, req: inputs.Request) -> None:
        error, _replayed = self._one(client, req)
        if error:
            self.warmup_errors.append(error)

    def _segment(self, rate: float, duration: float) -> list[Sample]:
        """Open loop: ``rate`` requests/s for ``duration`` seconds."""
        n = max(1, int(round(rate * duration)))
        reqs = [self.schedule.next() for _ in range(n)]
        samples: list = [None] * n
        lock = threading.Lock()
        cursor = [0]
        start = time.perf_counter() + 0.01

        def sender() -> None:
            client = self._client()
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= n:
                    return
                due = start + i / rate
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                error, replayed = self._one(client, reqs[i])
                samples[i] = Sample(due, sent, time.perf_counter(), error,
                                    replayed)

        threads = [threading.Thread(target=sender) for _ in range(CONNECTIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return samples

    def _pause(self) -> None:
        """Nothing in flight: time the kernel a few times."""
        self._pauses.append([kernel() for _ in range(PAUSE_KERNELS)])

    def _speed(self, first: int, last: int) -> float:
        """Median kernel seconds over pauses ``first``..``last``."""
        window = self._pauses[max(0, first):last + 1]
        return statistics.median(k for pause in window for k in pause)

    def _segments(self, rate: float, count: int) -> tuple[list, list, float]:
        """``count`` segments with kernel pauses; (samples, normalizers,
        the server's CPU time over the segments in reference seconds).

        A segment's normalizer is the median kernel of the two pauses
        on each side of it: kernels spread over a few seconds track the
        machine's speed better than a burst of them at one edge.
        """
        chunks = []
        self._pause()
        for _ in range(count):
            before = len(self._pauses) - 1
            cpu = self.server_cpu_s()
            chunk = self._segment(rate, SEGMENT_S)
            chunks.append((before, chunk, self.server_cpu_s() - cpu))
            self._pause()
        self._pause()  # the last segment's second pause after it
        samples, norms, cpu_ref = [], [], 0.0
        for before, chunk, cpu in chunks:
            k = self._speed(before - 1, before + 2)
            samples += chunk
            norms += [k] * len(chunk)
            cpu_ref += to_reference(cpu, k)
        return samples, norms, cpu_ref

    # ----- the run -------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        """The fixed-rate phase for FIXED_SHARE of ``seconds``, then
        CLIMBS climbs of the ladder, each running until it stops
        (typically 5-10 s)."""
        if self.trace:
            return self._measure_traced(seconds)
        fixed, norms, server_cpu = self._segments(
            FIXED_RATE, max(2, round(seconds * FIXED_SHARE / SEGMENT_S)))
        # Peak RSS over the fixed phase, whose request count every run
        # shares; the ladder's length varies from run to run.
        peak_rss_mb = self.server_peak_rss_mb()
        ref = [to_reference(s.latency, k) for s, k in zip(fixed, norms)]
        errors = [s.error for s in fixed if s.error]
        # Correct verdicts per reference second of server CPU: at a
        # fixed offered rate, what each verdict costs the server.
        per_cpu_s = (len(fixed) - len(errors)) / server_cpu
        rung0 = (FIXED_RATE * statistics.median(norms) / KERNEL_REF_S,
                 percentile(ref, 0.9))
        notes = []
        if rung0[1] > LATENCY_LIMIT_S:
            # No climb: rung 0's rate scaled down to the limit.
            notes.append(
                f"fixed-rate phase p90 {rung0[1]:.3f} s exceeds the"
                f" {LATENCY_LIMIT_S} s limit; capacity_rps extrapolated")
            capacity = rung0[0] * LATENCY_LIMIT_S / rung0[1]
            ladder_samples = []
        else:
            climbs = [self._capacity(rung0) for _ in range(CLIMBS)]
            capacity = statistics.median(rate for rate, _ in climbs)
            ladder_samples = [s for _, samples in climbs for s in samples]
        errors += [s.error for s in ladder_samples if s.error]
        metrics = {
            "verdict_p50_s": (percentile(ref, 0.5), "s"),
            "verdict_p90_s": (percentile(ref, 0.9), "s"),
            "verdicts_per_s": (per_cpu_s, "1/s"),
            "capacity_rps": (capacity, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        return {"attempted": len(fixed) + len(ladder_samples),
                "failed": len(errors), "errors": errors[:5],
                "notes": notes, "metrics": metrics}

    def _rung(self, ref_rate: float) -> tuple[bool, float, float, list]:
        """One ladder segment: (met, reference rate, p90, samples)."""
        self._pause()
        last = len(self._pauses) - 1
        rate = ref_rate * KERNEL_REF_S / self._speed(last - 3, last)
        samples = self._segment(rate, LADDER_SEGMENT_S)
        self._pause()
        self._pause()
        k = self._speed(last - 1, last + 2)
        p90 = percentile([to_reference(s.latency, k) for s in samples], 0.9)
        late = to_reference(samples[-1].sent - samples[-1].due, k)
        met = (not any(s.error for s in samples)
               and p90 <= LATENCY_LIMIT_S and late <= LATENCY_LIMIT_S)
        return met, rate * k / KERNEL_REF_S, p90, samples

    def _capacity(self, rung0: tuple) -> tuple[float, list]:
        """Climb LADDER; the rate (reference 1/s) where p90 meets the limit.

        A rung is met when every request got a correct verdict, its p90
        is within LATENCY_LIMIT_S and the generator ended the segment
        caught up (no growing backlog).  A missed rung is tried once
        more, so one stall of the shared machine does not end the
        climb.  Between the last met rung and the missed one, the rate
        is interpolated linearly to where p90 crosses the limit.  A
        request that failed or was refused misses the limit.  ``rung0``
        (the fixed-rate phase) must meet the limit.
        """
        all_samples: list = []
        met_rate, met_p90 = rung0
        for rate in LADDER:
            for _attempt in range(2):
                met, ref_rate, p90, samples = self._rung(rate)
                all_samples += samples
                if met:
                    break
            if met:
                met_rate, met_p90 = ref_rate, p90
                continue
            if p90 > LATENCY_LIMIT_S:
                frac = (LATENCY_LIMIT_S - met_p90) / (p90 - met_p90)
                return met_rate + frac * (ref_rate - met_rate), all_samples
            return met_rate, all_samples
        return met_rate, all_samples

    def _measure_traced(self, seconds: float) -> dict:
        """Fixed rate only: untraced for a quarter of ``seconds``, then
        traced for a quarter (whole segments, at least one each)."""
        count = max(1, round(seconds / 4 / SEGMENT_S))
        plain, plain_norms, _cpu = self._segments(FIXED_RATE, count)
        self.proc.send_signal(signal.SIGUSR1)
        marker = self.ledger_path.with_suffix(".on")
        deadline = time.monotonic() + 10
        while not marker.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("server did not start tracing")
            time.sleep(0.01)
        traced, traced_norms, _cpu = self._segments(FIXED_RATE, count)
        self.proc.send_signal(signal.SIGTERM)
        self.proc.wait(timeout=30)
        summary = json.loads(self.ledger_path.read_text())
        client_total = sum(s.done - s.sent for s in traced)
        wire = client_total - summary["handled"][1]
        samples = plain + traced
        errors = [s.error for s in samples if s.error]
        metrics = layer_metrics(summary, len(traced), wire_total=wire)
        metrics["persist.replayed"] = sum(s.replayed for s in traced)
        norms = plain_norms + traced_norms
        metrics["bench.kernel_s"] = statistics.median(norms)
        metrics["bench.late_p90_s"] = percentile(
            [to_reference(s.sent - s.due, k) for s, k in zip(samples, norms)],
            0.9)
        # The untraced side keeps only its second half, as warm as the
        # traced segments that follow it.
        warm = len(plain) // 2
        p50 = [percentile([to_reference(s.latency, k) for s, k in zip(xs, ks)],
                          0.5)
               for xs, ks in ((plain[warm:], plain_norms[warm:]),
                              (traced, traced_norms))]
        metrics["bench.trace_overhead"] = p50[1] / p50[0]
        metrics["bench.traced_verdicts"] = len(traced)
        return {"attempted": len(samples), "failed": len(errors),
                "errors": errors[:5], "layers": metrics}
