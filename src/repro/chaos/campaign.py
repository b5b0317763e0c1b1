"""The deterministic chaos campaign engine.

A campaign answers one question about a scenario (a batch run, a
single server, a routed cluster): *does every durability invariant
hold under every fault we know how to inject?*  Randomized background
chaos (``REPRO_CHAOS_*`` rates) answers it statistically; the campaign
answers it exhaustively and reproducibly:

1. **Record.**  Run the scenario once with a counting monkey that
   injects nothing.  Every chaos consultation — a solver intercept, a
   journal append, a lease renewal, a forward — increments a per-kind
   counter.  The resulting counts enumerate the scenario's *fault
   universe*: the set of ``(kind, index)`` points where a fault could
   fire.  The same run doubles as the **oracle**: the fault-free
   verdicts every episode is audited against.
2. **Schedule.**  Deterministically derive episode schedules from the
   universe: one episode per single fault point, then seeded sampled
   *pairs* of points of different kinds (correlated failures are where
   recovery code actually breaks), bounded by the episode budget.
3. **Episode.**  Re-run the scenario under a :class:`ScheduledMonkey`
   that fires exactly the scheduled points, then hand the scenario's
   spools and client-observed answers to the
   :mod:`~repro.chaos.auditor`.
4. **Bundle.**  A failing episode dumps a minimal repro bundle (seed,
   schedule, journals, verdicts) that ``repro chaos replay``
   re-executes.

Determinism contract (stated honestly): the fault *plan* — which
points fire in which episode — is a pure function of ``(scenario,
seed, episodes)``.  Episode execution consults the monkey from real
threads, so under concurrency the mapping from a consultation index to
a wall-clock event can shift between runs; the schedule itself, the
injection decisions, and any *logic-bug* violation they expose replay
deterministically.  Timing-dependent violations may need a few replay
runs to re-manifest — the bundle records everything needed to keep
trying.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

from ..obs import METRICS
from ..runtime.chaos import ChaosConfig, ChaosMonkey, inject_faults
from .auditor import Violation, audit_episode
from .report import CampaignReport, EpisodeResult, dump_bundle
from .scenarios import Scenario, ScenarioOutcome, make_scenario

#: One potential fault: the Nth consultation of a chaos kind.
FaultPoint = tuple[str, int]


class ScheduledMonkey(ChaosMonkey):
    """A monkey that fires a *schedule* instead of rolling dice.

    Every consultation site in the tree (solver intercepts, journal
    appends, lease writes, forwards, probes, nemesis points) maps to a
    ``(kind, index)`` pair by counting consultations per kind.  In
    **record** mode nothing fires and the counters enumerate the fault
    universe; in **scheduled** mode consultation *i* of kind *k* fires
    iff ``(k, i)`` is in the schedule.  Only the decision differs from
    :class:`ChaosMonkey`: every hook, payload and log is inherited.
    """

    def __init__(self, schedule: Sequence[FaultPoint] = (), *,
                 record: bool = False,
                 config: Optional[ChaosConfig] = None):
        super().__init__(config or ChaosConfig())
        self.schedule = set(
            (str(kind), int(index)) for kind, index in schedule)
        self.record = record
        self.counts: dict[str, int] = {}
        self.fired: list[FaultPoint] = []

    def _decide(self, kind: str) -> bool:
        """Count the consultation (zero-rate kinds too) and fire iff
        it is scheduled; called under the monkey's lock."""
        index = self.counts.get(kind, 0)
        self.counts[kind] = index + 1
        if self.record or (kind, index) not in self.schedule:
            return False
        self.fired.append((kind, index))
        return True

    def scheduled_kinds(self) -> set[str]:
        return {kind for kind, _ in self.schedule}

    def has_kind(self, kind: str) -> bool:
        return any(k == kind for k, _ in self.schedule)


# ----- campaign -------------------------------------------------------------


@dataclass
class CampaignConfig:
    """Everything ``repro chaos run`` maps 1:1 onto."""

    scenario: str = "cluster"
    episodes: int = 50
    seed: int = 7
    #: Where failing episodes dump repro bundles.
    bundle_dir: Optional[Path] = None
    #: Scratch space for episode spools (a tempdir when None).
    workdir: Optional[Path] = None
    #: Restrict the universe to these kinds (None = everything the
    #: record run discovered).
    kinds: Optional[Sequence[str]] = None
    #: Stop the campaign at the first failing episode.
    fail_fast: bool = False


def enumerate_points(counts: dict[str, int],
                     kinds: Optional[Sequence[str]] = None,
                     extra: Sequence[FaultPoint] = ()) -> list[FaultPoint]:
    """The fault universe: every ``(kind, index)`` the record run
    consulted, plus scenario-declared extra points, deterministically
    ordered (kind-alphabetical, then index)."""
    allowed = set(kinds) if kinds is not None else None
    points: list[FaultPoint] = []
    for kind in sorted(counts):
        if allowed is not None and kind not in allowed:
            continue
        points.extend((kind, i) for i in range(counts[kind]))
    for kind, index in extra:
        if allowed is not None and kind not in allowed:
            continue
        if (kind, index) not in points:
            points.append((kind, index))
    return points


def build_schedules(points: Sequence[FaultPoint], episodes: int,
                    seed: int,
                    seeded: Sequence[Sequence[FaultPoint]] = (),
                    ) -> list[list[FaultPoint]]:
    """Derive the episode plan, deterministically:

    1. the scenario's *seeded* schedules — correlated cases the
       campaign must not miss (only when every point exists in the
       universe);
    2. singles, round-robin across kinds (index 0 of every kind, then
       index 1, …) so a budget smaller than the universe still touches
       every fault kind instead of exhausting the alphabet's first;
    3. sampled pairs of different kinds from ``seed``.

    Pure function of its arguments."""
    import random

    universe = set(points)
    schedules: list[list[FaultPoint]] = []
    for combo in seeded:
        if len(schedules) >= episodes:
            break
        combo = [tuple(p) for p in combo]
        if all(p in universe for p in combo):
            schedules.append(combo)
    by_kind: dict[str, list[FaultPoint]] = {}
    for kind, index in points:
        by_kind.setdefault(kind, []).append((kind, index))
    for row in by_kind.values():
        row.sort(key=lambda p: p[1])
    depth = 0
    while len(schedules) < episodes:
        added = False
        for kind in sorted(by_kind):
            row = by_kind[kind]
            if depth < len(row):
                schedules.append([row[depth]])
                added = True
                if len(schedules) >= episodes:
                    break
        if not added:
            break
        depth += 1
    rng = random.Random(seed)
    guard = 0
    seen_pairs: set[tuple[FaultPoint, FaultPoint]] = set()
    for combo in schedules:
        if len(combo) == 2:
            a, b = combo
            seen_pairs.add((a, b) if a <= b else (b, a))
    while len(schedules) < episodes and len(points) >= 2:
        guard += 1
        if guard > episodes * 20:
            break  # tiny universes can't fill a big budget with pairs
        a, b = rng.sample(list(points), 2)
        if a[0] == b[0]:
            continue  # pairs mix kinds; same-kind doubles add little
        pair = (a, b) if a <= b else (b, a)
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        schedules.append([pair[0], pair[1]])
    return schedules


class ChaosCampaign:
    """Drives record → schedule → episodes → audit for one scenario."""

    def __init__(self, config: CampaignConfig,
                 echo: Callable[[str], None] = lambda line: None):
        self.config = config
        self.echo = echo
        self.scenario: Scenario = make_scenario(config.scenario)

    def run(self) -> CampaignReport:
        cfg = self.config
        base = Path(cfg.workdir) if cfg.workdir else Path(
            tempfile.mkdtemp(prefix="repro-chaos-"))
        base.mkdir(parents=True, exist_ok=True)
        owns_base = cfg.workdir is None

        oracle, counts = self._record(base / "oracle")
        extra = self.scenario.extra_points()
        points = enumerate_points(counts, cfg.kinds, extra)
        schedules = build_schedules(
            points, cfg.episodes, cfg.seed,
            seeded=self.scenario.seed_schedules())
        self.echo(
            f"fault universe: {len(points)} points across "
            f"{len(set(k for k, _ in points))} kinds; "
            f"running {len(schedules)} episodes")

        report = CampaignReport(
            scenario=cfg.scenario, seed=cfg.seed,
            universe=[list(p) for p in points],
            oracle_verdicts=dict(oracle.verdicts()),
        )
        try:
            for index, schedule in enumerate(schedules):
                episode = self._episode(base, index, schedule, oracle)
                report.add(episode)
                label = ",".join(f"{k}@{i}" for k, i in schedule)
                if episode.violations:
                    names = {v.invariant for v in episode.violations}
                    self.echo(
                        f"episode {index:03d} [{label}] RED: "
                        f"{', '.join(sorted(names))}"
                        + (f" -> {episode.bundle}" if episode.bundle
                           else ""))
                    if cfg.fail_fast:
                        break
                else:
                    self.echo(f"episode {index:03d} [{label}] ok")
        finally:
            if owns_base and not report.failed:
                shutil.rmtree(base, ignore_errors=True)
        return report

    # ----- phases -----------------------------------------------------------

    def _record(self, workdir: Path) -> tuple[ScenarioOutcome,
                                              dict[str, int]]:
        """The fault-free oracle run, counting every consultation."""
        monkey = ScheduledMonkey(record=True)
        workdir.mkdir(parents=True, exist_ok=True)
        with inject_faults(monkey=monkey):
            outcome = self.scenario.run(monkey, workdir)
        return outcome, dict(monkey.counts)

    def _episode(self, base: Path, index: int,
                 schedule: list[FaultPoint],
                 oracle: ScenarioOutcome) -> EpisodeResult:
        workdir = base / f"ep{index:03d}"
        workdir.mkdir(parents=True, exist_ok=True)
        monkey = ScheduledMonkey(schedule, config=ChaosConfig(
            seed=self.config.seed))
        violations: list[Violation]
        with inject_faults(monkey=monkey):
            outcome = self.scenario.run(monkey, workdir)
        violations = audit_episode(
            outcome, oracle=oracle,
            schedule_kinds=monkey.scheduled_kinds())
        episode = EpisodeResult(
            index=index, schedule=[list(p) for p in schedule],
            fired=[list(p) for p in monkey.fired],
            answers=outcome.answers, violations=violations,
        )
        if METRICS.enabled:
            METRICS.counter_inc(
                "repro_chaos_episodes_total",
                scenario=self.config.scenario,
                outcome="red" if violations else "green")
            for violation in violations:
                METRICS.counter_inc(
                    "repro_chaos_violations_total",
                    invariant=violation.invariant)
        if violations:
            bundle_root = (Path(self.config.bundle_dir)
                           if self.config.bundle_dir
                           else base / "bundles")
            episode.bundle = dump_bundle(
                bundle_root, scenario=self.config.scenario,
                seed=self.config.seed, episode=episode,
                outcome=outcome, oracle=oracle)
        else:
            shutil.rmtree(workdir, ignore_errors=True)
        return episode


def run_campaign(config: CampaignConfig,
                 echo: Callable[[str], None] = lambda line: None
                 ) -> CampaignReport:
    """Module-level entry point (what the CLI calls)."""
    return ChaosCampaign(config, echo).run()
