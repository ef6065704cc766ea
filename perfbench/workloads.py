"""The benchmark's four workloads: grid, fleet, sweep and hosts.

Each workload is a batch the driver submits and waits for (a closed
loop with one client: the next pass starts only after the previous one
returned).  A workload builds all of its inputs from the benchmark seed
and hands the program only those inputs.  Per timed phase the runner
calls ``start`` (set-up that lasts the whole phase, repeated a few
times to time it) and finally ``stop``; per pass it calls ``setup``
(set-up every pass needs), ``run_pass`` (which times itself),
``teardown`` (always, also after a failure), then ``summarize`` outside
any timing.  ``reference`` computes the tick-oracle digests after the
timed phases.

Why these four (also in BENCHMARK.json):

* ``grid`` is the paper's replay grid, 12 services x 14 profiles, one
  client per run; player, net, event engine and analysis dominate and
  the sweep layers sit idle.
* ``fleet`` is one cell of mixed clients with churn; per-client player
  logic, the multi-session engine and the vector water-fill dominate.
* ``sweep`` is many short fault-injected sessions on the worker pool
  with a half-warm outcome cache and a journal, so per-lease overhead
  (pickling, pool IPC, supervisor, fsyncs, cache reads and writes)
  is a large share of the time.
* ``hosts`` is the grid's specs sharded over loopback worker daemons;
  the only workload that reaches the distributed fabric, and its gap
  to ``grid`` is the fabric's cost.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
import select
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.blackbox.resilience import standard_fault_scenarios
from repro.core import run as core_run
from repro.core.distributed import SweepCoordinator
from repro.core.fleet import DEVICE_CLASSES, FleetSpec
from repro.core.outcome_cache import OutcomeCache
from repro.core.parallel import RunSpec
from repro.core.pool import close_worker_pool
from repro.core.supervisor import SweepPolicy
from repro.media.cache import clear_asset_cache
from repro.net.schedule import ConstantSchedule
from repro.services.profiles import get_service

from oracle import count_mismatches, fleet_digests, spec_digest

DEFAULT_SEED = 0
ALL_SERVICES = (
    "H1", "H2", "H3", "H4", "H5", "H6",
    "D1", "D2", "D3", "D4", "S1", "S2",
)


def derive_seed(seed: int, label: str) -> int:
    """An independent 32-bit seed per consumer of the benchmark seed."""
    blob = hashlib.sha256(f"perfbench:{seed}:{label}".encode()).digest()
    return int.from_bytes(blob[:4], "big")


def workers_available() -> int:
    return max(1, len(os.sched_getaffinity(0)))


class CpuRotation:
    """Pins each pass of a serial workload to the next CPU in turn.

    On a shared machine each CPU can be slowed by its own neighbour for
    tens of seconds at a time; a serial pass left where the scheduler
    put it samples one CPU's luck for the whole run, while rotating
    makes every run sample each CPU the process may use equally.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turn = 0

    def pin_next(self) -> None:
        os.sched_setaffinity(0, {self.cpus[self.turn % len(self.cpus)]})
        self.turn += 1

    def release(self) -> None:
        os.sched_setaffinity(0, self.cpus)


@dataclass
class PassSummary:
    """What one pass produced, measured outside the timed region."""

    units: int  # specs, or clients on fleet
    sim_s: float  # simulated client-seconds delivered
    digests: list = field(default_factory=list)
    hard_failures: int = 0  # raised or returned a FailedOutcome
    dispatches: float = 0.0
    noop_dispatches: float = 0.0
    queue_pushes: float = 0.0


def _event_counts(outcomes) -> tuple[float, float, float]:
    dispatches = noops = pushes = 0.0
    for outcome in outcomes:
        metrics = getattr(outcome, "metrics", None)
        if metrics is None:
            continue
        dispatches += metrics.value("session.dispatches") or 0.0
        noops += metrics.value("session.events", type="noop") or 0.0
        pushes += metrics.value("session.queue_pushes") or 0.0
    return dispatches, noops, pushes


class Workload:
    name = ""
    #: The outcome cache a pass uses, if any (the tracer times it).
    cache: Optional[OutcomeCache] = None

    def __init__(self, config, seed: int, workdir: Path, root: Path):
        self.config = config
        self.seed = seed
        self.workdir = workdir
        self.root = root

    def config_key(self) -> str:
        blob = repr((self.name, dataclasses.asdict(self.config), self.seed))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def prepare(self) -> None:
        """Untimed work before the first set-up (inputs, prefill payloads)."""

    def start(self) -> None:
        """Set-up that lasts a whole phase (undone by :meth:`stop`)."""

    def stop(self) -> None:
        """Release what :meth:`start` started; safe to call twice."""

    def setup(self) -> None:
        """Set-up every pass needs afresh."""

    def run_pass(self) -> tuple[float, list, list]:
        """The timed unit: (wall s, outcomes, per-spec ms or [])."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what ``setup`` and ``run_pass`` started."""

    def summarize(self, outcomes: list) -> PassSummary:
        raise NotImplementedError

    def reference(self) -> list:
        """Tick-oracle digests, in the order :meth:`summarize` gives."""
        raise NotImplementedError

    def count_failed(self, summary: PassSummary, want: list) -> int:
        return max(
            count_mismatches(summary.digests, want), summary.hard_failures
        )


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridConfig:
    services: tuple = ALL_SERVICES
    profiles: tuple = tuple(range(1, 15))
    duration_s: float = 45.0


def grid_specs(config: GridConfig, seed: int, engine: str) -> list[RunSpec]:
    trace_seed = derive_seed(seed, "trace")
    content_seed = derive_seed(seed, "content")
    return [
        RunSpec(
            service=service,
            profile_id=profile,
            duration_s=config.duration_s,
            trace_seed=trace_seed,
            content_seed=content_seed,
            engine=engine,
        )
        for service in config.services
        for profile in config.profiles
    ]


def _spec_summary(outcomes, specs) -> PassSummary:
    dispatches, noops, pushes = _event_counts(outcomes)
    return PassSummary(
        units=len(specs),
        sim_s=sum(spec.duration_s for spec in specs),
        digests=[spec_digest(outcome) for outcome in outcomes],
        hard_failures=sum(
            1 for outcome in outcomes
            if outcome is None or outcome.record is None
        ),
        dispatches=dispatches,
        noop_dispatches=noops,
        queue_pushes=pushes,
    )


def _log_failure(what: str) -> None:
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class GridWorkload(Workload):
    """Serial replay grid on the event engine, each spec timed."""

    name = "grid"

    def prepare(self) -> None:
        self.specs = grid_specs(self.config, self.seed, "event")
        self.rotation = CpuRotation()

    def start(self) -> None:
        # Catalogue encodes: one per service, shared by all profiles.
        clear_asset_cache()
        content_seed = self.specs[0].content_seed
        for service in self.config.services:
            get_service(service).encode_asset(
                self.config.duration_s, content_seed
            )

    def run_pass(self):
        outcomes, spec_ms = [], []
        perf = time.perf_counter
        self.rotation.pin_next()
        start = perf()
        for spec in self.specs:
            began = perf()
            try:
                outcomes.extend(core_run.execute([spec], workers=0))
            except Exception:
                _log_failure(f"grid spec {spec.service_name}/{spec.profile_id}")
                outcomes.append(None)
            spec_ms.append((perf() - began) * 1e3)
        return perf() - start, outcomes, spec_ms

    def teardown(self) -> None:
        self.rotation.release()

    def summarize(self, outcomes):
        return _spec_summary(outcomes, self.specs)

    def reference(self):
        oracle = core_run.execute(
            grid_specs(self.config, self.seed, "tick"), workers=0
        )
        return [spec_digest(outcome) for outcome in oracle]


# ---------------------------------------------------------------------------
# fleet
# ---------------------------------------------------------------------------


#: The fleet's device-class pool and its weights.
FLEET_DEVICES = ("default", "phone", "tv")
FLEET_DEVICE_WEIGHTS = (0.5, 0.3, 0.2)


@dataclass(frozen=True)
class FleetConfig:
    services: tuple = ("H1", "H4", "D1", "D3", "S1", "S2")
    clients: int = 100
    duration_s: float = 50.0
    # Arrivals within ~10 s and a long mean dwell keep each roster's
    # client-seconds within a few percent across seeds.
    arrival_rate_per_s: float = 10.0
    mean_dwell_s: float = 300.0
    cell_mbps: float = 150.0


def fleet_spec(config: FleetConfig, seed: int, engine: str) -> FleetSpec:
    return FleetSpec(
        services=config.services,
        clients=config.clients,
        service_weights=tuple(1.0 for _ in config.services),
        devices=tuple(DEVICE_CLASSES[name] for name in FLEET_DEVICES),
        device_weights=FLEET_DEVICE_WEIGHTS,
        duration_s=config.duration_s,
        content_seed=derive_seed(seed, "content"),
        churn_seed=derive_seed(seed, "churn"),
        arrival_rate_per_s=config.arrival_rate_per_s,
        mean_dwell_s=config.mean_dwell_s,
        schedule=ConstantSchedule(config.cell_mbps * 1e6),
        engine=engine,
    )


class FleetWorkload(Workload):
    """One weighted, churning fleet on a shared cell (event engine)."""

    name = "fleet"

    def prepare(self) -> None:
        self.spec = fleet_spec(self.config, self.seed, "event")
        self.rotation = CpuRotation()

    def setup(self) -> None:
        # Per-client encodes belong to the fleet run itself: every
        # ``repro fleet`` call pays them, so each pass starts cold.
        clear_asset_cache()

    def run_pass(self):
        self.rotation.pin_next()
        start = time.perf_counter()
        try:
            outcomes = core_run.execute([self.spec], workers=0)
        except Exception:
            _log_failure("fleet")
            outcomes = [None]
        return time.perf_counter() - start, outcomes, []

    def teardown(self) -> None:
        self.rotation.release()

    def summarize(self, outcomes):
        outcome = outcomes[0]
        if outcome is None:
            return PassSummary(
                units=self.config.clients, sim_s=0.0,
                hard_failures=self.config.clients,
            )
        clients, population = fleet_digests(outcome)
        duration = self.config.duration_s
        sim_s = sum(
            (record.departure_s if record.departure_s is not None
             else duration) - record.arrival_s
            for record in outcome.clients
            if record.final_state != "unarrived"
        )
        return PassSummary(
            units=len(outcome.clients),
            sim_s=sim_s,
            digests=clients + [population],
        )

    def reference(self):
        oracle = core_run.execute(
            [fleet_spec(self.config, self.seed, "tick")], workers=0
        )[0]
        clients, population = fleet_digests(oracle)
        return clients + [population]

    def count_failed(self, summary, want):
        if summary.hard_failures:
            return summary.hard_failures
        clients = count_mismatches(summary.digests[:-1], want[:-1])
        population = summary.digests[-1:] != want[-1:]
        return max(clients, int(population))


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


#: Share of the sweep's specs stored in the outcome cache in set-up.
SWEEP_CACHED_SHARE = 0.5
#: The sweep's supervisor policy: per-spec timeout and attempts.
SWEEP_TIMEOUT_S = 60.0
SWEEP_MAX_ATTEMPTS = 2


@dataclass(frozen=True)
class SweepConfig:
    services: tuple = ALL_SERVICES
    profiles: tuple = (1, 3, 5, 7, 9, 11, 13)
    duration_s: float = 20.0


def sweep_specs(config: SweepConfig, seed: int, engine: str) -> list[RunSpec]:
    trace_seed = derive_seed(seed, "trace")
    content_seed = derive_seed(seed, "content")
    specs = []
    for scenario in standard_fault_scenarios(config.duration_s):
        faults = scenario.faults
        if faults is not None:
            faults = dataclasses.replace(
                faults,
                seeded_errors=tuple(
                    dataclasses.replace(
                        model, seed=derive_seed(seed, f"fault.errors.{i}")
                    )
                    for i, model in enumerate(faults.seeded_errors)
                ),
                truncation=(
                    dataclasses.replace(
                        faults.truncation,
                        seed=derive_seed(seed, "fault.truncation"),
                    )
                    if faults.truncation is not None else None
                ),
            )
        for service in config.services:
            for profile in config.profiles:
                specs.append(RunSpec(
                    service=service,
                    profile_id=profile,
                    duration_s=config.duration_s,
                    trace_seed=trace_seed,
                    content_seed=content_seed,
                    faults=faults,
                    engine=engine,
                ))
    return specs


class SweepWorkload(Workload):
    """Supervised resilience sweep: pool, half-warm cache, journal."""

    name = "sweep"

    def prepare(self) -> None:
        self.specs = sweep_specs(self.config, self.seed, "event")
        self.workers = workers_available()
        self.policy = SweepPolicy(
            timeout_s=SWEEP_TIMEOUT_S,
            max_attempts=SWEEP_MAX_ATTEMPTS,
            quarantine=True,
        )
        picker = random.Random(derive_seed(self.seed, "prefill"))
        count = round(len(self.specs) * SWEEP_CACHED_SHARE)
        cached = sorted(picker.sample(range(len(self.specs)), count))
        # The payloads the set-up stores; computing them is not set-up.
        self.prefill = [
            (self.specs[i], core_run.run_one(self.specs[i], keep_result=False))
            for i in cached
        ]
        self.pass_dir: Optional[Path] = None

    def setup(self) -> None:
        self.pass_dir = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.workdir))
        self.cache = OutcomeCache(self.pass_dir / "cache")
        for spec, outcome in self.prefill:
            self.cache.put(spec, outcome)
        # Like a fresh `repro resilience` process: workers start cold.
        clear_asset_cache()

    def run_pass(self):
        start = time.perf_counter()
        try:
            outcomes = core_run.execute(
                self.specs,
                workers=self.workers,
                cache=self.cache,
                policy=self.policy,
                journal=self.pass_dir / "journal",
            )
            close_worker_pool()
        except Exception:
            _log_failure("sweep")
            outcomes = [None] * len(self.specs)
        return time.perf_counter() - start, outcomes, []

    def teardown(self) -> None:
        close_worker_pool()
        if self.pass_dir is not None:
            shutil.rmtree(self.pass_dir, ignore_errors=True)
            self.pass_dir = None

    def summarize(self, outcomes):
        return _spec_summary(outcomes, self.specs)

    def reference(self):
        oracle = core_run.execute(
            sweep_specs(self.config, self.seed, "tick"), workers=0
        )
        return [spec_digest(outcome) for outcome in oracle]


# ---------------------------------------------------------------------------
# hosts
# ---------------------------------------------------------------------------

DAEMON_START_TIMEOUT_S = 30.0


class HostsWorkload(Workload):
    """The grid's specs sharded over loopback ``repro worker`` daemons."""

    name = "hosts"

    def prepare(self) -> None:
        self.specs = grid_specs(self.config, self.seed, "event")
        self.daemons: list[subprocess.Popen] = []
        self.hosts: list[str] = []
        self.journal_dir: Optional[Path] = None

    def _start_daemon(self) -> subprocess.Popen:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--listen", "127.0.0.1:0", "--workers", "0"],
            cwd=self.workdir,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )

    @staticmethod
    def _bound_address(daemon: subprocess.Popen) -> str:
        ready, _, _ = select.select(
            [daemon.stdout], [], [], DAEMON_START_TIMEOUT_S
        )
        line = daemon.stdout.readline() if ready else ""
        marker = " listening on "
        if marker not in line:
            raise RuntimeError(f"worker daemon did not start: {line!r}")
        return line.split(marker, 1)[1].strip()

    def start(self) -> None:
        for _ in range(workers_available()):
            self.daemons.append(self._start_daemon())
        self.hosts = [self._bound_address(d) for d in self.daemons]
        # The protocol handshake each sweep opens with, once per daemon.
        probe = SweepCoordinator(self.hosts)
        for host in self.hosts:
            probe._handshake(host).channel.close()
        # One untimed pass warms each daemon's catalogue encodes, as
        # grid's set-up does, so every timed pass sees warm daemons.
        core_run.execute(self.specs, hosts=self.hosts)

    def setup(self) -> None:
        self.journal_dir = Path(
            tempfile.mkdtemp(prefix="journal-", dir=self.workdir))

    def run_pass(self):
        start = time.perf_counter()
        try:
            outcomes = core_run.execute(
                self.specs, hosts=self.hosts, journal=self.journal_dir)
        except Exception:
            _log_failure("hosts")
            outcomes = [None] * len(self.specs)
        return time.perf_counter() - start, outcomes, []

    def teardown(self) -> None:
        if self.journal_dir is not None:
            shutil.rmtree(self.journal_dir, ignore_errors=True)
            self.journal_dir = None

    def stop(self) -> None:
        for daemon in self.daemons:
            if daemon.poll() is None:
                daemon.terminate()
        for daemon in self.daemons:
            try:
                daemon.wait(timeout=10)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait(timeout=10)
            if daemon.stdout is not None:
                daemon.stdout.close()
        self.daemons = []
        self.hosts = []

    def summarize(self, outcomes):
        return _spec_summary(outcomes, self.specs)

    def reference(self):
        oracle = core_run.execute(
            grid_specs(self.config, self.seed, "tick"), workers=0
        )
        return [spec_digest(outcome) for outcome in oracle]


WORKLOADS = {
    "grid": (GridWorkload, GridConfig),
    "fleet": (FleetWorkload, FleetConfig),
    "sweep": (SweepWorkload, SweepConfig),
    "hosts": (HostsWorkload, GridConfig),
}
