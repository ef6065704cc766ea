"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload grid --seed 0 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same timed phase untraced and then again with layer spans installed
(``perfbench/spans.py``) and prints the per-layer metrics.  Every run
checks each simulated result against the ``engine="tick"`` oracle.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by
name and unit, and a result file with the environment stamp is written
under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_FILE = HERE / "reference.json"
#: Fresh-process import probes, and ``start`` repeats per phase; the
#: set-up time is the sum of the medians of each, plus the per-pass one.
IMPORT_REPEATS = 3
START_REPEATS = 3
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); "
    "import repro, repro.core.run, repro.core.distributed, "
    "repro.blackbox.resilience; print(time.perf_counter() - start)"
)


def _metric_table(kind: str) -> tuple:
    """(name, unit, better) of every ``kind`` metric in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple((m["name"], m["unit"], m["better"]) for m in spec[kind])


END_TO_END = _metric_table("end_to_end")
PER_LAYER = _metric_table("per_layer")
#: Layers whose self time is reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = frozenset(
    name[: -len(".self_s")] for name, _unit, _better in PER_LAYER
    if name.endswith(".self_s")
)


@dataclass
class Phase:
    """Everything one timed phase (a run of passes) measured."""

    walls: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    summaries: list = field(default_factory=list)
    spec_ms: list = field(default_factory=list)  # one list per pass
    encode_misses: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    counters: dict = field(default_factory=dict)

    @property
    def passes(self) -> int:
        return len(self.walls)

    @property
    def wall(self) -> float:
        return sum(self.walls)

    @property
    def sim_rate(self) -> float:
        return sum(s.sim_s for s in self.summaries) / self.wall


def registry_totals() -> dict:
    """Process-registry counters and gauges, summed over labels."""
    from repro.obs.metrics import process_registry

    snapshot = process_registry().snapshot()
    totals: dict = {}
    for name, _labels, value in snapshot.counters + snapshot.gauges:
        totals[name] = totals.get(name, 0.0) + value
    return totals


def run_phase(workload, seconds: float, tracer=None) -> Phase:
    """Run passes until their timed walls add up to ``seconds``."""
    from repro.media.cache import asset_cache
    from spans import CACHE_LAYER, CACHE_SPANS

    perf = time.perf_counter
    phase = Phase()
    try:
        for repeat in range(START_REPEATS):
            if repeat:
                workload.stop()
            began = perf()
            workload.start()
            phase.starts.append(perf() - began)
        # Counters cover the passes only, not the set-up's warm-up work.
        before = registry_totals()
        while True:
            began = perf()
            workload.setup()
            phase.setups.append(perf() - began)
            try:
                if tracer is not None:
                    # Spans cover the timed pass only, never set-up.
                    if workload.cache is not None:
                        tracer.install_on(
                            workload.cache, CACHE_SPANS, CACHE_LAYER)
                    tracer.active = True
                misses = asset_cache().misses
                wall, outcomes, spec_ms = workload.run_pass()
                phase.encode_misses += asset_cache().misses - misses
            finally:
                if tracer is not None:
                    tracer.active = False
                workload.teardown()
            phase.walls.append(wall)
            if spec_ms:
                phase.spec_ms.append(spec_ms)
            phase.summaries.append(workload.summarize(outcomes))
            if workload.cache is not None:
                phase.cache_hits += workload.cache.hits
                phase.cache_misses += workload.cache.misses
            if phase.wall >= seconds:
                break
    finally:
        workload.stop()
    after = registry_totals()
    phase.counters = {
        name: after[name] - before.get(name, 0.0) for name in after
    }
    return phase


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (NumPy's default method)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def measure_import_s() -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


def environment() -> dict:
    import numpy

    from repro.core.outcome_cache import code_fingerprint

    commit = None
    if (ROOT / ".git").exists():  # a bare checkout has no commit to name
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except OSError:
            pass
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "code_fingerprint": code_fingerprint(),
    }


def load_reference(workload) -> list | None:
    """Committed oracle digests, used only when the inputs match exactly.

    They were computed once for the default seed, so for that seed the
    gate also catches outputs that drift in both engines at once.
    """
    try:
        stored = json.loads(REFERENCE_FILE.read_text())[workload.name]
    except (OSError, KeyError, ValueError):
        return None
    if stored.get("key") != workload.config_key():
        return None
    return stored["digests"]


def computed_reference(workload, out_dir: Path) -> list:
    """Tick-oracle digests for these inputs under this code, computed
    once per checkout and kept under ``out_dir/reference``."""
    from repro.core.outcome_cache import code_fingerprint

    path = (out_dir / "reference"
            / f"{workload.name}-{workload.config_key()}-"
              f"{code_fingerprint()}.json")
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        pass
    digests = workload.reference()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(digests))
    os.replace(tmp, path)
    return digests


def end_to_end_metrics(phase: Phase, setup_s: float,
                       rss_mb: float, attempted: int, failed: int) -> dict:
    if phase.spec_ms:
        # Each spec's mean over the passes, then percentiles over specs.
        per_spec = [statistics.fmean(times) for times in zip(*phase.spec_ms)]
    else:
        # Single specs are out of sight (pool, daemons, one fleet run):
        # a few passes are too few samples for a percentile, so both
        # read the phase's mean, total wall over total units.
        per_spec = [phase.wall * 1e3 / sum(s.units for s in phase.summaries)]
    return {
        "sim_rate": phase.sim_rate,
        "spec_ms_p50": percentile(per_spec, 50),
        "spec_ms_p90": percentile(per_spec, 90),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer_metrics(workload, untraced: Phase, traced: Phase,
                      tracer) -> dict:
    from workloads import workers_available

    totals = tracer.totals()
    n = traced.passes

    def span(name, column):
        return totals.get(name, (0, 0.0, 0.0, 0.0))[column] / n

    out = {}
    for name, _unit, _better in PER_LAYER:
        base, _, column = name.rpartition(".")
        if column in ("calls", "s") and base in tracer.layer_of:
            out[name] = span(base, 0 if column == "calls" else 1)
    scalar, vec = "net.water_fill.scalar", "net.water_fill.vec"
    fills = span(scalar, 0) + span(vec, 0)
    out["net.water_fill.calls"] = fills
    out["net.water_fill.s"] = span(scalar, 1) + span(vec, 1)
    out["net.water_fill.vec_share"] = span(vec, 0) / fills if fills else 0.0
    out["net.advance_many.ticks"] = span("net.advance_many", 3)
    out["media.get_or_encode.misses"] = traced.encode_misses / n
    out["core.events.run.self_s"] = span("core.events.run", 2)
    out["core.multi.run.self_s"] = span("core.multi.run", 2)
    out["core.fleet.summarize_population.s"] = span(
        "core.fleet.summarize_population", 1)
    out["core.outcome_cache.get.s"] = span("core.outcome_cache.get", 1)
    out["core.outcome_cache.put.s"] = span("core.outcome_cache.put", 1)
    for layer, self_s in tracer.layer_self_s().items():
        if layer in SELF_TIME_LAYERS:
            out[f"{layer}.self_s"] = self_s / n

    # Counts the program exports, taken from the untraced phase.
    first = untraced.summaries[0]
    out["core.events.dispatches"] = first.dispatches
    out["core.events.noop_share"] = (
        first.noop_dispatches / first.dispatches if first.dispatches else 0.0)
    out["core.events.pushes_per_dispatch"] = (
        first.queue_pushes / first.dispatches if first.dispatches else 0.0)
    counters = untraced.counters
    passes = untraced.passes
    wall = untraced.wall

    def per_pass(name):
        return counters.get(name, 0.0) / passes

    tasks = counters.get("pool.tasks_dispatched", 0.0)
    pool_busy = (counters.get("pool.worker.busy_s", 0.0)
                 - counters.get("dispatch.host.busy_s", 0.0))
    capacity = wall * workers_available() if tasks else 0.0
    out["core.pool.tasks"] = tasks / passes
    out["core.pool.spawns"] = per_pass("pool.spawns")
    out["core.pool.busy_s"] = pool_busy / passes
    out["core.pool.utilization"] = pool_busy / capacity if capacity else 0.0
    out["core.pool.idle_s"] = max(0.0, capacity - pool_busy) / passes
    for name in ("retries", "timeouts", "quarantined", "pool_respawns"):
        out[f"core.supervisor.{name}"] = per_pass(f"sweep.{name}")
    lookups = untraced.cache_hits + untraced.cache_misses
    out["core.outcome_cache.hits"] = untraced.cache_hits / passes
    out["core.outcome_cache.misses"] = untraced.cache_misses / passes
    out["core.outcome_cache.hit_share"] = (
        untraced.cache_hits / lookups if lookups else 0.0)
    leases = counters.get("dispatch.leases_sent", 0.0)
    host_busy = counters.get("dispatch.host.busy_s", 0.0)
    out["core.distributed.leases"] = leases / passes
    out["core.distributed.redispatched"] = per_pass(
        "dispatch.redispatched_leases")
    out["core.distributed.hosts_unreachable"] = per_pass(
        "dispatch.hosts_unreachable")
    out["core.distributed.local_fallback"] = per_pass(
        "dispatch.local_fallback_leases")
    out["core.distributed.host_busy_s"] = host_busy / passes
    out["core.distributed.lease_overhead_ms"] = (
        (wall * workers_available() - host_busy) / leases * 1e3
        if leases else 0.0)
    out["obs.trace_overhead_share"] = 1.0 - traced.sim_rate / untraced.sim_rate
    return out


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, *,
                  config=None, out_dir: Path | None = None) -> dict:
    """Run one workload; returns the report (metrics, counts, env)."""
    from workloads import WORKLOADS

    out_dir = Path(out_dir) if out_dir is not None else ROOT / ".perfbench"
    workload_cls, config_cls = WORKLOADS[name]
    (out_dir / "work").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir / "work"))
    workload = workload_cls(
        config if config is not None else config_cls(), seed, workdir, ROOT
    )
    tracer = None
    try:
        import_s = measure_import_s()
        workload.prepare()
        try:
            untraced = run_phase(workload, seconds)
            traced = None
            if trace:
                from spans import Tracer

                tracer = Tracer()
                tracer.install()
                try:
                    traced = run_phase(workload, seconds, tracer)
                finally:
                    tracer.uninstall()
        finally:
            workload.teardown()
            workload.stop()
        rss_mb = peak_rss_mb()
        want = load_reference(workload)
        if want is None:
            want = computed_reference(workload, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    phases = [untraced] + ([traced] if traced is not None else [])
    summaries = [s for phase in phases for s in phase.summaries]
    attempted = sum(s.units for s in summaries)
    failed = sum(workload.count_failed(s, want) for s in summaries)
    setup_s = import_s + sum(
        statistics.median([t for phase in phases for t in getattr(phase, kind)])
        for kind in ("starts", "setups"))
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": environment(),
        "attempted": attempted,
        "failed": failed,
        "passes": untraced.passes,
        "pass_walls": untraced.walls,
        # Timed samples behind spec_ms: specs x passes on grid, else the
        # one phase mean.
        "samples": sum(map(len, untraced.spec_ms)) or 1,
        "end_to_end": end_to_end_metrics(
            untraced, setup_s, rss_mb, attempted, failed),
    }
    if trace:
        report["per_layer"] = per_layer_metrics(
            workload, untraced, traced, tracer)
        report["traced_passes"] = traced.passes
        report["spans_dropped"] = tracer.dropped
    stamp = f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        spans_path = results / f"{stamp}.spans.jsonl"
        tracer.write(str(spans_path))
        report["spans_file"] = str(spans_path.relative_to(out_dir))
    (results / f"{stamp}.json").write_text(json.dumps(report, indent=2))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid", "fleet", "sweep", "hosts"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from "
              "a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    report = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace))

    env = report["env"]
    print(f"# {args.workload} seed={args.seed} passes={report['passes']} "
          f"samples={report['samples']} cpus={env['cpu_count']} "
          f"affinity={env['affinity']} python={env['python']} "
          f"numpy={env['numpy']} commit={env['git_commit']}")
    failed_frac = report["failed"] / report["attempted"]
    print(f"failed_frac = {failed_frac:.6g} ratio "
          f"({report['failed']} of {report['attempted']})")
    if args.trace:
        table, values = PER_LAYER, report["per_layer"]
    else:
        table, values = END_TO_END, report["end_to_end"]
    for name, unit, _better in table:
        print(f"{name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit, _better in table
        },
    }))
    return 0


def _exit_on_sigterm(signum, frame):
    # Unwind through the ``finally`` blocks that stop pool workers and
    # worker daemons instead of dying with them still running.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    sys.exit(main())
