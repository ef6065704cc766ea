"""Sweep fabric: pool persistence, encode locality and the outcome cache.

Times the full paper grid (12 services x 14 profiles, event engine)
through the three fabric layers and writes the numbers to
``benchmarks/BENCH_fabric.json``:

* **per-call pool** — what every call paid before the fabric: spawn a
  pool, sweep, tear it down;
* **warm pool** — the persistent pool: the spawn and the worker-side
  catalogue encodes are paid once, later sweeps reuse both;
* **locality accounting** — per-worker encode gauges prove the
  locality-aware chunk planner had each worker encode each catalogue
  at most once (and each catalogue at most once pool-wide here, since
  every catalogue fits one chunk);
* **outcome cache** — the same sweep twice through a cold then fully
  warm content-addressed cache.

Every variant's outcomes are compared ``==`` against the in-process
serial sweep, so this is the fabric's determinism contract asserted at
full grid scale.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.outcome_cache import OutcomeCache
from repro.core.parallel import RunSpec, catalogue_key, default_worker_count
from repro.core.pool import active_worker_pool, close_worker_pool
from repro.core.run import execute
from repro.media.cache import clear_asset_cache
from repro.net.traces import PROFILE_COUNT
from repro.obs.metrics import process_registry, reset_process_registry
from repro.services import ALL_SERVICE_NAMES

from benchmarks.conftest import bench_env, once

GRID_DURATION_S = 45.0
FABRIC_BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_fabric.json"


def _worker_encode_gauges() -> dict[str, float]:
    """Per-worker ``pool.worker.asset_encodes`` gauge values, by pid."""
    snapshot = process_registry().snapshot()
    return {
        str(labels): value
        for name, labels, value in snapshot.gauges
        if name == "pool.worker.asset_encodes"
    }


def _timed_execute(grid, **kwargs):
    start = time.perf_counter()
    outcomes = execute(grid, **kwargs)
    return outcomes, time.perf_counter() - start


def test_perf_fabric(benchmark, show, tmp_path):
    grid = [
        RunSpec(service=name, profile_id=profile_id,
                duration_s=GRID_DURATION_S, engine="event")
        for name in ALL_SERVICE_NAMES
        for profile_id in range(1, PROFILE_COUNT + 1)
    ]
    catalogues = len({catalogue_key(spec) for spec in grid})
    workers = max(default_worker_count(), 2)

    def run():
        # In-process serial sweep: the reference outcomes.
        close_worker_pool()
        clear_asset_cache()
        serial, serial_wall = _timed_execute(grid, workers=0)

        # Per-call pool: spawn + worker warm-up on every single sweep.
        percall_walls = []
        percall = None
        for _ in range(2):
            close_worker_pool()
            clear_asset_cache()
            start = time.perf_counter()
            percall = execute(grid, workers=workers)
            close_worker_pool()
            percall_walls.append(time.perf_counter() - start)
        percall_wall = min(percall_walls)

        # Persistent pool: the first sweep pays the spawn and the
        # worker-side encodes; the second reuses both.
        close_worker_pool()
        clear_asset_cache()
        reset_process_registry()
        cold, cold_wall = _timed_execute(grid, workers=workers)
        encode_gauges = _worker_encode_gauges()
        pool_before_warm = active_worker_pool()
        warm, warm_wall = _timed_execute(grid, workers=workers)
        assert active_worker_pool() is pool_before_warm  # no respawn
        close_worker_pool()

        # Outcome cache: cold pass computes and stores, warm pass only
        # reads — no pool, no simulation, no encodes.
        cache = OutcomeCache(tmp_path / "fabric-cache")
        cached_first, first_wall = _timed_execute(grid, workers=0, cache=cache)
        cached_second, second_wall = _timed_execute(grid, workers=0, cache=cache)

        return {
            "grid": {
                "services": len(ALL_SERVICE_NAMES),
                "profiles": PROFILE_COUNT,
                "runs": len(grid),
                "duration_s": GRID_DURATION_S,
                "catalogues": catalogues,
            },
            "env": bench_env(),
            "workers": workers,
            "serial": {"wall_s": serial_wall},
            "pool": {
                "percall_wall_s": percall_wall,
                "cold_wall_s": cold_wall,
                "warm_wall_s": warm_wall,
                "warm_speedup_vs_percall": percall_wall / warm_wall,
                "warm_speedup_vs_cold": cold_wall / warm_wall,
            },
            "locality": {
                "worker_encodes": encode_gauges,
                "total_encodes": sum(encode_gauges.values()),
                "max_encodes_per_worker": max(encode_gauges.values()),
            },
            "outcome_cache": {
                "first_wall_s": first_wall,
                "second_wall_s": second_wall,
                "speedup": first_wall / second_wall,
                "hits": cache.hits,
                "misses": cache.misses,
                "hit_rate_second_pass": cache.hits / len(grid),
            },
            "records_identical": (
                percall == serial
                and cold == serial
                and warm == serial
                and cached_first == serial
                and cached_second == serial
            ),
        }

    results = once(benchmark, run)

    FABRIC_BASELINE_PATH.write_text(json.dumps(results, indent=2, sort_keys=True))

    show(
        "Sweep fabric (full grid, event engine)",
        ["variant", "wall s", "speedup", "identical"],
        [
            ["serial (in-process)", f"{results['serial']['wall_s']:.2f}",
             "1.00", "-"],
            [f"per-call pool x{results['workers']}",
             f"{results['pool']['percall_wall_s']:.2f}", "-", "-"],
            [f"cold pool x{results['workers']}",
             f"{results['pool']['cold_wall_s']:.2f}", "-", "-"],
            [f"warm pool x{results['workers']}",
             f"{results['pool']['warm_wall_s']:.2f}",
             f"{results['pool']['warm_speedup_vs_percall']:.2f} vs per-call",
             results["records_identical"]],
            ["cache cold", f"{results['outcome_cache']['first_wall_s']:.2f}",
             "-", "-"],
            ["cache warm", f"{results['outcome_cache']['second_wall_s']:.2f}",
             f"{results['outcome_cache']['speedup']:.0f} vs cold",
             results["records_identical"]],
        ],
    )

    # The determinism contract is unconditional: every fabric path
    # returns outcomes == the in-process serial sweep.
    assert results["records_identical"]

    # Locality: the cold parallel sweep encoded each catalogue at most
    # once per worker — and, since each catalogue fits in one chunk
    # here, at most once across the whole pool.
    assert results["locality"]["max_encodes_per_worker"] <= catalogues
    assert results["locality"]["total_encodes"] <= catalogues

    # The warm cache pass is pure disk reads: 100% hits, >=10x faster.
    assert results["outcome_cache"]["hit_rate_second_pass"] == 1.0
    assert results["outcome_cache"]["misses"] == len(grid)
    assert results["outcome_cache"]["speedup"] >= 10.0

    # Warm-pool wall-clock wins need real cores; on a single-core
    # container the sweep itself dominates spawn + warm-up, so the
    # 1.3x bar applies from 4 cores up (same gate as BENCH_sweep).
    if (os.cpu_count() or 1) >= 4 and workers >= 4:
        assert results["pool"]["warm_speedup_vs_percall"] >= 1.3
