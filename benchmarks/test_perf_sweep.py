"""Sweep engine throughput: simulated seconds per wall second.

Times the full paper grid (12 services x 14 profiles) through the sweep
engine's backends — serial and parallel ``execute()`` — plus the encode
cache in isolation, and writes the numbers to
``benchmarks/BENCH_sweep.json`` as a regression baseline.  The event
engine's speed against the tick loop is timed by ``test_perf_event.py``.

Run-to-run output equality between backends is asserted here at full
grid scale (records are compared with ``==``), so this doubles as the
heaviest invariance check in the repo.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.parallel import RunSpec, default_worker_count
from repro.core.run import execute
from repro.media.cache import asset_cache, clear_asset_cache
from repro.net.traces import PROFILE_COUNT
from repro.services import ALL_SERVICE_NAMES, get_service

from benchmarks.conftest import bench_env, once

GRID_DURATION_S = 45.0
BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_sweep.json"


def _timed_run(grid, *, cold_cache: bool, **execute_kwargs):
    if cold_cache:
        clear_asset_cache()
    start = time.perf_counter()
    records = [o.record for o in execute(grid, **execute_kwargs)]
    wall = time.perf_counter() - start
    simulated = sum(record.duration_s for record in records)
    return records, wall, simulated


def test_perf_sweep(benchmark, show):
    grid = [
        RunSpec(service=name, profile_id=profile_id,
                duration_s=GRID_DURATION_S)
        for name in ALL_SERVICE_NAMES
        for profile_id in range(1, PROFILE_COUNT + 1)
    ]

    def run():
        results = {}
        serial_records, serial_wall, simulated = _timed_run(
            grid, cold_cache=True, workers=0
        )
        results["serial"] = {
            "wall_s": serial_wall,
            "sim_s_per_wall_s": simulated / serial_wall,
        }

        # Encode cache in isolation: cold encode vs cache hit.
        clear_asset_cache()
        spec = get_service("H1")
        t0 = time.perf_counter()
        spec.encode_asset(600.0, 11)
        cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        spec.encode_asset(600.0, 11)
        warm = time.perf_counter() - t0
        results["encode_cache"] = {
            "cold_s": cold,
            "warm_s": warm,
            "speedup": cold / warm if warm > 0 else float("inf"),
        }

        workers = max(default_worker_count(), 2)
        parallel_records, parallel_wall, _ = _timed_run(
            grid, cold_cache=True, workers=workers, chunksize=4
        )
        results["parallel"] = {
            "workers": workers,
            "wall_s": parallel_wall,
            "sim_s_per_wall_s": simulated / parallel_wall,
            "speedup_vs_serial": serial_wall / parallel_wall,
            "records_identical": parallel_records == serial_records,
        }
        results["grid"] = {
            "services": len(ALL_SERVICE_NAMES),
            "profiles": PROFILE_COUNT,
            "runs": len(grid),
            "duration_s": GRID_DURATION_S,
            "simulated_s": simulated,
        }
        results["env"] = bench_env()
        return results

    results = once(benchmark, run)

    BASELINE_PATH.write_text(json.dumps(results, indent=2, sort_keys=True))

    show(
        "Sweep throughput (simulated seconds per wall second)",
        ["backend", "wall s", "sim s / wall s", "speedup", "identical"],
        [
            ["serial", f"{results['serial']['wall_s']:.2f}",
             f"{results['serial']['sim_s_per_wall_s']:.0f}", "1.00", "-"],
            [f"parallel x{results['parallel']['workers']}",
             f"{results['parallel']['wall_s']:.2f}",
             f"{results['parallel']['sim_s_per_wall_s']:.0f}",
             f"{results['parallel']['speedup_vs_serial']:.2f}",
             results["parallel"]["records_identical"]],
            ["encode cache", "-",
             "-", f"{results['encode_cache']['speedup']:.0f}", "-"],
        ],
    )

    # Output equality between backends is unconditional.
    assert results["parallel"]["records_identical"]
    # Gains: the cache hit must dwarf a cold encode.
    assert results["encode_cache"]["speedup"] > 10.0
    # Parallel wall-clock wins need real cores; a single-core container
    # cannot demonstrate them, so the 2x bar applies from 4 cores up.
    if (os.cpu_count() or 1) >= 4 and results["parallel"]["workers"] >= 4:
        assert results["parallel"]["speedup_vs_serial"] >= 2.0

