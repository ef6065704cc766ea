"""The benchmark's own tests, at a tiny scale.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import multiprocessing
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

from repro.core import run as core_run  # noqa: E402
from repro.core.pool import active_worker_pool, worker_pool  # noqa: E402

TINY = {
    "grid": workloads.GridConfig(
        services=("H1", "D1", "S1"), profiles=(2, 9), duration_s=15.0),
    "fleet": workloads.FleetConfig(
        services=("H1", "D1", "S1"), clients=30, duration_s=20.0,
        arrival_rate_per_s=3.0, mean_dwell_s=15.0, cell_mbps=40.0),
    "sweep": workloads.SweepConfig(
        services=("H1", "D1"), profiles=(3,), duration_s=10.0),
    "hosts": workloads.GridConfig(
        services=("H1", "D1"), profiles=(2,), duration_s=10.0),
}


def tiny_run(name, tmp_path, *, trace=False, seed=5):
    return run.run_benchmark(
        name, seed, 0, trace, config=TINY[name], out_dir=tmp_path)


def assert_no_children():
    assert active_worker_pool() is None
    for child in multiprocessing.active_children():
        child.join(timeout=10)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_every_workload(name, tmp_path):
    report = tiny_run(name, tmp_path, trace=True)
    assert report["failed"] == 0
    assert report["attempted"] >= 1
    for table, values in ((run.END_TO_END, report["end_to_end"]),
                          (run.PER_LAYER, report["per_layer"])):
        assert sorted(values) == sorted(row[0] for row in table)
        assert all(math.isfinite(v) for v in values.values())
    e2e = report["end_to_end"]
    assert e2e["sim_rate"] > 0 and e2e["setup_s"] > 0
    assert e2e["ok_frac"] == 1.0
    layers = report["per_layer"]
    if name == "grid":
        assert layers["net.water_fill.vec_share"] == 0
        assert layers["core.pool.tasks"] == 0
        assert layers["player.advance.calls"] > 0
        assert layers["core.events.dispatches"] > 0
    if name == "fleet":
        assert layers["net.water_fill.vec_share"] > 0
        assert layers["core.multi.run.self_s"] > 0
    if name == "sweep":
        assert layers["core.pool.tasks"] > 0
        assert layers["core.outcome_cache.hits"] > 0
        assert layers["core.supervisor.journal.record.calls"] > 0
    if name == "hosts":
        # One lease per spec and pass: set-up's warm-up pass is not counted.
        config = TINY["hosts"]
        assert layers["core.distributed.leases"] == (
            len(config.services) * len(config.profiles))
        assert layers["core.distributed.local_fallback"] == 0
    stamp = json.loads(next((tmp_path / "results").glob("*.json")).read_text())
    assert stamp["env"]["cpu_count"] >= 1
    assert_no_children()


def test_perturbed_spec_outcome_counts_as_failed(tmp_path, monkeypatch):
    real = workloads.GridWorkload.run_pass

    def perturbed(self):
        wall, outcomes, spec_ms = real(self)
        first = outcomes[0]
        record = dataclasses.replace(
            first.record, total_bytes=first.record.total_bytes + 1)
        outcomes[0] = dataclasses.replace(first, record=record)
        return wall, outcomes, spec_ms

    monkeypatch.setattr(workloads.GridWorkload, "run_pass", perturbed)
    report = tiny_run("grid", tmp_path)
    assert report["failed"] == report["passes"]
    assert report["end_to_end"]["ok_frac"] < 1.0


def test_perturbed_fleet_client_counts_as_failed(tmp_path, monkeypatch):
    real = workloads.FleetWorkload.run_pass

    def perturbed(self):
        wall, outcomes, spec_ms = real(self)
        fleet = outcomes[0]
        clients = list(fleet.clients)
        clients[3] = dataclasses.replace(clients[3], final_state="bogus")
        outcomes[0] = dataclasses.replace(fleet, clients=tuple(clients))
        return wall, outcomes, spec_ms

    monkeypatch.setattr(workloads.FleetWorkload, "run_pass", perturbed)
    report = tiny_run("fleet", tmp_path)
    assert report["failed"] == report["passes"]
    assert report["attempted"] == TINY["fleet"].clients * report["passes"]


def check_span_nesting(tracer):
    spans = tracer.spans()
    assert spans
    by_id = {(s["thread"], s["id"]): s for s in spans}
    nested = 0
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] < 0:
            continue
        parent = by_id[(span["thread"], span["parent"])]
        assert parent["start"] <= span["start"]
        assert span["end"] <= parent["end"]
        nested += 1
    assert nested > 0
    for calls, total, self_s, _tally in tracer.totals().values():
        assert calls > 0 and 0 <= self_s <= total + 1e-9


def test_child_spans_never_exceed_parent():
    specs = workloads.grid_specs(TINY["grid"], 3, "event")
    fleet = workloads.fleet_spec(TINY["fleet"], 3, "event")
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        core_run.execute(specs, workers=0)
        core_run.execute([fleet], workers=0)
    finally:
        tracer.uninstall()
    check_span_nesting(tracer)
    layers = tracer.layer_self_s()
    assert layers["player"] > 0 and layers["net"] > 0
    assert layers["core.multi"] > 0 and layers["core.events"] > 0


def test_uninstall_restores_the_program():
    from repro.player.player import Player

    originals = (core_run.execute, core_run.run_one, Player.advance,
                 sys.modules["repro.core.fleet"].build_service)
    tracer = Tracer()
    tracer.install()
    assert core_run.run_one is not originals[1]
    tracer.uninstall()
    assert (core_run.execute, core_run.run_one, Player.advance,
            sys.modules["repro.core.fleet"].build_service) == originals


def failing_pass(self):
    raise RuntimeError("injected failure")


def test_pool_is_torn_down_when_a_run_fails(tmp_path, monkeypatch):
    def spawn_then_fail(self):
        pool = worker_pool(self.workers)
        assert pool.submit(abs, -1).result(timeout=60) == 1
        failing_pass(self)

    monkeypatch.setattr(workloads.SweepWorkload, "run_pass", spawn_then_fail)
    with pytest.raises(RuntimeError, match="injected"):
        tiny_run("sweep", tmp_path)
    assert_no_children()
    assert list((tmp_path / "work").iterdir()) == []


def test_daemons_are_torn_down_when_a_run_fails(tmp_path, monkeypatch):
    started = []

    def record_then_fail(self):
        assert self.daemons and all(d.poll() is None for d in self.daemons)
        started.extend(self.daemons)
        failing_pass(self)

    monkeypatch.setattr(workloads.HostsWorkload, "run_pass", record_then_fail)
    with pytest.raises(RuntimeError, match="injected"):
        tiny_run("hosts", tmp_path)
    assert started and all(d.poll() is not None for d in started)
    assert list((tmp_path / "work").iterdir()) == []


def test_interaction_map_covers_every_per_layer_metric():
    interactions = json.loads((BENCH / "interactions.json").read_text())
    assert sorted(interactions["per_layer"]) == sorted(
        row[0] for row in run.PER_LAYER)


def test_compare_refuses_different_cpu_counts(tmp_path):
    def result(name, cpus):
        path = tmp_path / name
        path.write_text(json.dumps({
            "workload": "grid", "trace": False,
            "env": {"cpu_count": cpus, "affinity": cpus},
            "end_to_end": {"sim_rate": 1.0},
        }))
        return str(path)

    assert compare.main(["--base", result("a.json", 1),
                         "--new", result("b.json", 2)]) == 2


def test_run_refuses_without_program_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "grid", "--seconds", "1"]) != 0
