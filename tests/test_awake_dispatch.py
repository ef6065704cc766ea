"""Awake-set dispatch: an event tick advances only the players it woke.

On a shared link some client is due almost every tick, so the event
engine dispatches most ticks of a fleet; each dispatch advances only
the players whose wake handle was due or missing, whose wire parts
completed that tick, or every player at a fault change point.  The
rest replay the tick with ``apply_noop_ticks(1)``.  These checks pin
the split (most players sleep on a churning fleet, a lone client never
does), its byte-identity to the tick oracle, the counters that report
it, and the one-pass flow grouping of ``MultiSession._collect_results``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.blackbox.resilience import standard_fault_scenarios
from repro.core.fleet import DEVICE_CLASSES, FleetSession, FleetSpec, run_fleet
from repro.core.parallel import RunSpec
from repro.core.run import run_one
from repro.net.schedule import ConstantSchedule


def _scenario(name: str, duration_s: float):
    (scenario,) = [
        scenario
        for scenario in standard_fault_scenarios(duration_s)
        if scenario.name == name
    ]
    return scenario.faults


def _churning_fleet(**overrides) -> FleetSpec:
    fields = dict(
        services=("H1", "D1", "S1", "H4"),
        clients=20,
        devices=tuple(DEVICE_CLASSES.values()),
        duration_s=30.0,
        content_duration_s=20.0,
        schedule=ConstantSchedule(40e6),
        arrival_rate_per_s=2.0,
        mean_dwell_s=20.0,
        churn_seed=3,
        engine="event",
    )
    fields.update(overrides)
    return FleetSpec(**fields)


@pytest.fixture(scope="module")
def churning_outcomes():
    spec = _churning_fleet()
    return run_fleet(replace(spec, engine="tick")), run_fleet(spec)


class TestFleetSleepers:
    def test_most_players_sleep_and_records_match_the_oracle(
        self, churning_outcomes
    ):
        tick, event = churning_outcomes
        assert event.clients == tick.clients
        metrics = event.metrics
        advances = metrics.value("session.player_advances")
        sleeps = metrics.value("session.player_sleeps")
        dispatches = metrics.value("session.dispatches")
        assert dispatches == event.tick_stats.ticks_executed > 0
        # advances + sleeps = sum over dispatches of the active clients.
        assert advances + sleeps > dispatches
        assert advances < 0.25 * (advances + sleeps)

    def test_fleet_metrics_carry_the_event_counters(self, churning_outcomes):
        tick, event = churning_outcomes
        metrics = event.metrics
        dispatches = metrics.value("session.dispatches")
        labelled = sum(
            value
            for name, _labels, value in metrics.counters
            if name == "session.events"
        )
        assert labelled == dispatches
        assert metrics.value("session.events", type="client_churn") > 0
        assert metrics.value("session.queue_pushes") > 0
        assert metrics.value("session.queue_cancelled") > 0
        assert metrics.total("session.advance_stops") > 0
        # The tick oracle keeps no engine counters.
        assert tick.metrics.value("session.dispatches") is None
        assert tick.metrics.value("session.player_advances") is None

    def test_fleet_metrics_stay_deterministic(self, churning_outcomes):
        _tick, event = churning_outcomes
        again = run_fleet(_churning_fleet())
        assert again == event
        assert again.to_json() == event.to_json()


class TestLoneClient:
    @pytest.mark.parametrize(
        "spec",
        [
            RunSpec(service="H1", profile_id=7, duration_s=60.0),
            RunSpec(service="D3", profile_id=2, duration_s=60.0),
            RunSpec(service="S2", profile_id=12, duration_s=45.0),
            RunSpec(
                service="H4",
                schedule=ConstantSchedule(3e6),
                duration_s=60.0,
                faults=_scenario("reset-storm", 60.0),
            ),
            RunSpec(
                service="D1",
                profile_id=5,
                duration_s=60.0,
                faults=_scenario("dead-air", 60.0),
            ),
        ],
        ids=["H1-p7", "D3-p2", "S2-p12", "H4-resets", "D1-dead-air"],
    )
    def test_every_dispatch_advances_the_only_player(self, spec):
        outcome = run_one(replace(spec, engine="event"), keep_result=False)
        metrics = outcome.metrics
        dispatches = metrics.value("session.dispatches")
        assert dispatches > 0
        assert metrics.value("session.player_advances") == dispatches
        assert metrics.value("session.player_sleeps") == 0


class TestFlowGrouping:
    def test_grouped_flows_equal_the_substring_filter(self):
        fleet = FleetSession(_churning_fleet(clients=12, churn_seed=5))
        fleet.run()
        session = fleet.session
        flows = session.proxy.flows
        grouped = session._flows_by_asset()
        assert sum(len(group) for group in grouped.values()) == len(flows)
        for built in session.builts:
            marker = f"/{built.asset.asset_id}/"
            want = [flow for flow in flows if marker in flow.url]
            got = grouped[built.asset.asset_id]
            assert len(got) == len(want)
            assert all(g is w for g, w in zip(got, want))
