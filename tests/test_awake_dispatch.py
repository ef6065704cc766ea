"""Awake-set dispatch: an event tick advances only the players it woke.

On a shared link some client is due almost every tick, so the event
engine dispatches most ticks of a fleet; each dispatch advances only
the players whose wake was due, who arrived, whose connections' wire
parts ended that tick, or every player at a fault change point.  The
set is built from those causes, without visiting sleepers; a sleeper
owes the tick as a no-op and pays its debt in one
``apply_noop_ticks`` call when it wakes, retires or the run ends.
These checks pin the catch-up arithmetic (split == summed == one tick
at a time), the awake set against the old scan over every active
player, the split itself (most players sleep on a churning fleet, a
lone client never does), its byte-identity to the tick oracle, the
counters that report it, and the one-pass flow grouping of
``MultiSession._collect_results``.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.faults import ErrorBurst, FaultSpec
from repro.blackbox.resilience import standard_fault_scenarios
from repro.core.events import EventLoopCore
from repro.core.fleet import DEVICE_CLASSES, FleetSession, FleetSpec, run_fleet
from repro.core.parallel import RunSpec
from repro.core.run import run_one
from repro.net.http import ContentKind, HttpStatus
from repro.net.schedule import ConstantSchedule, StepSchedule
from repro.player.player import PlayerState


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


# -- deferred catch-up: the no-op replay splits exactly --------------------


def _player_in(state: PlayerState, spec: RunSpec):
    """A tick-engine player snapshot taken on the first tick in ``state``
    with media buffered."""
    session = spec.build()
    dt = session.clock.dt
    for _ in range(int(spec.duration_s / dt)):
        session._tick(dt)
        player = session.player
        if player.state is state and any(
            buffer.segments() for buffer in player.buffers.values()
        ):
            return copy.deepcopy(player)
    raise AssertionError(f"{spec.service} never reached {state}")


@pytest.fixture(scope="module")
def noop_players():
    return {
        "playing": _player_in(
            PlayerState.PLAYING,
            RunSpec(service="D1", profile_id=7, duration_s=40.0),
        ),
        "stalled": _player_in(
            PlayerState.REBUFFERING,
            RunSpec(
                service="D1",
                schedule=StepSchedule(((0.0, 4e6), (12.0, 1e4))),
                duration_s=90.0,
            ),
        ),
    }


def _noop_state(player):
    return (
        player.state,
        player._play_pos,
        player._next_ui_at,
        list(player.ui_samples),
        {
            stream: [segment.index for segment in buffer.segments()]
            for stream, buffer in player.buffers.items()
        },
    )


def _clock_chain(start: float, ticks: int, dt: float) -> float:
    t = start
    for _ in range(ticks):
        t = round(t + dt, 9)  # Clock.tick
    return t


@settings(max_examples=60, deadline=None)
@given(
    which=st.sampled_from(["playing", "stalled"]),
    splits=st.lists(st.integers(min_value=0, max_value=25), min_size=1, max_size=5),
)
def test_noop_replay_split_equals_summed_equals_single_ticks(
    noop_players, which, splits
):
    base = noop_players[which]
    start = base.clock.now
    dt = base.clock.dt
    total = sum(splits)

    split = copy.deepcopy(base)
    t = start
    for ticks in splits:
        split.apply_noop_ticks(ticks, dt, t)
        t = _clock_chain(t, ticks, dt)

    summed = copy.deepcopy(base)
    summed.apply_noop_ticks(total, dt, start)

    single = copy.deepcopy(base)
    t = start
    for _ in range(total):
        single.apply_noop_ticks(1, dt, t)
        t = _clock_chain(t, 1, dt)

    assert _noop_state(split) == _noop_state(summed) == _noop_state(single)
    if which == "playing" and total:
        assert summed._play_pos > base._play_pos
    if which == "stalled":
        assert summed._play_pos == base._play_pos


# -- the awake set equals the old scan over every active player -------------


def _scan_rule(session) -> list[int]:
    """The awake set as the scan over every active player computed it:
    wake handle popped or missing, or ``completed_parts`` moved past the
    stored signature, or everyone on a fault change point."""
    if session._wake_all:
        return list(session._active_ids)
    handles = session._wake_handles
    sigs = session._wake_sigs
    return [
        index
        for index in session._active_ids
        if handles[index] is None
        or handles[index].cancelled
        or session.players[index].scheduler.completed_parts != sigs[index][1]
    ]


@pytest.mark.parametrize("scenario", ["reset-storm", "dead-air"])
def test_awake_set_equals_the_scan_rule(monkeypatch, scenario):
    checked = []
    derived = EventLoopCore._wake_split

    def both(self, ended):
        want = _scan_rule(self)
        awake = derived(self, ended)
        checked.append((list(self._awake_ids), want))
        assert [self.players.index(p) for p in awake] == self._awake_ids
        return awake

    monkeypatch.setattr(EventLoopCore, "_wake_split", both)
    spec = _churning_fleet(faults=_scenario(scenario, 30.0))
    event = run_fleet(spec)
    monkeypatch.undo()
    assert event.clients == run_fleet(replace(spec, engine="tick")).clients
    assert checked and all(got == want for got, want in checked)
    # The fleet churns and mostly sleeps, so the comparison has teeth.
    assert sum(len(got) for got, _ in checked) < event.metrics.value(
        "session.player_advances"
    ) + event.metrics.value("session.player_sleeps")


def test_sleeper_debt_is_paid_before_its_callbacks_run():
    """A completion callback can end a sleeping player's session (a
    failed download), so its owed no-op ticks are paid before the
    network fires it; paid after, the ended player would not advance
    its playhead through them and ``played_s`` would come up a tick
    short."""
    spec = FleetSpec(
        services=("H1", "H2"),
        devices=(DEVICE_CLASSES["default"],),
        duration_s=79.0,
        content_duration_s=30.0,
        profile_id=5,
        faults=FaultSpec(
            error_bursts=(
                ErrorBurst(
                    start_s=19.75,
                    end_s=27.65,
                    status=HttpStatus.SERVICE_UNAVAILABLE,
                    kinds=(ContentKind.MEDIA,),
                ),
            )
        ),
        engine="event",
    )
    event = run_fleet(spec)
    assert event.clients == run_fleet(replace(spec, engine="tick")).clients
    assert "download failed" in {record.end_reason for record in event.clients}


def _perfbench_seed(label: str) -> int:
    """``perfbench/workloads.py``'s ``derive_seed(0, label)``."""
    blob = hashlib.sha256(f"perfbench:0:{label}".encode()).digest()
    return int.from_bytes(blob[:4], "big")


def test_seed0_benchmark_fleet_wake_counters():
    """The benchmark's seed-0 ``fleet`` keeps its advance/sleep split."""
    spec = FleetSpec(
        services=("H1", "H4", "D1", "D3", "S1", "S2"),
        clients=100,
        service_weights=(1.0,) * 6,
        devices=tuple(DEVICE_CLASSES[name] for name in ("default", "phone", "tv")),
        device_weights=(0.5, 0.3, 0.2),
        duration_s=50.0,
        content_seed=_perfbench_seed("content"),
        churn_seed=_perfbench_seed("churn"),
        arrival_rate_per_s=10.0,
        mean_dwell_s=300.0,
        schedule=ConstantSchedule(150e6),
        engine="event",
    )
    metrics = run_fleet(spec).metrics
    assert metrics.value("session.dispatches") == 490
    assert metrics.value("session.player_advances") == 4399
    assert metrics.value("session.player_sleeps") == 35082
