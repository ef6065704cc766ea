"""Engine identity on generated specs, not only on hand-picked grids.

Hypothesis draws a service, a bandwidth source (a cellular profile or
a constant rate), an optional stock fault scenario and a run length
with content no longer than the run, then checks that every engine
produces the same simulated results:

* a :class:`RunSpec` gives the same ``RunRecord`` on both engines;
* a one-client :class:`MultiSession` / :class:`EventDrivenMultiSession`
  reproduces :class:`Session`'s QoE, player events and UI samples —
  the single-client engines are the multi-client ones with one player;
* a 2–6 client explicit-roster :class:`FleetSpec` over the stock
  device classes and one of the stock fault scenarios, with or without
  churn, gives the same ``ClientRecord``s on both engines.  Fleets are
  where the event engine lets players sleep through a dispatched tick,
  so fault instants (which wake every player) are always drawn there.

Example counts are bounded so the file stays a few seconds of tier-1.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blackbox.resilience import standard_fault_scenarios
from repro.core.fleet import DEVICE_CLASSES, FleetSpec, run_fleet
from repro.core.multi import EventDrivenMultiSession, MultiSession
from repro.core.parallel import RunSpec
from repro.core.run import run_one
from repro.core.session import Session
from repro.net.schedule import ConstantSchedule
from repro.server.origin import OriginServer
from repro.services import ALL_SERVICE_NAMES
from repro.services.profiles import build_service, get_service
from repro.util import mbps

SCENARIO_COUNT = len(standard_fault_scenarios())


@st.composite
def run_inputs(draw, scenarios=st.none() | st.integers(0, SCENARIO_COUNT - 1)):
    """Keyword arguments shared by a RunSpec and a FleetSpec.

    ``scenarios`` draws an index into the stock fault scenarios (index
    0 is the fault-free baseline) or None for no fault spec at all.
    """
    duration_s = float(draw(st.integers(min_value=10, max_value=90)))
    content_s = float(draw(st.integers(min_value=5, max_value=int(duration_s))))
    if draw(st.booleans()):
        bandwidth = {"profile_id": draw(st.integers(min_value=1, max_value=14))}
    else:
        rate = draw(st.floats(min_value=0.3, max_value=20.0))
        bandwidth = {"schedule": ConstantSchedule(mbps(rate))}
    scenario = draw(scenarios)
    faults = (
        None
        if scenario is None
        else standard_fault_scenarios(duration_s)[scenario].faults
    )
    return dict(
        duration_s=duration_s,
        content_duration_s=content_s,
        faults=faults,
        **bandwidth,
    )


services = st.sampled_from(ALL_SERVICE_NAMES)


@settings(max_examples=80, deadline=None)
@given(service=services, inputs=run_inputs())
def test_run_spec_records_equal_across_engines(service, inputs):
    spec = RunSpec(service=service, **inputs)
    tick = run_one(spec, keep_result=False)
    event = run_one(replace(spec, engine="event"), keep_result=False)
    assert event.record == tick.record


@settings(max_examples=60, deadline=None)
@given(service=services, inputs=run_inputs())
def test_one_client_multi_session_is_session(service, inputs):
    spec = RunSpec(service=service, **inputs)
    server = OriginServer()
    built = build_service(
        get_service(service),
        server,
        duration_s=spec.content_duration_s,
        content_seed=spec.resolved_content_seed,
    )
    schedule = spec.resolved_schedule()
    single = Session(built, server, schedule, faults=spec.faults)
    result = single.run(spec.duration_s)
    want = (result.qoe, result.player.events.events, result.player.ui_samples)
    for cls in (MultiSession, EventDrivenMultiSession):
        session = cls([built], server, schedule, faults=spec.faults)
        (client,) = session.run(spec.duration_s)
        got = (client.qoe, client.player.events.events, client.player.ui_samples)
        assert got == want
        assert session.clock.now == single.clock.now


@settings(max_examples=50, deadline=None)
@given(
    names=st.lists(services, min_size=2, max_size=6),
    devices=st.lists(
        st.sampled_from(sorted(DEVICE_CLASSES)), min_size=1, max_size=3
    ),
    inputs=run_inputs(scenarios=st.integers(0, SCENARIO_COUNT - 1)),
    churn=st.none()
    | st.tuples(
        st.floats(min_value=0.1, max_value=1.0),
        st.none() | st.floats(min_value=5.0, max_value=60.0),
        st.integers(min_value=0, max_value=1000),
    ),
)
def test_fleet_client_records_equal_across_engines(
    names, devices, inputs, churn
):
    if churn is not None:
        rate, dwell, seed = churn
        inputs = dict(
            inputs,
            arrival_rate_per_s=rate,
            mean_dwell_s=dwell,
            churn_seed=seed,
        )
    spec = FleetSpec(
        services=tuple(names),
        devices=tuple(DEVICE_CLASSES[name] for name in devices),
        engine="tick",
        **inputs,
    )
    tick = run_fleet(spec)
    event = run_fleet(replace(spec, engine="event"))
    assert event.clients == tick.clients
    assert event.tick_stats.ticks_simulated == tick.tick_stats.ticks_executed
