"""The live-connection set: ticking only connections that carry a
transfer is exact.

``Network`` keeps, in ``connections`` order, the connections that carry
a transfer, and ``advance`` / ``advance_many`` / the reset walk read
only that set.  Every other connection is CLOSED or idle ESTABLISHED:
its ``advance_control`` is a no-op, its ``rate_cap_bps`` is 0 and
water-filling never touches a zero demand.  These tests drive two
networks through the same generated sequence of connects, requests,
aborts, drops, retirements, ticks and batched windows — under resets,
dead air and schedule steps — one as shipped and one through the
full-walk reference below (the pre-live-set code), and require equal
bytes, ``first_byte_at``, cwnd, control countdowns, completion order
and stop reasons after every operation.  The live set itself must
equal ``[c for c in connections if c.transfer is not None]`` after
every operation.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.clock import Clock
from repro.net.faults import DeadAirWindow, TransportFaultPlane
from repro.net.http import HttpRequest, ResponsePlan
from repro.net.link import allocate
from repro.net.network import (
    ADVANCE_COMPLETION,
    ADVANCE_FAULT,
    ADVANCE_HORIZON,
    ADVANCE_SCHEDULE,
    Network,
)
from repro.net.schedule import StepSchedule

DT = 0.1


# -- the full-walk reference ------------------------------------------------


def full_walk_advance(network: Network, dt: float) -> list:
    """``Network.advance`` as it was before the live set: every tick
    walks every connection.  Returns the connections whose transfer
    ended (reset or completed), in walk order."""
    now = network.clock.now
    faults = network.faults
    ended = []
    if faults is not None and faults.resets_due(now):
        for connection in list(network.connections):
            if connection.transfer is not None:
                ended.append(connection)
                network.abort_transfer(connection)
    if network.schedule is not None:
        network.link.set_capacity(network.schedule.bandwidth_at(now))
    walking = [c for c in network.connections if c.transfer is not None]
    if faults is not None and faults.dead_air_at(now):
        saved = network.link.capacity_bps
        network.link.set_capacity(0.0)
        completed = network.link.advance(network.connections, dt, now)
        network.link.set_capacity(saved)
    else:
        completed = network.link.advance(network.connections, dt, now)
    ended.extend(c for c in walking if c.transfer is None)
    # The reference walks ``connections``; the live set is only kept
    # consistent so the shared request/abort bookkeeping stays valid.
    network._live[:] = [c for c in network._live if c.transfer is not None]
    for transfer in completed:
        if transfer.on_complete is not None:
            transfer.on_complete(transfer)
    return ended


def full_walk_advance_many(network: Network, max_ticks: int, dt: float):
    """``Network.advance_many`` as it was before the live set."""
    link = network.link
    t = network.clock.now
    reason = ADVANCE_HORIZON
    change_at = network.schedule.next_change_at(t)
    if change_at != math.inf:
        clamp = int((change_at - t - 1e-9) / dt) + 1
        if clamp < max_ticks:
            max_ticks, reason = clamp, ADVANCE_SCHEDULE
    capacity = base = network.schedule.bandwidth_at(t)
    fault_change = network.faults.next_change_at(t)
    if fault_change != math.inf:
        if fault_change <= t + 1e-9:
            return 0, [], ADVANCE_FAULT
        clamp = int((fault_change - t - 1e-9) / dt) + 1
        if clamp < max_ticks:
            max_ticks, reason = clamp, ADVANCE_FAULT
    if network.faults.dead_air_at(t):
        capacity = 0.0
    connections = network.connections
    executed = 0
    activity = []
    while executed < max_ticks:
        saved = [
            (c.state, c._handshake_remaining_s, c._request_latency_remaining_s)
            for c in connections
        ]
        for connection in connections:
            connection.advance_control(dt)
        allocations = allocate(capacity, [c.rate_cap_bps() for c in connections])
        plan = []
        completing = False
        for connection, rate_bps in zip(connections, allocations):
            num_bytes = rate_bps * dt / 8.0
            if num_bytes <= 0:
                continue
            transfer = connection.transfer
            delivered = min(num_bytes, transfer.remaining_bytes)
            if transfer.delivered_bytes + delivered >= transfer.total_bytes - 1e-6:
                completing = True
                break
            plan.append((connection, transfer, delivered))
        if completing:
            for connection, (state, handshake, latency) in zip(connections, saved):
                connection.state = state
                connection._handshake_remaining_s = handshake
                connection._request_latency_remaining_s = latency
            reason = ADVANCE_COMPLETION
            break
        before_link = link.total_bytes_delivered
        for connection, transfer, delivered in plan:
            if transfer.first_byte_at is None:
                transfer.first_byte_at = t
            transfer.delivered_bytes += delivered
            before = connection.total_bytes_received
            connection.total_bytes_received = before + delivered
            connection.cwnd_bytes = min(
                connection.cwnd_bytes + delivered, connection.max_cwnd_bytes
            )
            link.total_bytes_delivered += connection.total_bytes_received - before
        activity.append(link.total_bytes_delivered > before_link)
        t = round(t + dt, 9)
        executed += 1
    if executed:
        link.set_capacity(base)
    return executed, activity, reason


# -- one simulated world ------------------------------------------------------


class _SizedHandler:
    """Serves ``http://x/<bytes>`` with that many opaque bytes."""

    def handle(self, request):
        return ResponsePlan.ok_opaque(int(request.url.rsplit("/", 1)[1]))


class World:
    """One network plus the log of everything observable about it."""

    def __init__(self, schedule_steps, resets, dead_air, full_walk: bool):
        self.clock = Clock(dt=DT)
        self.network = Network(
            self.clock,
            _SizedHandler(),
            StepSchedule(schedule_steps),
            faults=TransportFaultPlane(
                dead_air=tuple(DeadAirWindow(a, b) for a, b in dead_air),
                reset_times=tuple(resets),
            ),
        )
        self.full_walk = full_walk
        self.conns = []
        self.log = []  # completions and stop reasons, in order

    def _known(self, i):
        return i < len(self.conns) and self.conns[i] in self.network._rank

    def _request(self, i, size, chain):
        connection = self.conns[i]

        def done(response):
            self.log.append((
                "response", i, response.status.value, response.size_bytes,
                response.started_at, response.first_byte_at,
                response.completed_at, response.aborted,
            ))
            # A callback may issue the next request at once, on a later
            # or earlier connection: the live set must take it in order.
            if chain:
                j = (i + chain) % len(self.conns)
                if self._known(j) and self.conns[j].transfer is None:
                    self._request(j, size // 2 + 1, 0)

        self.network.request(connection, HttpRequest(url=f"http://x/{size}"), done)

    def apply(self, op):
        network, clock = self.network, self.clock
        kind = op[0]
        if kind == "connect":
            self.conns.append(network.new_connection("c"))
        elif kind == "request":
            _, i, size, chain = op
            if self._known(i) and self.conns[i].transfer is None:
                self._request(i, size, chain)
        elif kind == "abort":
            if self._known(op[1]):
                network.abort_transfer(self.conns[op[1]])
        elif kind == "drop":
            if self._known(op[1]) and self.conns[op[1]].transfer is None:
                network.drop_connection(self.conns[op[1]])
        elif kind == "retire":
            if op[1] < len(self.conns):
                network.retire_connections([self.conns[op[1]]], clock.now)
        elif kind == "tick":
            if self.full_walk:
                ended = full_walk_advance(network, clock.dt)
            else:
                ended = network.advance(clock.dt)
            self.log.append(("ended", sorted(self.conns.index(c) for c in ended)))
            clock.tick()
        elif kind == "batch":
            if not network.steady_for_batching():
                return
            if self.full_walk:
                result = full_walk_advance_many(network, op[1], clock.dt)
            else:
                result = network.advance_many(op[1], clock.dt)
            self.log.append(("batch", result))
            for _ in range(result[0]):
                clock.tick()

    def snapshot(self):
        network = self.network
        rows = []
        for connection in self.conns:
            transfer = connection.transfer
            rows.append((
                connection.state, connection.cwnd_bytes,
                connection.total_bytes_received, connection.connects,
                connection._handshake_remaining_s,
                connection._request_latency_remaining_s,
                None if transfer is None else (
                    transfer.delivered_bytes, transfer.first_byte_at,
                    transfer.started_at,
                ),
                connection in network._rank,
            ))
        return (
            self.clock.now,
            network.link.total_bytes_delivered,
            network.link.capacity_bps,
            network.active_transfers() if not self.full_walk else None,
            rows,
            list(self.log),
        )


def assert_live_set_exact(network: Network) -> None:
    want = [c for c in network.connections if c.transfer is not None]
    got = network._live
    assert len(got) == len(want)
    assert all(a is b for a, b in zip(got, want))


# -- generated operation sequences --------------------------------------------

_index = st.integers(min_value=0, max_value=7)
_ops = st.one_of(
    st.just(("connect",)),
    st.tuples(
        st.just("request"), _index,
        st.integers(min_value=200, max_value=400_000),
        st.integers(min_value=0, max_value=3),
    ),
    st.tuples(st.just("abort"), _index),
    st.tuples(st.just("drop"), _index),
    st.tuples(st.just("retire"), _index),
    st.just(("tick",)),
    st.just(("tick",)),
    st.tuples(st.just("batch"), st.integers(min_value=1, max_value=30)),
)
_grid_time = st.integers(min_value=1, max_value=60).map(lambda k: k * DT)


@st.composite
def _worlds(draw):
    steps = [(0.0, draw(st.floats(min_value=2e5, max_value=4e7)))]
    for start in sorted(set(draw(st.lists(_grid_time, max_size=3)))):
        steps.append((start, draw(st.floats(min_value=1e4, max_value=4e7))))
    resets = draw(st.lists(_grid_time, max_size=3))
    dead_air = []
    for start in draw(st.lists(_grid_time, max_size=2)):
        dead_air.append((start, start + draw(st.integers(1, 8)) * DT))
    prelude = [("connect",)] * draw(st.integers(min_value=1, max_value=6))
    ops = prelude + draw(st.lists(_ops, min_size=1, max_size=60))
    return tuple(steps), resets, dead_air, ops


@settings(max_examples=300, deadline=None)
@given(world=_worlds())
def test_live_set_network_equals_the_full_walk(world):
    steps, resets, dead_air, ops = world
    live = World(steps, resets, dead_air, full_walk=False)
    reference = World(steps, resets, dead_air, full_walk=True)
    for op in ops:
        live.apply(op)
        reference.apply(op)
        assert_live_set_exact(live.network)
        got, want = live.snapshot(), reference.snapshot()
        assert got[3] == sum(1 for row in want[4] if row[6] is not None)
        assert got[:3] + got[4:] == want[:3] + want[4:]


def test_walk_touches_only_live_connections():
    """An idle connection is never visited by a tick."""
    world = World(((0.0, 8e6),), [], [], full_walk=False)
    for _ in range(40):
        world.apply(("connect",))
    world.apply(("request", 3, 50_000, 0))
    world.apply(("request", 1, 50_000, 0))
    calls = []
    for connection in world.conns:
        original = connection.advance_control

        def spy(dt, connection=connection, original=original):
            calls.append(connection)
            original(dt)

        connection.advance_control = spy
    world.apply(("tick",))
    assert {id(c) for c in calls} == {id(world.conns[1]), id(world.conns[3])}
    assert [c.conn_id for c in world.network._live] == [
        world.conns[1].conn_id, world.conns[3].conn_id,
    ]


class TestMembership:
    def _world(self):
        world = World(((0.0, 8e6),), [], [], full_walk=False)
        for _ in range(3):
            world.apply(("connect",))
        return world

    def test_request_on_a_dropped_connection_raises(self):
        world = self._world()
        dropped = world.conns[1]
        world.network.drop_connection(dropped)
        with pytest.raises(RuntimeError, match="unknown connection"):
            world.network.request(
                dropped, HttpRequest(url="http://x/100"), lambda r: None
            )

    def test_request_on_a_retired_connection_raises(self):
        world = self._world()
        world.apply(("request", 0, 50_000, 0))
        world.network.retire_connections([world.conns[0]], 0.0)
        assert world.network._live == []
        with pytest.raises(RuntimeError, match="unknown connection"):
            world.network.request(
                world.conns[0], HttpRequest(url="http://x/100"), lambda r: None
            )

    def test_dropping_mid_transfer_still_raises(self):
        world = self._world()
        world.apply(("request", 2, 50_000, 0))
        with pytest.raises(RuntimeError, match="dropping mid-transfer"):
            world.network.drop_connection(world.conns[2])
        assert_live_set_exact(world.network)

    def test_retirement_aborts_without_callbacks(self):
        world = self._world()
        world.apply(("request", 1, 50_000, 0))
        transfer = world.conns[1].transfer
        world.network.retire_connections(world.conns[:2], 0.0)
        assert transfer.aborted
        assert world.log == []  # no completion callback fired
        assert [c.conn_id for c in world.network.connections] == [
            world.conns[2].conn_id
        ]
        assert_live_set_exact(world.network)
