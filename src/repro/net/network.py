"""Network facade: ties schedule, link, connections and HTTP together.

The player issues :class:`HttpRequest`s on the connections it manages;
the network resolves them against the request handler (origin server,
usually wrapped by the measurement proxy), moves bytes each tick, and
invokes completion callbacks.  Observers (the proxy's flow recorder)
see every request start and completion.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right, insort
from typing import Callable, Optional, Protocol

from repro.net.clock import Clock
from repro.net.faults import TransportFaultPlane
from repro.net.http import HttpRequest, HttpResponse, ResponsePlan
from repro.net.link import BottleneckLink, allocate
from repro.net.schedule import BandwidthSchedule
from repro.net.tcp import TcpConnection, TcpConnectionState, Transfer
from repro.util import check_non_negative

DEFAULT_HEADER_OVERHEAD_BYTES = 360

# Stop reasons for :meth:`Network.advance_many` — *why* the batched
# micro-loop returned.  Callers use them for control flow (a
# ``completion`` means the very next tick completes a transfer and must
# run serially; no re-probe needed), metrics label them as-is.
ADVANCE_HORIZON = "horizon"  # executed everything the caller asked for
ADVANCE_COMPLETION = "completion"  # next tick would complete a transfer
ADVANCE_SCHEDULE = "schedule"  # clamped at a capacity change point
ADVANCE_FAULT = "fault"  # clamped at (or stopped on) a fault change point


class NetworkObserver(Protocol):
    """Sees request starts and completions (used by the proxy)."""

    def on_request(
        self, request: HttpRequest, plan: ResponsePlan, connection_id: str, now: float
    ) -> None: ...

    def on_response(self, response: HttpResponse) -> None: ...


class Network:
    """One device's network stack behind the shaped cellular bottleneck."""

    def __init__(
        self,
        clock: Clock,
        handler,
        schedule: Optional[BandwidthSchedule] = None,
        *,
        rtt_s: float = 0.05,
        header_overhead_bytes: int = DEFAULT_HEADER_OVERHEAD_BYTES,
        faults: Optional[TransportFaultPlane] = None,
    ):
        check_non_negative("header_overhead_bytes", header_overhead_bytes)
        self.clock = clock
        self.handler = handler
        self.schedule = schedule
        self.faults = faults
        self.rtt_s = rtt_s
        self.header_overhead_bytes = header_overhead_bytes
        self.link = BottleneckLink()
        self.connections: list[TcpConnection] = []
        self.observers: list[NetworkObserver] = []
        self._conn_ids = itertools.count(1)
        # Creation rank of every known connection: O(1) membership and
        # the sort key that keeps the live set in ``connections`` order.
        self._rank: dict[TcpConnection, int] = {}
        # The live set: the connections that carry a transfer, in
        # creation order.  Every other connection is CLOSED or idle
        # ESTABLISHED (a CONNECTING one always carries the transfer that
        # opened it), so its ``advance_control`` is a no-op and its
        # ``rate_cap_bps`` is 0: water-filling never hands it a byte.
        # Ticking only this set is therefore exact, in delivery order.
        self._live: list[TcpConnection] = []

    # -- connection management --------------------------------------------

    def new_connection(self, label: str = "conn") -> TcpConnection:
        number = next(self._conn_ids)
        connection = TcpConnection(conn_id=f"{label}-{number}", rtt_s=self.rtt_s)
        self.connections.append(connection)
        self._rank[connection] = number
        return connection

    def drop_connection(self, connection: TcpConnection) -> None:
        if connection.transfer is not None:
            raise RuntimeError(f"{connection.conn_id}: dropping mid-transfer")
        connection.close()
        self.connections.remove(connection)
        del self._rank[connection]

    def retire_connections(
        self, connections: list[TcpConnection], now: float
    ) -> None:
        """Tear down and drop a departing client's connections.

        Each in-flight transfer is aborted *without* its completion
        callback (the owner never advances again), then the connection
        leaves the live set and the network.  Connections already
        dropped are skipped.
        """
        for connection in connections:
            if connection.transfer is not None:
                self._leave(connection)
            connection.abort(now)
            if connection in self._rank:
                self.drop_connection(connection)

    def _leave(self, connection: TcpConnection) -> None:
        """Take ``connection`` out of the live set (its transfer ends)."""
        live = self._live
        at = bisect_left(live, self._rank[connection], key=self._rank.__getitem__)
        if at == len(live) or live[at] is not connection:
            raise RuntimeError(f"{connection.conn_id}: not in the live set")
        del live[at]

    # -- requests -----------------------------------------------------------

    def request(
        self,
        connection: TcpConnection,
        request: HttpRequest,
        on_complete: Callable[[HttpResponse], None],
    ) -> Transfer:
        """Issue ``request`` on ``connection``; completion is async."""
        if connection not in self._rank:
            raise RuntimeError(f"unknown connection {connection.conn_id}")
        plan = self.handler.handle(request)
        now = self.clock.now
        # A fresh TCP connection is a new flow (new ephemeral port) in a
        # packet capture, so observers see an incarnation-qualified id.
        incarnation = connection.connects + (
            1
            if connection.transfer is None
            and connection.state is TcpConnectionState.CLOSED
            else 0
        )
        flow_id = f"{connection.conn_id}:{incarnation}"
        for observer in self.observers:
            observer.on_request(request, plan, flow_id, now)

        def finish(transfer: Transfer) -> None:
            if transfer.aborted:
                # Only a partial body arrived; don't surface payload.
                size = min(plan.size_bytes, int(transfer.delivered_bytes))
                text = data = None
            else:
                size = plan.size_bytes
                text, data = plan.text, plan.data
            response = HttpResponse(
                request=request,
                status=plan.status,
                size_bytes=size,
                connection_id=flow_id,
                started_at=transfer.started_at or now,
                first_byte_at=transfer.first_byte_at or self.clock.now,
                completed_at=self.clock.now,
                text=text,
                data=data,
                truncated=plan.truncated,
                aborted=transfer.aborted,
            )
            for observer in self.observers:
                observer.on_response(response)
            on_complete(response)

        transfer = Transfer(
            total_bytes=plan.size_bytes + self.header_overhead_bytes,
            on_complete=finish,
            context=request,
        )
        extra_latency = (
            self.faults.extra_latency_at(now) if self.faults is not None else 0.0
        )
        connection.start_transfer(transfer, now, extra_latency)
        insort(self._live, connection, key=self._rank.__getitem__)
        return transfer

    def abort_transfer(self, connection: TcpConnection) -> None:
        """Tear down ``connection``'s in-flight transfer (timeout/reset).

        The completion callback fires immediately with an aborted
        response, so the client reacts on this very tick.
        """
        if connection.transfer is not None:
            self._leave(connection)
        transfer = connection.abort(self.clock.now)
        if transfer is not None and transfer.on_complete is not None:
            transfer.on_complete(transfer)

    # -- time ---------------------------------------------------------------

    def advance(
        self,
        dt: float,
        before_callbacks: Optional[Callable[[list[TcpConnection]], None]] = None,
    ) -> list[TcpConnection]:
        """Move one tick of bytes and fire completion callbacks.

        Returns the connections whose transfer ended this tick —
        aborted by a due reset or completed — so a caller can tell
        whose wire parts moved without asking every client.
        ``before_callbacks``, if given, is called with the connections
        whose transfers are about to end, before any of their callbacks
        run (the event engine settles their owners' deferred ticks).
        """
        now = self.clock.now
        faults = self.faults
        ended: list[TcpConnection] = []
        if faults is not None and faults.resets_due(now):
            ended = self._reset_live(before_callbacks)
        if self.schedule is not None:
            self.link.set_capacity(self.schedule.bandwidth_at(now))
        live = self._live
        if faults is not None and faults.dead_air_at(now):
            # Radio silence: zero capacity for this tick only; control
            # countdowns still run, like a zero-bandwidth schedule step.
            saved_capacity = self.link.capacity_bps
            self.link.set_capacity(0.0)
            completed = self.link.advance(live, dt, now)
            self.link.set_capacity(saved_capacity)
        else:
            completed = self.link.advance(live, dt, now)
        if completed:
            # Leave the live set before any callback can re-request.
            done = [c for c in live if c._transfer is None]
            live[:] = [c for c in live if c._transfer is not None]
            if before_callbacks is not None:
                before_callbacks(done)
            ended.extend(done)
            for transfer in completed:
                if transfer.on_complete is not None:
                    transfer.on_complete(transfer)
        return ended

    def _reset_live(self, before_callbacks) -> list[TcpConnection]:
        """Abort every transfer on the wire, in creation order.

        An abort callback may issue a request on a later connection,
        which the walk then reaches and aborts too, as a walk over every
        connection would.  Returns the aborted connections.
        """
        live = self._live
        if live and before_callbacks is not None:
            before_callbacks(list(live))
        rank = self._rank.__getitem__
        aborted = []
        position = 0
        while True:
            at = bisect_right(live, position, key=rank)
            if at == len(live):
                return aborted
            connection = live[at]
            position = rank(connection)
            aborted.append(connection)
            self.abort_transfer(connection)

    def metrics_into(self, metrics) -> None:
        """Record transport-level totals into a metrics registry.

        Called once at session end; all values are deterministic
        functions of the run's inputs (the sweep-aggregation contract).
        """
        metrics.counter("net.bytes_delivered").inc(
            self.link.total_bytes_delivered
        )
        metrics.counter("net.connections").inc(len(self.connections))
        metrics.counter("net.tcp_connects").inc(
            sum(connection.connects for connection in self.connections)
        )

    def effective_capacity(self, t: float) -> float:
        """Link capacity at ``t`` with tick-level faults applied."""
        if self.faults is not None and self.faults.dead_air_at(t):
            return 0.0
        if self.schedule is not None:
            return self.schedule.bandwidth_at(t)
        return self.link.capacity_bps

    def active_transfers(self) -> int:
        """How many connections carry a transfer right now."""
        return len(self._live)

    def steady_for_batching(self) -> bool:
        """True when batched ticks can replay this network exactly.

        Transfer completion is the only network event the batched
        micro-loop cannot replay (its callbacks reach the proxy and the
        player), and :meth:`advance_many` stops itself before any
        completing tick — so the only precondition left is that there is
        a download to batch through.  Handshake and request-latency
        countdowns are replayed tick-exactly inside the micro-loop.
        """
        return bool(self._live)

    def advance_many(
        self, max_ticks: int, dt: float
    ) -> tuple[int, list[bool], str]:
        """Replay up to ``max_ticks`` download ticks in one call.

        Requires :meth:`steady_for_batching`.  Executes the exact
        per-tick arithmetic of :meth:`advance` — the same
        ``advance_control`` countdowns, same ``rate * dt / 8`` quanta,
        same delivery order, same float accumulation on
        ``delivered_bytes`` / ``total_bytes_received`` /
        ``total_bytes_delivered`` — while hoisting everything that is
        provably constant out of the loop: the schedule lookup (the
        window never crosses ``next_change_at``) and the completion
        callback scan (the loop stops *before* any tick that would
        complete a transfer, leaving it to the serial path; control
        state mutated while planning that tick is restored, so the
        serial tick re-runs it identically).

        Returns ``(ticks_executed, per_tick_radio_activity, reason)``
        where ``reason`` names why the loop returned (one of
        ``ADVANCE_HORIZON`` / ``ADVANCE_COMPLETION`` /
        ``ADVANCE_SCHEDULE`` / ``ADVANCE_FAULT``).  ``completion`` is a
        promise: the very next tick completes a transfer, so the caller
        can dispatch it serially without a wasted re-probe.  The clock
        is NOT advanced — the caller replays clock/RRC/player effects.
        """
        link = self.link
        t = self.clock.now
        clamp_reason = ADVANCE_HORIZON
        if self.schedule is not None:
            change_at = self.schedule.next_change_at(t)
            if change_at != math.inf:
                # Largest n with every tick start t + k*dt (k < n)
                # strictly before the change.
                clamp = int((change_at - t - 1e-9) / dt) + 1
                if clamp < max_ticks:
                    max_ticks = clamp
                    clamp_reason = ADVANCE_SCHEDULE
            capacity = self.schedule.bandwidth_at(t)
        else:
            capacity = link.capacity_bps
        base_capacity = capacity
        if self.faults is not None:
            fault_change = self.faults.next_change_at(t)
            if fault_change != math.inf:
                if fault_change <= t + 1e-9:
                    # An unfired (possibly no-op) reset is due: the
                    # serial path must execute this tick so the reset
                    # cursor advances exactly as in a serial run.
                    return 0, [], ADVANCE_FAULT
                clamp = int((fault_change - t - 1e-9) / dt) + 1
                if clamp < max_ticks:
                    max_ticks = clamp
                    clamp_reason = ADVANCE_FAULT
            if self.faults.dead_air_at(t):
                capacity = 0.0
        connections = self._live
        executed = 0
        activity: list[bool] = []
        while executed < max_ticks:
            saved = [
                (
                    c.state,
                    c._handshake_remaining_s,
                    c._request_latency_remaining_s,
                )
                for c in connections
            ]
            for connection in connections:
                connection.advance_control(dt)
            if len(connections) == 1:
                # Mirror of the single-connection fast path in
                # BottleneckLink.advance.
                demand = connections[0].rate_cap_bps()
                if demand <= 0 or capacity <= 1e-12:
                    allocations: tuple[float, ...] | list[float] = (0.0,)
                elif demand <= capacity + 1e-12:
                    allocations = (demand,)
                else:
                    allocations = (capacity,)
            else:
                demands = [c.rate_cap_bps() for c in connections]
                allocations = allocate(capacity, demands)
            # Plan the tick; commit only if no transfer would complete.
            plan = []
            completing = False
            for connection, rate_bps in zip(connections, allocations):
                num_bytes = rate_bps * dt / 8.0
                if num_bytes <= 0:
                    continue
                transfer = connection.transfer
                delivered = min(num_bytes, transfer.remaining_bytes)
                if (
                    transfer.delivered_bytes + delivered
                    >= transfer.total_bytes - 1e-6
                ):
                    completing = True
                    break
                plan.append((connection, transfer, delivered))
            if completing:
                # advance_control already ran for this aborted tick;
                # put the countdowns back so the serial tick that takes
                # over replays them identically.
                for connection, (state, handshake, latency) in zip(
                    connections, saved
                ):
                    connection.state = state
                    connection._handshake_remaining_s = handshake
                    connection._request_latency_remaining_s = latency
                clamp_reason = ADVANCE_COMPLETION
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
                link.total_bytes_delivered += (
                    connection.total_bytes_received - before
                )
            activity.append(link.total_bytes_delivered > before_link)
            t = round(t + dt, 9)
            executed += 1
        if executed and self.schedule is not None:
            # The serial loop re-asserts the (identical) capacity every
            # tick; leave the link in the same state.  Under dead air
            # the serial tick restores the schedule capacity afterwards,
            # so mirror that by asserting the un-faulted value.
            link.set_capacity(base_capacity)
        return executed, activity, clamp_reason
