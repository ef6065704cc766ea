"""A streaming session: server + proxy + network + player + methodology.

:class:`SharedLinkSession` wires together everything the paper's
testbed had — origin, man-in-the-middle proxy, `tc`-shaped network,
devices running the app, Xposed UI hook, and an LTE radio — and holds
the one tick body every engine executes.  :class:`Session` is its
one-client case: it runs the session tick by tick and returns a
:class:`SessionResult` carrying both the methodology's view (flows →
analyzer → QoE) and the ground truth (player events) that validates it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Optional, Sequence

from repro.analysis.bufferinfer import BufferEstimator
from repro.analysis.faults import FaultInjectingHandler, FaultSpec
from repro.analysis.proxy import ManifestRewriter, Proxy, SegmentLimitRejector
from repro.analysis.qoe import QoeReport, compute_qoe
from repro.analysis.traffic import TrafficAnalyzer
from repro.analysis.ui import UiMonitor
from repro.net.clock import Clock
from repro.net.network import Network
from repro.net.rrc import RrcMachine
from repro.net.schedule import BandwidthSchedule
from repro.obs import Observability
from repro.player.config import PlayerConfig
from repro.player.events import EventLog
from repro.player.player import Player, PlayerState
from repro.server.origin import OriginServer
from repro.services.profiles import BuiltService

#: The simulation engines: ``"tick"`` is the plain per-tick loop (the
#: oracle), ``"event"`` the event-driven loop pinned byte-identical to
#: it.  Specs validate against this at construction.
ENGINES = ("tick", "event")


class ResultFieldMissing(RuntimeError):
    """A :class:`SessionResult` accessor needs a field its replay path
    did not populate.

    Carries the field name and the provenance of the result, so the
    message explains *which* construction path (e.g. a compact
    ``RunRecord`` rehydration) dropped the data, instead of a bare
    ``AssertionError``.
    """

    def __init__(self, fields: str, replay_path: str):
        self.fields = fields
        self.replay_path = replay_path
        super().__init__(
            f"SessionResult field(s) {fields} not populated: this result "
            f"came from {replay_path}, which does not carry live session "
            "objects. Re-run with a live path (workers=0 / "
            "execute(..., keep_results=True)) to access them."
        )


@dataclass
class SessionResult:
    """Everything one session produced.

    The heavyweight fields are genuinely optional: compact replay paths
    (e.g. records deserialized by the sweep engine) may construct a
    result without live player/proxy objects.  ``replay_path`` names
    the construction path for error messages when an accessor needs a
    missing field.
    """

    service_name: str
    duration_s: float
    player_state: PlayerState
    events: Optional[EventLog] = field(repr=False, default=None)
    proxy: Optional[Proxy] = field(repr=False, default=None)
    analyzer: Optional[TrafficAnalyzer] = field(repr=False, default=None)
    ui: Optional[UiMonitor] = field(repr=False, default=None)
    qoe: Optional[QoeReport] = field(repr=False, default=None)
    rrc: Optional[RrcMachine] = field(repr=False, default=None)
    player: Optional[Player] = field(repr=False, default=None)
    replay_path: str = field(default="a partially-populated constructor call",
                             compare=False)

    def _require(self, **named: object):
        missing = [name for name, value in named.items() if value is None]
        if missing:
            raise ResultFieldMissing(", ".join(missing), self.replay_path)
        values = list(named.values())
        return values[0] if len(values) == 1 else values

    @property
    def buffer_estimator(self) -> BufferEstimator:
        analyzer, ui = self._require(analyzer=self.analyzer, ui=self.ui)
        return BufferEstimator(analyzer, ui)

    # Ground-truth shortcuts (validated against the methodology in tests)

    @property
    def true_stall_s(self) -> float:
        return self._require(events=self.events).total_stall_s()

    @property
    def true_stall_count(self) -> int:
        return self._require(events=self.events).stall_count()

    @property
    def true_startup_delay_s(self) -> float | None:
        return self._require(events=self.events).startup_delay_s()

    @property
    def playback_started(self) -> bool:
        return self.true_startup_delay_s is not None


class SharedLinkSession:
    """Players on one shaped link, one clock, one flow capture.

    The wiring every engine shares — origin (behind the fault injector
    when the spec has origin faults), man-in-the-middle proxy,
    ``tc``-shaped network, LTE radio and one player per built service —
    plus client churn and the one tick body.  :class:`Session` is the
    one-client case; :class:`~repro.core.multi.MultiSession` adds
    per-client results; the event engines
    (:class:`~repro.core.events.EventLoopCore`) execute the same tick
    body at event instants.

    ``arrivals``/``departures`` are the fleet layer's churn roster
    (default: everyone from tick zero, nobody leaves).
    """

    engine = "tick"

    def __init__(
        self,
        builts: Sequence[BuiltService],
        server: OriginServer,
        schedule: BandwidthSchedule,
        *,
        dt: float = 0.1,
        rtt_s: float = 0.05,
        faults: Optional[FaultSpec] = None,
        arrivals: Optional[Sequence[float]] = None,
        departures: Optional[Sequence[Optional[float]]] = None,
        obs: Optional[Observability] = None,
    ):
        if not builts:
            raise ValueError("need at least one client")
        self.builts = list(builts)
        self.obs = obs if obs is not None else Observability()
        # Tick accounting: the plain loop only executes ticks; the
        # batched counters are filled by the event engine's windows.
        self.ticks_executed = 0
        self.fast_forwarded_ticks = 0
        self.fast_forward_jumps = 0
        self.transfer_fast_forwarded_ticks = 0
        self.transfer_fast_forward_jumps = 0
        self.clock = Clock(dt=dt)
        self.faults = faults
        # Origin-side faults sit between the proxy and the origin (the
        # proxy must record what actually went over the wire); the
        # transport plane rides inside the network.
        self.fault_injector: Optional[FaultInjectingHandler] = None
        origin_handler = server
        if faults is not None and faults.has_origin_faults:
            self.fault_injector = FaultInjectingHandler(server, self.clock, faults)
            origin_handler = self.fault_injector
        self.proxy = Proxy(origin_handler)
        self.network = Network(
            self.clock,
            self.proxy,
            schedule,
            rtt_s=rtt_s,
            faults=faults.transport_plane() if faults is not None else None,
        )
        self.network.observers.append(self.proxy)
        self.rrc = RrcMachine()
        self.players = [
            Player(
                self.clock,
                self.network,
                built.player_config,
                built.manifest_url,
                cipher=built.cipher,
                tracer=self.obs.tracer,
            )
            for built in self.builts
        ]
        # -- churn roster (the fleet layer's arrivals/departures) ------
        count = len(self.players)
        self.arrivals = (
            list(arrivals) if arrivals is not None else [0.0] * count
        )
        self.departures = (
            list(departures) if departures is not None else [None] * count
        )
        if len(self.arrivals) != count or len(self.departures) != count:
            raise ValueError(
                "arrivals/departures must align with the client list"
            )
        for index in range(count):
            if self.arrivals[index] < 0:
                raise ValueError(f"client {index}: arrival must be >= 0")
            departure = self.departures[index]
            if departure is not None and departure <= self.arrivals[index]:
                raise ValueError(
                    f"client {index}: departure must follow arrival"
                )
        self._churn = any(a > 1e-9 for a in self.arrivals) or any(
            d is not None for d in self.departures
        )
        self._arrived = [a <= 1e-9 for a in self.arrivals]
        self._retired = [False] * count
        self._active_ids = [
            index for index in range(count) if self._arrived[index]
        ]
        self._active = [self.players[index] for index in self._active_ids]
        self._duration = 0.0

    # -- the tick body -----------------------------------------------------

    def _tick(self, dt: float, lap=None) -> None:
        """One serial tick: churn, network, RRC, players, clock.

        The only tick body: the tick loop runs it every tick and the
        event engines run it at every event instant, where only the
        players :meth:`_wake_split` wakes are advanced (the rest owe
        the tick as a certified no-op, paid later).  ``lap`` (the
        profiled tick loop's timer) is called at the start of the timed
        phases with None and after each with its name.
        """
        if self._churn:
            self._process_churn(self.clock.now)
        network = self.network
        link = network.link
        if lap is not None:
            lap(None)
        before = link.total_bytes_delivered
        ended = network.advance(dt, self._settle_owners)
        radio_active = link.total_bytes_delivered > before
        if lap is not None:
            lap("network")
        self.rrc.observe(radio_active, dt)
        if lap is not None:
            lap("rrc")
        for player in self._wake_split(ended):
            player.advance(dt)
        if lap is not None:
            lap("player")
        self.clock.tick()
        self.ticks_executed += 1

    #: Called by ``network.advance`` with the connections whose
    #: transfers end this tick, before their callbacks run.  Every
    #: player is current in the tick loop; the event engine pays the
    #: owners' deferred no-op ticks here.
    _settle_owners = None

    def _wake_split(self, ended) -> Sequence[Player]:
        """The active players this tick advances.

        Called after ``network.advance``, with the connections whose
        transfer ended in it.  The tick oracle advances everyone; the
        event engine lets players inside their wake deadline sleep.
        """
        return self._active

    def _run_ticks(self, duration_s: float, lap=None) -> None:
        """Tick the world until ``duration_s`` or every client is done."""
        self._duration = duration_s
        dt = self.clock.dt
        limit = duration_s - 1e-9
        clock = self.clock
        while clock.now < limit:
            self._tick(dt, lap)
            if self._all_done():
                break

    def _run_ticks_profiled(self, duration_s: float) -> None:
        """:meth:`_run_ticks` with per-phase wall-time accounting.

        The same tick body, timed at its phase boundaries.  Phase times
        accumulate in a local dict and reach the profiler once at the
        end.
        """
        phases = {"network": 0.0, "player": 0.0, "rrc": 0.0}
        mark = 0.0

        def lap(phase):
            nonlocal mark
            now = perf_counter()
            if phase is not None:
                phases[phase] += now - mark
            mark = now

        ticks_before = self.ticks_executed
        self._run_ticks(duration_s, lap)
        ticks = self.ticks_executed - ticks_before
        for phase, wall_s in phases.items():
            self.obs.profiler.add(phase, wall_s, ticks)

    # -- churn -------------------------------------------------------------

    def _process_churn(self, now: float) -> None:
        """Activate due arrivals and retire due departures at ``now``.

        Runs at the top of every (dispatched) tick in both engines, so
        a client's first advance and its retirement land on exactly the
        same tick either way — the byte-identity contract extended to
        churn.
        """
        changed = False
        for index in range(len(self.players)):
            if not self._arrived[index]:
                if self.arrivals[index] <= now + 1e-9:
                    self._arrived[index] = True
                    changed = True
                continue
            if self._retired[index]:
                continue
            departure = self.departures[index]
            if departure is not None and now >= departure - 1e-9:
                self._retire(index, now)
                changed = True
        if changed:
            self._active_ids = [
                index
                for index in range(len(self.players))
                if self._arrived[index] and not self._retired[index]
            ]
            self._active = [self.players[index] for index in self._active_ids]

    def _retire(self, index: int, now: float) -> None:
        """Tear down a departing client's flows without completions.

        ``Network.retire_connections`` marks any in-flight transfer
        aborted *without* firing its completion callback (no re-entrant
        retry scheduling on a player that will never advance again),
        then the connections leave the shared link so the remaining
        clients stop sharing capacity with a ghost.
        """
        player = self.players[index]
        self.network.retire_connections(player.scheduler.connections(), now)
        self._retired[index] = True

    def _all_done(self) -> bool:
        """Every arrived, unretired client has ended with nothing in
        flight, and no client is still due to arrive."""
        if not self._churn:
            for player in self.players:
                if not player.ended or player.scheduler.busy:
                    return False
            return True
        for index, player in enumerate(self.players):
            if self._retired[index]:
                continue
            if not self._arrived[index]:
                if self.arrivals[index] < self._duration - 1e-9:
                    return False  # still due to arrive
                continue  # never arrives within this run
            if not player.ended or player.scheduler.busy:
                return False
        return True

    def engine_metrics_into(self, metrics) -> None:
        """Record the engine's own counters into ``metrics``.

        The tick loop keeps none beyond its tick counts; the event
        engine adds its dispatch, queue and wake counters.
        """


class Session(SharedLinkSession):
    """One configured run of one service over one bandwidth schedule.

    The one-client :class:`SharedLinkSession`: it adds the proxy's
    manifest rewriter and segment rejector, the run's observability
    plane and the :class:`SessionResult`.
    """

    def __init__(
        self,
        built: BuiltService,
        server: OriginServer,
        schedule: BandwidthSchedule,
        *,
        dt: float = 0.1,
        rtt_s: float = 0.05,
        manifest_rewriter: Optional[ManifestRewriter] = None,
        reject_after_segments: Optional[int] = None,
        player_config: Optional[PlayerConfig] = None,
        faults: Optional[FaultSpec] = None,
        obs: Optional[Observability] = None,
    ):
        if player_config is not None:
            built = replace(built, player_config=player_config)
        super().__init__(
            [built], server, schedule, dt=dt, rtt_s=rtt_s, faults=faults, obs=obs
        )
        self.built = built
        self.player = self.players[0]
        if manifest_rewriter is not None:
            self.proxy.manifest_rewriter = manifest_rewriter
        self.live_analyzer: Optional[TrafficAnalyzer] = None
        if reject_after_segments is not None:
            self.live_analyzer = TrafficAnalyzer()
            self.proxy.flow_listeners.append(self.live_analyzer.observe_flow)
            self.proxy.rejector = SegmentLimitRejector(
                self.live_analyzer, reject_after_segments
            )

    def run(self, duration_s: float) -> SessionResult:
        """Tick the world until ``duration_s`` or the session ends."""
        if self.obs.profiler is not None:
            return self._run_profiled(duration_s)
        self._run_ticks(duration_s)
        return self._finish()

    def _run_profiled(self, duration_s: float) -> SessionResult:
        self._run_ticks_profiled(duration_s)
        t0 = perf_counter()
        result = self._finish()
        self.obs.profiler.add("finish", perf_counter() - t0, 1)
        return result

    def _finish(self) -> SessionResult:
        analyzer = TrafficAnalyzer()
        analyzer.observe_flows(self.proxy.flows)
        ui = UiMonitor(self.player.ui_samples)
        qoe = compute_qoe(analyzer, ui, total_bytes=self.proxy.total_bytes())
        self._record_metrics()
        return SessionResult(
            service_name=self.built.spec.name,
            duration_s=self.clock.now,
            player_state=self.player.state,
            events=self.player.events,
            proxy=self.proxy,
            analyzer=analyzer,
            ui=ui,
            qoe=qoe,
            rrc=self.rrc,
            player=self.player,
            replay_path="a live Session.run",
        )

    def _record_metrics(self) -> None:
        """Fill the run's metrics registry from final subsystem state.

        Everything recorded here is a pure function of the run's inputs
        (nothing wall-clock- or process-dependent), preserving the
        sweep engine's workers=0 == workers=N aggregation contract.
        Tick-mode counters differ between the tick and event engines —
        like TickStats, and by design: they *measure* the batching.
        """
        metrics = self.obs.metrics
        metrics.counter("session.runs").inc()
        metrics.counter("session.ticks", mode="executed").inc(
            self.ticks_executed
        )
        metrics.counter("session.ticks", mode="idle_ff").inc(
            self.fast_forwarded_ticks
        )
        metrics.counter("session.ticks", mode="transfer_ff").inc(
            self.transfer_fast_forwarded_ticks
        )
        metrics.counter("session.ff_jumps", layer="idle").inc(
            self.fast_forward_jumps
        )
        metrics.counter("session.ff_jumps", layer="transfer").inc(
            self.transfer_fast_forward_jumps
        )
        metrics.counter("session.simulated_seconds").inc(self.clock.now)
        metrics.counter("rrc.energy_j").inc(self.rrc.energy_j)
        self.network.metrics_into(metrics)
        self.player.metrics_into(metrics)
        self.engine_metrics_into(metrics)
