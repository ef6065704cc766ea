"""Multiple players sharing one cellular bottleneck.

The paper's related work (FESTIVE, reference [31]) is about fairness
between concurrent HAS clients on a shared link — a question this
testbed can answer directly: :class:`MultiSession` runs N independent
players (possibly different services) against one shaped link, with a
single proxy capturing all flows, and attributes downloads back to
each player by URL namespace.

Both engines are the single-session ones: :class:`MultiSession` runs
the tick loop of :class:`~repro.core.session.SharedLinkSession` (the
oracle) and :class:`EventDrivenMultiSession` the event loop of
:class:`~repro.core.events.EventLoopCore`; a one-client
:class:`~repro.core.session.Session` is the same code with one player.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.qoe import QoeReport, compute_qoe
from repro.analysis.traffic import TrafficAnalyzer
from repro.analysis.ui import UiMonitor
from repro.core.events import EventLoopCore
from repro.core.session import SharedLinkSession
from repro.player.events import SessionEnded
from repro.player.player import Player


@dataclass(frozen=True)
class ClientRecord:
    """The picklable summary of one client's shared-link session.

    The :class:`~repro.core.parallel.RunRecord` idea applied per
    client: everything comparable and process-portable — QoE, terminal
    state, churn instants — with the live object graph left behind on
    :class:`ClientResult`.  This is what crosses worker boundaries and
    enters the outcome cache as part of a
    :class:`~repro.core.fleet.FleetOutcome`.

    ``final_state`` is the player state value, or ``"departed"`` when
    churn retired the client mid-session, or ``"unarrived"`` when its
    arrival fell past the end of the run (offered but never carried
    load).
    """

    client_id: str
    service_name: str
    qoe: QoeReport
    final_state: str
    end_reason: Optional[str] = None
    device_class: str = "default"
    arrival_s: float = 0.0
    departure_s: Optional[float] = None


@dataclass
class ClientResult:
    """One player's view of a shared-link session.

    Splits along the RunRecord/RunOutcome seam: ``record`` is the
    picklable summary, the remaining fields are the live object handles
    (player graph, flow analyzer, UI monitor) that only exist on
    in-process runs.  The old flat attributes (``client_id``,
    ``service_name``, ``qoe``) remain readable as delegating
    properties.
    """

    record: ClientRecord
    player: Player
    analyzer: TrafficAnalyzer
    ui: UiMonitor

    @property
    def client_id(self) -> str:
        return self.record.client_id

    @property
    def service_name(self) -> str:
        return self.record.service_name

    @property
    def qoe(self) -> QoeReport:
        return self.record.qoe


class MultiSession(SharedLinkSession):
    """N players, one link, one clock, one flow capture."""

    def run(self, duration_s: float) -> list[ClientResult]:
        self._run_ticks(duration_s)
        return self._collect_results()

    # -- results -----------------------------------------------------------

    def _final_state(self, index: int) -> str:
        if self._churn and not self._arrived[index]:
            return "unarrived"
        if self._retired[index]:
            return "departed"
        return self.players[index].state.value

    def _flows_by_asset(self) -> dict[str, list]:
        """Every client's captured flows, keyed by asset id, in one pass.

        A flow belongs to an asset when ``/{asset_id}/`` occurs in its
        URL.  For an id without ``/`` that is the same as the id being
        one of the URL's inner ``/``-separated segments, so one split
        per flow serves every client; a URL naming an asset twice is
        still listed once.  Capture order is kept.
        """
        flows = self.proxy.flows
        groups: dict[str, list] = {}
        for built in self.builts:
            asset_id = built.asset.asset_id
            if "/" in asset_id:
                marker = f"/{asset_id}/"
                groups[asset_id] = [f for f in flows if marker in f.url]
            else:
                groups[asset_id] = []
        for flow in flows:
            for segment in flow.url.split("/")[1:-1]:
                group = groups.get(segment)
                if group is not None and (not group or group[-1] is not flow):
                    group.append(flow)
        return groups

    def _collect_results(self) -> list[ClientResult]:
        results = []
        flows_by_asset = self._flows_by_asset()
        for index, (built, player) in enumerate(
            zip(self.builts, self.players)
        ):
            flows = flows_by_asset[built.asset.asset_id]
            analyzer = TrafficAnalyzer()
            analyzer.observe_flows(flows)
            ui = UiMonitor(player.ui_samples)
            end_reason = next(
                (
                    event.reason
                    for event in player.events.events
                    if isinstance(event, SessionEnded)
                ),
                None,
            )
            record = ClientRecord(
                client_id=built.asset.asset_id,
                service_name=built.spec.name,
                qoe=compute_qoe(
                    analyzer, ui,
                    total_bytes=sum(f.size_bytes or 0 for f in flows
                                    if f.complete),
                ),
                final_state=self._final_state(index),
                end_reason=end_reason,
                arrival_s=self.arrivals[index],
                departure_s=self.departures[index],
            )
            results.append(
                ClientResult(
                    record=record, player=player, analyzer=analyzer, ui=ui
                )
            )
        return results


class EventDrivenMultiSession(EventLoopCore, MultiSession):
    """A :class:`MultiSession` stepping event to event on one queue.

    Every client's producer deadlines — per-player wakes, per-job
    completion estimates, the fault plane's and the churn roster's
    static entries — share one :class:`~repro.core.events.EventQueue`;
    batched windows replay through the identical primitives, keeping
    ``ClientResult``s byte-identical to the tick loop's.
    """

    def run(self, duration_s: float) -> list[ClientResult]:
        self._run_events(duration_s)
        return self._collect_results()
