"""Transport-layer fault models: dead air, latency spikes, resets.

The fault plane is the network-side half of the robustness testbed
(origin-side faults live in ``repro.analysis.faults``).  Everything
here is deterministic and schedule-driven so a faulted run is exactly
reproducible, and every discontinuity a fault introduces is exposed
through :meth:`TransportFaultPlane.next_change_at` so batched ticks
(``Network.advance_many``) never cross one — the tick and event
engines stay byte-identical under faults.

Fault semantics:

* **Dead air** — the link delivers zero bytes inside the window, as if
  the radio went silent; control countdowns (handshake, request
  latency) still tick, matching how a zero-bandwidth schedule behaves.
* **Latency spike** — requests *issued* inside the window pay extra
  request latency.  Applied at request time (requests are only issued
  on serially-executed ticks), so no change point is needed.
* **Connection reset** — at the scheduled time every in-flight transfer
  is torn down and its connection closed; the client sees an aborted
  response and the next request pays a fresh handshake.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.util import check_non_negative


@dataclass(frozen=True)
class DeadAirWindow:
    """Half-open window ``[start_s, end_s)`` during which no bytes move."""

    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        check_non_negative("start_s", self.start_s)
        if self.end_s <= self.start_s:
            raise ValueError(f"empty dead-air window [{self.start_s}, {self.end_s})")


@dataclass(frozen=True)
class LatencySpikeWindow:
    """Requests issued in ``[start_s, end_s)`` pay ``extra_s`` more RTT."""

    start_s: float
    end_s: float
    extra_s: float

    def __post_init__(self) -> None:
        check_non_negative("start_s", self.start_s)
        if self.end_s <= self.start_s:
            raise ValueError(f"empty spike window [{self.start_s}, {self.end_s})")
        check_non_negative("extra_s", self.extra_s)


class TransportFaultPlane:
    """Evaluates the transport fault schedule for one :class:`Network`.

    Holds the one piece of mutable state — the cursor over reset times —
    so a plane instance belongs to a single network/session.
    """

    def __init__(
        self,
        *,
        dead_air: tuple[DeadAirWindow, ...] = (),
        latency_spikes: tuple[LatencySpikeWindow, ...] = (),
        reset_times: tuple[float, ...] = (),
    ) -> None:
        self.dead_air = tuple(sorted(dead_air, key=lambda w: w.start_s))
        self.latency_spikes = tuple(latency_spikes)
        self.reset_times = tuple(sorted(reset_times))
        for at in self.reset_times:
            check_non_negative("reset time", at)
        self._next_reset = 0

    # -- request-time faults (serial ticks only, no change points) ------

    def extra_latency_at(self, t: float) -> float:
        extra = 0.0
        for window in self.latency_spikes:
            if window.start_s <= t < window.end_s:
                extra += window.extra_s
        return extra

    # -- tick-level faults ----------------------------------------------

    def dead_air_at(self, t: float) -> bool:
        for window in self.dead_air:
            if window.start_s <= t < window.end_s:
                return True
        return False

    def resets_due(self, t: float) -> int:
        """Pop and count resets scheduled at or before ``t``."""
        fired = 0
        while (
            self._next_reset < len(self.reset_times)
            and self.reset_times[self._next_reset] <= t + 1e-9
        ):
            self._next_reset += 1
            fired += 1
        return fired

    # -- batching contract ------------------------------------------

    def next_change_at(self, t: float) -> float:
        """Earliest time > ``t`` (or an unfired reset <= ``t``) at which
        the fault plane alters tick behaviour.

        Unfired resets are reported even when already due: the caller
        must execute that tick serially so the reset fires (possibly as
        a no-op) and the cursor advances identically to the serial run.
        """
        change = math.inf
        if self._next_reset < len(self.reset_times):
            change = self.reset_times[self._next_reset]
        for window in self.dead_air:
            if window.start_s > t + 1e-9:
                change = min(change, window.start_s)
            elif window.end_s > t + 1e-9:
                change = min(change, window.end_s)
        return change
