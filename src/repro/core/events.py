"""Event-driven simulation core: advance the clock event to event.

The tick loop (:class:`~repro.core.session.SharedLinkSession`)
discovers what happens next by scanning: every serial tick runs the
full network → RRC → player pipeline just to find out whether anything
changed.  This module inverts the control flow: producers *push* their
next event into an :class:`EventQueue` and :class:`EventLoopCore`
advances the clock from event to event, executing the tick body only
at event instants.  It is the one event loop for one client
(:class:`EventDrivenSession`) and N on a shared link
(:class:`~repro.core.multi.EventDrivenMultiSession`).

Byte-identity is non-negotiable (the tick engine stays the oracle), and
it pins the design:

* The serial loop accumulates floats per tick (``pos += dt``,
  ``delivered_bytes += rate * dt / 8``, ``round(t + dt, 9)``), so a
  closed-form jump would land on different ulps.  Batched windows are
  therefore *replayed* through the proven per-tick primitives —
  ``Network.advance_many`` (the download micro-loop) and
  ``Player.apply_noop_ticks`` — which execute the identical arithmetic
  without any per-tick *decision* logic.
* Event instants are executed as one serial tick through the oracle's
  tick body (churn, ``network.advance``, RRC, players, clock).  The
  players the instant *woke* — wake deadline due or missing, a wire
  part of theirs completed in this tick's ``network.advance``, or a
  fault change point due (which wakes everyone) — run the oracle's
  ``Player.advance``, so everything observable (completions, state
  transitions, trace spans, QoE) is produced by the same code in both
  engines.  Every other player is inside its certified wake deadline
  and owes the tick as a no-op, exactly as it owes a batched window's
  ticks; the debt is paid in one ``apply_noop_ticks`` call when the
  player wakes (before its transfers' callbacks fire), retires or the
  run ends, which replays the owed ticks bit-identically.
* Dispatch classification is post-hoc (it compares producer
  signatures around the tick), so it cannot perturb the simulation.

Each producer owns its deadline (phase 2 of the engine):

* **Player**: one ``PLAYER_WAKE`` per player, the minimum over the
  margin contracts (ABR drain thresholds, segment boundaries,
  rebuffer/resume flips, retry backoffs).  The deadline is *absolute*
  and stays valid until a dispatched tick moves that player's state —
  mode and margins can only change when the player advances — so it
  is recomputed only for the players a dispatch woke, and re-pushed
  only when it actually moved.  Batch rounds and sleeping ticks in
  between re-derive nothing.
* **Scheduler**: one advisory ``TRANSFER_COMPLETE`` estimate per
  in-flight job, pushed when the job's transfers start (closed-form
  slow-start horizon under a fair capacity share) and cancelled when
  the job leaves flight.  Estimates never force a dispatch: exact
  completion boundaries come from ``advance_many``'s stop reason, so a
  stale estimate is simply dropped.
* **Fault plane and churn roster**: static ``FAULT_CHANGE`` entries
  for dead-air boundaries and reset times, ``CLIENT_CHURN`` entries for
  arrivals and departures, registered up front.

``Network.advance_many`` reports *why* it stopped (completion /
schedule change / fault / horizon).  A ``completion`` stop is a
promise that the very next tick completes a transfer, so the loop
dispatches it immediately instead of paying a second ``advance_many``
probe that would return 0 — and instead of re-deriving player margins
that cannot have changed.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from time import perf_counter

from repro.core.session import Session, SessionResult
from repro.net.network import (
    ADVANCE_COMPLETION,
    ADVANCE_FAULT,
)
from repro.obs import EventJump
from repro.player.events import SegmentPlayStarted
from repro.player.player import PlayerState


class EventType(enum.Enum):
    """What a queued event announces.

    Coarser than the dispatch classification on purpose: the queue
    schedules *when* the engine must look, the post-hoc classifier
    records *what it found*.  ABR/replacement wakes, rebuffer/render
    deadlines and retry-backoff expiries all surface as the player's
    single ``PLAYER_WAKE`` (the minimum over its margin contracts);
    ``TRANSFER_COMPLETE`` entries are the scheduler's per-job
    completion estimates (advisory — the exact boundary comes from
    ``advance_many``'s stop reason); RRC timers need no events at all —
    radio state is replayed per-tick inside every batched window.
    """

    PLAYER_WAKE = "player_wake"
    TRANSFER_COMPLETE = "transfer_complete"
    FAULT_CHANGE = "fault_change"
    SESSION_END = "session_end"
    # A fleet client's arrival or departure instant (static, registered
    # up front like FAULT_CHANGE): batched windows clamp before it so
    # activation and retirement always happen on a dispatched tick.
    CLIENT_CHURN = "client_churn"


class Event:
    """One queue entry.  Identity-compared; ``cancel`` is lazy."""

    __slots__ = ("time", "type", "payload", "priority", "seq", "cancelled")

    def __init__(self, time, type, payload=None, priority=0, seq=0):
        self.time = time
        self.type = type
        self.payload = payload
        self.priority = priority
        self.seq = seq
        self.cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time}, {self.type.value}, seq={self.seq}{flag})"


class EventQueue:
    """A deterministic min-heap of typed events.

    Ordering is total and stable: ``(time, priority, seq)``, where
    ``seq`` is the registration order — two events at the same instant
    always pop in the order they were pushed, on every platform and
    every run.  Cancellation is lazy (the heap entry is tombstoned and
    skimmed on the next peek/pop), so ``cancel`` is O(1) and a
    cancel + re-register cycle never loses or duplicates live events.
    Tombstones cannot pile up: when dead entries outnumber live ones
    (beyond a small floor) the heap is compacted in one pass, so the
    heap stays O(live) under producer cancel/re-push churn.
    """

    _COMPACT_MIN = 64

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._live = 0
        self.pushed_total = 0
        self.cancelled_total = 0

    def __len__(self) -> int:
        """Number of live (un-cancelled, un-popped) events."""
        return self._live

    def push(
        self,
        time: float,
        type: EventType,
        payload: object = None,
        priority: int = 0,
    ) -> Event:
        event = Event(time, type, payload, priority, next(self._seq))
        heapq.heappush(self._heap, (time, priority, event.seq, event))
        self._live += 1
        self.pushed_total += 1
        return event

    def cancel(self, event: Event) -> None:
        """Tombstone ``event``; idempotent, no-op if already popped.

        Counted in ``cancelled_total`` (explicit producer cancels only,
        not pops).  Triggers a compaction when tombstones dominate.
        """
        if not event.cancelled:
            event.cancelled = True
            self._live -= 1
            self.cancelled_total += 1
            heap = self._heap
            if len(heap) >= self._COMPACT_MIN and len(heap) > 2 * self._live:
                self._compact()

    def _compact(self) -> None:
        """Rebuild the heap from live entries only.

        The entries are total-ordered tuples, so heapify reproduces the
        exact pop order the skimmed heap would have produced.
        """
        self._heap = [entry for entry in self._heap if not entry[3].cancelled]
        heapq.heapify(self._heap)

    def _skim(self) -> None:
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)

    def peek(self) -> Event | None:
        self._skim()
        return self._heap[0][3] if self._heap else None

    def next_time(self) -> float:
        head = self.peek()
        return head.time if head is not None else math.inf

    def pop(self) -> Event | None:
        self._skim()
        if not self._heap:
            return None
        event = heapq.heappop(self._heap)[3]
        # Popping consumes the live entry; mark it so a later cancel()
        # of a stale handle cannot corrupt the live count.
        event.cancelled = True
        self._live -= 1
        # Pops shrink the live count without skimming mid-heap
        # tombstones, so the dominance bound must be re-checked here
        # too, not just on cancel.
        heap = self._heap
        if len(heap) >= self._COMPACT_MIN and len(heap) > 2 * self._live:
            self._compact()
        return event

    def pop_due(self, time: float) -> list[Event]:
        """Pop every live event with ``event.time <= time``, in order."""
        due: list[Event] = []
        while True:
            head = self.peek()
            if head is None or head.time > time:
                return due
            due.append(self.pop())


#: Dispatch labels in priority order: a tick that did several things is
#: named after the first.  Exogenous causes (the fault plane, churn)
#: come first; ``noop`` is the residue.
DISPATCH_KINDS = (
    "fault_change",
    "client_churn",
    "transfer_complete",
    "fetch_submitted",
    "state_transition",
    "segment_boundary",
    "player_event",
    "pause_flip",
    "noop",
)
_RANK = {kind: rank for rank, kind in enumerate(DISPATCH_KINDS)}


def _player_signature(player) -> tuple:
    """The producer state a wake deadline and a dispatch label read."""
    scheduler = player.scheduler
    return (
        player.state,
        scheduler.completed_parts,
        scheduler.inflight(),
        len(player.events.events),
        player.pause_state(),
    )


def _change_kind(player, before: tuple, after: tuple) -> str:
    """What moved one player from signature ``before`` to ``after``.

    Completion is counted at the wire level (``completed_parts``), so a
    split job's intermediate byte-range parts label their ticks too.
    """
    state, completed, inflight, events, paused = before
    if after[1] > completed:
        return "transfer_complete"
    if after[2] > inflight:
        return "fetch_submitted"
    if after[0] is not state:
        return "state_transition"
    if after[3] > events:
        if isinstance(player.events.events[events], SegmentPlayStarted):
            return "segment_boundary"
        return "player_event"
    if after[4] != paused:
        return "pause_flip"
    return "noop"


class EventLoopCore:
    """The one event loop, for one client or N on a shared link.

    Mixed in ahead of a :class:`~repro.core.session.SharedLinkSession`
    subclass, whose tick body it executes at event instants.  Producers
    own their deadlines in one shared :class:`EventQueue`:

    * every active player keeps one ``PLAYER_WAKE``, its absolute
      margin-contract deadline.  A dispatched tick advances only the
      players it woke (:meth:`_wake_split`); the rest owe it as a
      certified no-op (:meth:`_catch_up`).  Of the woken, only
      players whose signature (state / wire completions / in-flight
      count / emitted events / pause flags) moved recompute it; a
      popped wake always recomputes, so serial stretches re-vet every
      tick;
    * every in-flight job one advisory ``TRANSFER_COMPLETE`` estimate;
    * the fault plane and the churn roster their static entries.

    Batched windows replay through the proven per-tick primitives
    (``Network.advance_many`` over the shared link's live connections,
    per-tick RRC observations); the players owe the window's ticks and
    pay them with ``apply_noop_ticks`` at their next catch-up.  Each
    dispatch is labelled post-hoc from the same signatures
    (:data:`DISPATCH_KINDS`), so the classifier adds no second
    per-player scan.
    """

    engine = "event"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.queue = EventQueue()
        self.events_dispatched = 0
        self.dispatch_counts: dict[str, int] = {}
        self.advance_stop_counts: dict[str, int] = {}
        self.max_queue_depth = 0
        # Serial advances and certified no-op replays on dispatched
        # ticks, summed over players (``session.player_advances`` /
        # ``session.player_sleeps``).
        self.player_advances = 0
        self.player_sleeps = 0
        self._completion_due = False
        self._wake_all = False
        self._limit = 0.0
        count = len(self.players)
        self._wake_handles: list[Event | None] = [None] * count
        self._wake_sigs: list[tuple | None] = [None] * count
        # The players the current dispatch's due events name (wakes and
        # arrivals), and the players it advances (see _wake_split).
        self._woken: set[int] = set()
        self._awake_ids: list[int] = []
        # Who owns each connection: a tick's ended transfers wake their
        # owners.  Schedulers open every connection at construction.
        self._owner = {
            connection: index
            for index, player in enumerate(self.players)
            for connection in player.scheduler.connections()
        }
        # Per player: (tick count, clock value) at the first no-op tick
        # it still owes, or None when it owes none (see _catch_up).
        self._debt_since: list[tuple[int, float] | None] = [None] * count
        # Per player: id(job) -> that in-flight job's completion estimate.
        self._job_estimates: list[dict[int, Event]] = [
            {} for _ in range(count)
        ]

    # -- main loop ---------------------------------------------------------

    def _run_events(self, duration_s: float) -> None:
        """Advance the clock event to event until ``duration_s`` or
        every client is done."""
        profiler = self.obs.profiler
        t0 = perf_counter() if profiler is not None else 0.0
        clock = self.clock
        dt = clock.dt
        limit = duration_s - 1e-9
        self._limit = limit
        self._duration = duration_s
        self._register_fault_events()
        self._register_churn_events(duration_s)
        if self._churn:
            self._process_churn(clock.now)
        self._refresh_producers((), True, self._active_ids)
        for index in self._active_ids:
            self._debt_since[index] = (self._ticks_elapsed(), clock.now)
        if clock.now < limit and self._all_done():
            # Done before the first tick (every churn arrival falls
            # after the end): the oracle still runs one tick before its
            # first check, and no queue entry would stop a batch there.
            self._dispatch_tick(dt)
            limit = clock.now
        while clock.now < limit:
            if self._completion_due:
                # advance_many promised the next tick completes a
                # transfer: dispatch it straight away — no queue scan,
                # no margin recompute, no wasted 0-tick probe.
                self._completion_due = False
                if self._dispatch_tick(dt):
                    break
                continue
            now = clock.now
            next_t = self._next_event_time(now)
            if next_t <= now + 1e-9:
                if self._dispatch_tick(dt):
                    break
                continue
            if self._batch_to(min(next_t, limit), limit, dt):
                break
        # The one catch-up point for the run's readers (results, QoE,
        # metrics): every client still on the cell pays its debt.
        for index in self._active_ids:
            self._catch_up(index)
        if profiler is not None:
            profiler.add("event_loop", perf_counter() - t0, 1)

    def _dispatch_tick(self, dt: float) -> bool:
        """Execute one event instant as the serial tick body and label
        it; True ends the session.

        Everything around the tick only *reads* state: queue pops
        happen before it, but fault evaluation inside
        ``network.advance`` re-derives faults from time, never from the
        queue.  A due fault change point wakes every player.
        """
        due = self.queue.pop_due(self.clock.now + 1e-9)
        fault = EventType.FAULT_CHANGE
        self._wake_all = any(event.type is fault for event in due)
        # Due wakes, and arrivals (a departure retires its payload).
        self._woken = {
            event.payload
            for event in due
            if event.type is EventType.PLAYER_WAKE
            or event.type is EventType.CLIENT_CHURN
        }
        self._tick(dt)
        self.events_dispatched += 1
        # The advanced players owe nothing up to the new clock value.
        paid = (self._ticks_elapsed(), self.clock.now)
        debts = self._debt_since
        for index in self._awake_ids:
            debts[index] = paid
        done = self._all_done()
        # After the final tick nothing is re-armed: the loop breaks.
        kind = self._refresh_producers(due, not done, self._awake_ids)
        counts = self.dispatch_counts
        counts[kind] = counts.get(kind, 0) + 1
        return done

    def _batch_to(self, target: float, limit: float, dt: float) -> bool:
        """Replay the certified no-op window ending at ``target``.

        No per-round margin recompute (wakes are absolute deadlines,
        valid until the next dispatch) and no per-round fault horizon
        (fault change points and churn instants are queue entries, so
        ``target`` already stops short of them).  Returns True when a
        dispatch taken on a serial fallback path ended the session.
        """
        clock = self.clock
        now = clock.now
        # The cap includes the final tick: the oracle executes ticks
        # while now < limit, so the last window may batch straight
        # through to the end instead of dispatching one (usually no-op)
        # serial tick per session.
        remaining = int((limit - now) / dt) + 1
        ticks = int((target - now - 1e-9) / dt) + 1
        if ticks > remaining:
            ticks = remaining
        if ticks < 1:
            return self._dispatch_tick(dt)
        network = self.network
        players = self._active
        rrc = self.rrc
        if network.steady_for_batching():
            executed, activity, reason = network.advance_many(ticks, dt)
            counts = self.advance_stop_counts
            counts[reason] = counts.get(reason, 0) + 1
            if reason == ADVANCE_COMPLETION:
                self._completion_due = True
            if executed <= 0:
                # A completion or fault is due on this very tick.
                self._completion_due = False
                return self._dispatch_tick(dt)
            # Every player owes these ticks as no-ops (see _catch_up).
            for radio_active in activity:
                rrc.observe(radio_active, dt)
                clock.tick()
            self.transfer_fast_forwarded_ticks += executed
            self.transfer_fast_forward_jumps += 1
            self._emit_jump(now, "transfer", executed, reason)
            return False
        if any(player.scheduler.busy for player in players):
            # Jobs in flight with no live transfer anywhere: no
            # contract covers this edge, so the tick runs serially.
            return self._dispatch_tick(dt)
        # With no transfer on the link it moves no bytes and connection
        # control is a no-op (state-independent): replay RRC idle
        # observations and clock ticks, skip network.advance; the
        # players owe the ticks as no-ops.
        for _ in range(ticks):
            rrc.observe(False, dt)
            clock.tick()
        self.fast_forwarded_ticks += ticks
        self.fast_forward_jumps += 1
        self._emit_jump(now, None, ticks, "player_wake")
        return False

    # -- producers ---------------------------------------------------------

    def _register_fault_events(self) -> None:
        """Static producers: the fault plane's change points, up front.

        Dead-air boundaries and reset times are known at construction;
        each becomes one queue entry.  Schedule change points are *not*
        events — they only split transfer windows (``advance_many``
        clamps at ``next_change_at`` and the next planning round
        resumes batching under the new capacity), and idle windows do
        not depend on capacity at all.
        """
        faults = self.network.faults
        if faults is None:
            return
        for window in faults.dead_air:
            self.queue.push(
                window.start_s, EventType.FAULT_CHANGE, "dead_air_start"
            )
            self.queue.push(window.end_s, EventType.FAULT_CHANGE, "dead_air_end")
        for at in faults.reset_times:
            self.queue.push(at, EventType.FAULT_CHANGE, "reset")
        self.max_queue_depth = len(self.queue)

    def _register_churn_events(self, duration_s: float) -> None:
        """Static queue entries for every churn instant inside the run.

        Like fault change points: batched windows clamp just before
        them, so arrivals activate and departures retire on a
        dispatched (serial) tick — the same tick the oracle's per-tick
        churn scan would pick.
        """
        if not self._churn:
            return
        for index in range(len(self.players)):
            arrival = self.arrivals[index]
            if arrival > 1e-9 and arrival < duration_s - 1e-9:
                self.queue.push(arrival, EventType.CLIENT_CHURN, index)
                self._note_depth()
            departure = self.departures[index]
            if departure is not None and departure < duration_s - 1e-9:
                self.queue.push(departure, EventType.CLIENT_CHURN, index)
                self._note_depth()

    def _retire(self, index: int, now: float) -> None:
        """Retire the client and cancel the deadlines it owns: its wake
        and its jobs' completion estimates.  It pays its no-op debt
        first: it never advances again, but its results are read."""
        self._catch_up(index)
        self._debt_since[index] = None
        super()._retire(index, now)
        queue = self.queue
        handle = self._wake_handles[index]
        if handle is not None and not handle.cancelled:
            queue.cancel(handle)
        self._wake_handles[index] = None
        estimates = self._job_estimates[index]
        for estimate in estimates.values():
            queue.cancel(estimate)
        estimates.clear()

    def _wake_split(self, ended) -> list:
        """The active players this dispatch advances (runs inside the
        tick, after ``network.advance``), each caught up first.

        A player is awake when its wake handle was popped as due, when
        it arrived this tick (it has no wake yet), when one of its
        connections' transfers completed or aborted in this tick's
        ``network.advance`` (``ended``), or when a fault change point is
        due.  The set is built from those causes alone; sleepers are
        not visited.  Every other player is inside its certified
        deadline: the tick is one of the no-op ticks its margin contract
        vetted, so it is owed as a no-op — the premise batched windows
        rely on.  Its signature cannot move, so its deadline stays valid
        and the refresh skips it.
        """
        active_ids = self._active_ids
        if self._wake_all:
            awake_ids = active_ids
            awake = self._active
        else:
            woken = self._woken
            if ended:
                owner = self._owner
                woken.update(owner.get(connection) for connection in ended)
                woken.discard(None)
            arrived = self._arrived
            retired = self._retired
            awake_ids = sorted(
                index for index in woken if arrived[index] and not retired[index]
            )
            players = self.players
            awake = [players[index] for index in awake_ids]
        for index in awake_ids:
            self._catch_up(index)
        self._awake_ids = awake_ids
        self.player_advances += len(awake_ids)
        self.player_sleeps += len(active_ids) - len(awake_ids)
        return awake

    def _settle_owners(self, connections) -> None:
        """Catch up the owners of ``connections`` before the network
        fires their completion or abort callbacks, which read and move
        player state.  These owners wake this tick anyway."""
        owner = self._owner
        for connection in connections:
            index = owner.get(connection)
            if index is not None:
                self._catch_up(index)

    def _ticks_elapsed(self) -> int:
        """Ticks the clock has moved, dispatched and batched."""
        return (
            self.ticks_executed
            + self.fast_forwarded_ticks
            + self.transfer_fast_forwarded_ticks
        )

    def _catch_up(self, index: int) -> None:
        """Pay player ``index``'s debt of certified no-op ticks.

        A player that is not advanced on a tick — asleep on a dispatch
        or inside a batched window — owes it as a no-op.  The debt is
        paid here, in one ``apply_noop_ticks`` from the clock value it
        started at, which equals replaying every owed tick as it passed.
        Called when the player wakes (a fault wake-all included) — or
        earlier in that tick, before the network fires a callback of
        one of its transfers (:meth:`_settle_owners`) — when it
        retires, and once at the end of the run, before anything reads
        results.  Between catch-ups nothing reads a sleeper's playhead,
        UI samples or buffers: the loop reads only its state, ``ended``
        and scheduler, which no-op ticks do not move.
        """
        since = self._debt_since[index]
        if since is None:
            return
        ticks, start = since
        owed = self._ticks_elapsed() - ticks
        if owed > 0:
            self.players[index].apply_noop_ticks(owed, self.clock.dt, start)
            self._debt_since[index] = (ticks + owed, self.clock.now)

    def _refresh_producers(self, due, arm: bool, indices) -> str:
        """Label the dispatch in ``due`` and, if ``arm``, re-arm
        deadlines for the players in ``indices`` whose own state moved.

        ``indices`` are the players the tick advanced (every active
        player before the first tick); a sleeper's signature cannot
        have moved, so it is not visited.  A player's wake deadline is
        absolute and its margin premises can only change at a
        dispatched tick that touched *that* player, so the signature
        check skips the margin walk for every awake bystander too.
        Batched windows move no signature, so each player's stored
        signature is its state before this tick: comparing old and new
        labels the tick.
        """
        best = _RANK["noop"]
        for event in due:
            if event.type is EventType.FAULT_CHANGE:
                best = _RANK["fault_change"]
                break
            if event.type is EventType.CLIENT_CHURN:
                best = _RANK["client_churn"]
        queue = self.queue
        players = self.players
        sigs = self._wake_sigs
        handles = self._wake_handles
        for index in indices:
            player = players[index]
            sig = _player_signature(player)
            old = sigs[index]
            handle = handles[index]
            if sig != old:
                if old is not None and best > _RANK["transfer_complete"]:
                    rank = _RANK[_change_kind(player, old, sig)]
                    if rank < best:
                        best = rank
                sigs[index] = sig
            elif handle is not None and not handle.cancelled:
                continue  # this producer's state did not change
            if not arm:
                continue
            deadline = self._player_deadline(player)
            if handle is not None and not handle.cancelled:
                if abs(handle.time - deadline) <= 1e-9:
                    continue
                queue.cancel(handle)
            handles[index] = queue.push(
                deadline, EventType.PLAYER_WAKE, index
            )
            self._note_depth()
        if arm:
            self._sync_job_estimates(indices)
        return DISPATCH_KINDS[best]

    def _player_deadline(self, player) -> float:
        """This player's absolute wake deadline under its current mode.

        The margin contracts return provable no-op tick counts from
        *now*; converted to an absolute instant the deadline stays
        valid across batch rounds because mode and margin premises can
        only change at a dispatched tick.  A busy scheduler vets via
        ``transfer_noop_ticks`` (batching guarantees no completion
        inside the window), otherwise the playing/stalled contracts
        apply.  A busy scheduler without live wire parts has no
        contract and wakes next tick.
        """
        clock = self.clock
        now = clock.now
        dt = clock.dt
        remaining = int((self._limit - now) / dt) + 1
        if remaining < 1:
            remaining = 1
        scheduler = player.scheduler
        if scheduler.busy:
            if any(job.live_transfers() for job in scheduler.jobs()):
                ticks = player.transfer_noop_ticks(dt, remaining)
            else:
                ticks = 0
        elif player.state is PlayerState.PLAYING:
            ticks = player.idle_noop_ticks(dt, remaining)
        else:
            ticks = player.stalled_noop_ticks(dt, remaining)
        return now + ticks * dt

    def _sync_job_estimates(self, indices) -> None:
        """Scheduler-owned events: one completion estimate per job.

        Pushed once when the job's transfers start, cancelled when the
        job leaves flight; never re-pushed in between (the producer's
        state did not change).  Only the players in ``indices`` (the
        tick's awake set) are visited: a job enters flight only when
        its player advances and leaves it on a completion or abort,
        which wakes the player.  Estimates are advisory lower bounds —
        when one is exact, the batch round it bounds ends with an
        ``advance_many`` completion stop at that very tick, making the
        dispatch queue-predicted; when it under-shoots it is skimmed.
        """
        per_player = self._job_estimates
        players = self.players
        queue = self.queue
        clock = self.clock
        now = clock.now
        dt = clock.dt
        share = None  # the link's fair share; fixed for the whole sync
        stale = []
        for index in indices:
            estimates = per_player[index]
            jobs = players[index].scheduler.jobs()
            if not jobs and not estimates:
                continue
            for job in jobs:
                key = id(job)
                if key in estimates:
                    continue
                if share is None:
                    share = self._fair_share(now)
                ticks = self._estimate_completion_ticks(job, now, dt, share)
                estimates[key] = queue.push(
                    now + ticks * dt, EventType.TRANSFER_COMPLETE, job
                )
                self._note_depth()
            if len(estimates) > len(jobs):
                live_keys = {id(job) for job in jobs}
                stale.extend(
                    (estimates, key) for key in estimates
                    if key not in live_keys
                )
        # Stale estimates are cancelled after every push, so the peak
        # queue depth does not depend on the order players are visited.
        for estimates, key in stale:
            queue.cancel(estimates.pop(key))

    def _next_event_time(self, now: float) -> float:
        """Earliest pending event, dropping stale completion estimates.

        An estimate that comes due while its job is still in flight
        under-shot (the closed form assumed a fair share the transfer
        did not get); it is advisory, so it is popped — never
        dispatched, which is what keeps estimates out of the ``noop``
        count — and the exact boundary still arrives as an
        ``advance_many`` completion stop.
        """
        queue = self.queue
        while True:
            head = queue.peek()
            if (
                head is not None
                and head.type is EventType.TRANSFER_COMPLETE
                and head.time <= now + 1e-9
            ):
                queue.pop()
                continue
            return head.time if head is not None else math.inf

    def _fair_share(self, now: float) -> float:
        """The link capacity at ``now`` split across active transfers.

        Sharing the capacity across active transfers biases completion
        estimates *late* on parallel-connection services — a late
        estimate costs nothing (the completion stop reason lands first
        and the estimate is cancelled), while an early one would be
        skimmed and re-derived.
        """
        network = self.network
        capacity = network.effective_capacity(now)
        active = network.active_transfers()
        return capacity / active if active else capacity

    def _estimate_completion_ticks(
        self, job, now: float, dt: float, share: float
    ) -> int:
        """Closed-form earliest completion for ``job``, in ticks.

        A job completes when its slowest part does, and each part's
        slow-start horizon is a stays-incomplete bound under ``share``
        (see :meth:`_fair_share`).
        """
        remaining = int((self._limit - now) / dt) + 1
        if remaining < 1:
            remaining = 1
        parts = job.live_transfers()
        if not parts:
            return 1
        ticks = 1
        for connection, _ in parts:
            horizon = connection.slow_start_horizon_ticks(share, dt, remaining)
            if horizon > ticks:
                ticks = horizon
        return ticks

    def _note_depth(self) -> None:
        depth = len(self.queue)
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth

    # -- observability -----------------------------------------------------

    def engine_metrics_into(self, metrics) -> None:
        """Per-event-type dispatch counts, queue stats and wake counts.

        All pure functions of the spec (the sweep-aggregation and fleet
        determinism contracts): the queue's content is fully determined
        by the spec's faults, its churn roster and the deterministic
        producers.
        """
        metrics.counter("session.dispatches").inc(self.events_dispatched)
        for kind in sorted(self.dispatch_counts):
            metrics.counter("session.events", type=kind).inc(
                self.dispatch_counts[kind]
            )
        metrics.counter("session.queue_pushes").inc(self.queue.pushed_total)
        metrics.counter("session.queue_cancelled").inc(
            self.queue.cancelled_total
        )
        metrics.gauge("session.queue_depth_max").set(self.max_queue_depth)
        for reason in sorted(self.advance_stop_counts):
            metrics.counter("session.advance_stops", reason=reason).inc(
                self.advance_stop_counts[reason]
            )
        metrics.counter("session.player_advances").inc(self.player_advances)
        metrics.counter("session.player_sleeps").inc(self.player_sleeps)

    def _emit_jump(
        self, start: float, layer: str | None, ticks: int, bound: str
    ) -> None:
        tracer = self.obs.tracer
        if tracer.enabled:
            if layer is None:
                playing = all(
                    player.state is PlayerState.PLAYING
                    for player in self._active
                )
                layer = "idle" if playing else "stalled"
            tracer.emit(
                EventJump(
                    at=start,
                    layer=layer,
                    ticks=ticks,
                    end_s=self.clock.now,
                    next_event=bound,
                )
            )


class EventDrivenSession(EventLoopCore, Session):
    """The one-client :class:`~repro.core.session.Session` on the event
    loop.

    Same constructor, same :meth:`_finish`, same result types; the loop
    is :class:`EventLoopCore`'s.  Its accounting lands in the session's
    tick counters (``ticks_executed`` = dispatched event ticks,
    ``fast_forwarded_ticks`` / ``transfer_fast_forwarded_ticks`` =
    ticks batched in idle / transfer windows), so
    :class:`~repro.core.parallel.TickStats` and its ``ticks_simulated``
    invariant hold unchanged.
    """

    def run(self, duration_s: float) -> SessionResult:
        self._run_events(duration_s)
        return self._finish()


# Re-exported for the multi-session event loop.
__all__ = [
    "ADVANCE_COMPLETION",
    "ADVANCE_FAULT",
    "DISPATCH_KINDS",
    "Event",
    "EventDrivenSession",
    "EventLoopCore",
    "EventQueue",
    "EventType",
]
