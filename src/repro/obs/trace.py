"""Trace spine: typed spans and events emitted by the testbed internals.

The paper's methodology observes a session from the outside (proxy
flows, 1 Hz UI samples); this module is the matching *inside* view — a
structured record of what the scheduler, player and simulation engine
actually decided.  Emission sites only ever fire on serially-executed
ticks (submissions, completions, failures, state transitions), so an
event-engine run produces the same semantic trace as a tick-engine
one; batched windows additionally emit *meta* jump events whose span
boundaries cover each batched window.

Design rules:

* zero cost when disabled — every emission site is guarded by a single
  ``tracer.enabled`` attribute check and :data:`NULL_TRACER` does
  nothing;
* events are small frozen dataclasses, picklable and ``==``-comparable,
  so ``workers>0`` sweeps ship per-run traces back to the parent;
* sinks are described by a picklable :class:`TraceConfig` and
  instantiated inside the worker process.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import asdict, dataclass
from typing import IO, ClassVar, Iterable, Optional, Protocol, Union, runtime_checkable

#: Event kinds that describe the *simulation* rather than the session
#: (batched-window jumps).  They legitimately differ
#: between serial and batched executions and are excluded from
#: :func:`semantic_trace`.
META_KINDS = frozenset({"ff_jump", "event_jump"})


@dataclass(frozen=True)
class TraceEvent:
    """Base class: every event carries its emission clock time."""

    kind: ClassVar[str] = "event"

    at: float


@dataclass(frozen=True)
class DownloadSpan(TraceEvent):
    """One completed fetch job (manifest, playlist, index or segment).

    Boundaries come from the job's aggregated responses: ``start_s`` is
    the first request start, ``end_s`` the last completion — both land
    on serially-executed ticks, so the span is identical whether the
    ticks in between ran one by one or batched.
    """

    kind: ClassVar[str] = "download"

    job: str  # FetchJob kind value
    stream: str
    index: Optional[int]
    level: Optional[int]
    start_s: float
    end_s: float
    size_bytes: int
    success: bool


@dataclass(frozen=True)
class AbrDecision(TraceEvent):
    """The ABR output attached to one forward video segment fetch."""

    kind: ClassVar[str] = "abr_decision"

    index: int
    level: int
    previous_level: Optional[int]
    buffer_s: float
    estimate_bps: Optional[float]


@dataclass(frozen=True)
class RebufferSpan(TraceEvent):
    """One completed stall, from onset to playback resumption."""

    kind: ClassVar[str] = "rebuffer"

    start_s: float
    end_s: float
    position_s: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True)
class RetryEvent(TraceEvent):
    """One failed download attempt entering the retry machinery."""

    kind: ClassVar[str] = "retry"

    job: str
    stream: str
    index: Optional[int]
    level: Optional[int]
    attempts: int
    gave_up: bool


@dataclass(frozen=True)
class FfJump(TraceEvent):
    """A batching layer replayed ``ticks`` ticks in one jump (meta).

    ``at`` is the window start and ``end_s`` the clock after the jump,
    so the synthesized span covers exactly the batched window.
    """

    kind: ClassVar[str] = "ff_jump"

    layer: str  # "idle" | "transfer"
    ticks: int
    end_s: float


@dataclass(frozen=True)
class EventJump(TraceEvent):
    """The event engine advanced the clock event-to-event (meta).

    ``at`` is the window start and ``end_s`` the clock after the jump;
    ``next_event`` names the queued event type the window was clamped
    to, so a trace shows *why* the engine stopped where it did.
    """

    kind: ClassVar[str] = "event_jump"

    layer: str  # "idle" | "stalled" | "transfer"
    ticks: int
    end_s: float
    next_event: str


@runtime_checkable
class Tracer(Protocol):
    """What instrumented code sees.  ``enabled`` gates every emission."""

    enabled: bool

    def emit(self, event: TraceEvent) -> None: ...

    def events(self) -> tuple[TraceEvent, ...]: ...


class NullTracer:
    """The disabled tracer: one attribute read per emission site."""

    enabled = False

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - never called
        pass

    def events(self) -> tuple[TraceEvent, ...]:
        return ()


NULL_TRACER = NullTracer()


class RingBufferTracer:
    """In-memory sink; with ``capacity`` set, keeps only the newest events.

    Plain data all the way down, so instances (and therefore per-run
    traces) survive pickling across sweep worker processes.
    """

    enabled = True

    def __init__(
        self,
        capacity: Optional[int] = None,
        *,
        kinds: Optional[Iterable[str]] = None,
    ):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.kinds = frozenset(kinds) if kinds is not None else None
        self._events: deque[TraceEvent] = deque(maxlen=capacity)

    def emit(self, event: TraceEvent) -> None:
        if self.kinds is not None and event.kind not in self.kinds:
            return
        self._events.append(event)

    def events(self) -> tuple[TraceEvent, ...]:
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)


class JsonlTracer:
    """Streaming JSONL exporter (one event object per line).

    The file handle opens lazily on the first emission and is dropped
    from the pickled state, so a config-carried instance can cross a
    process boundary and reopen (append) inside the worker.
    """

    enabled = True

    def __init__(
        self,
        path: str,
        *,
        kinds: Optional[Iterable[str]] = None,
        keep_events: bool = False,
    ):
        self.path = path
        self.kinds = frozenset(kinds) if kinds is not None else None
        self.keep_events = keep_events
        self._kept: list[TraceEvent] = []
        self._handle: Optional[IO[str]] = None

    def emit(self, event: TraceEvent) -> None:
        if self.kinds is not None and event.kind not in self.kinds:
            return
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps(event_to_dict(event), sort_keys=True))
        self._handle.write("\n")
        if self.keep_events:
            self._kept.append(event)

    def events(self) -> tuple[TraceEvent, ...]:
        return tuple(self._kept)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_handle"] = None
        return state


@dataclass(frozen=True)
class TraceConfig:
    """A picklable description of a tracer, resolved per run.

    ``path`` may contain ``{service}``, ``{profile}`` and
    ``{repetition}`` placeholders so each run of a parallel sweep writes
    its own file.
    """

    sink: str = "ring"  # "ring" | "jsonl"
    capacity: Optional[int] = None
    path: Optional[str] = None
    kinds: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.sink not in ("ring", "jsonl"):
            raise ValueError(f"unknown trace sink {self.sink!r}")
        if self.sink == "jsonl" and self.path is None:
            raise ValueError("jsonl sink needs a path")

    def create(
        self, *, service: str = "", profile_id: int = 0, repetition: int = 0
    ) -> Union[RingBufferTracer, JsonlTracer]:
        if self.sink == "jsonl":
            assert self.path is not None
            path = self.path.format(
                service=service, profile=profile_id, repetition=repetition
            )
            return JsonlTracer(path, kinds=self.kinds, keep_events=True)
        return RingBufferTracer(self.capacity, kinds=self.kinds)


# -- export / comparison helpers -------------------------------------------


def event_to_dict(event: TraceEvent) -> dict:
    payload = asdict(event)
    payload["kind"] = event.kind
    return payload


def write_jsonl(events: Iterable[TraceEvent], path: str) -> int:
    """Write ``events`` to ``path`` as JSONL; returns the line count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event_to_dict(event), sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def semantic_trace(
    events: Iterable[TraceEvent],
) -> tuple[tuple[str, TraceEvent], ...]:
    """The execution-independent view: (span id, event) pairs.

    Meta events (:data:`META_KINDS`) are dropped and each remaining
    event gets a deterministic per-kind id (``download-3``), so two runs
    of the same spec compare equal here exactly when they made the same
    decisions at the same simulated times — regardless of how many
    ticks were batched.
    """
    counters: dict[str, int] = {}
    out: list[tuple[str, TraceEvent]] = []
    for event in events:
        if event.kind in META_KINDS:
            continue
        n = counters.get(event.kind, 0) + 1
        counters[event.kind] = n
        out.append((f"{event.kind}-{n}", event))
    return tuple(out)


def render_timeline(events: Iterable[TraceEvent], *, width: int = 72) -> str:
    """Human-readable session timeline for the ``repro trace`` command."""
    lines: list[str] = []
    for event in events:
        t = f"t={event.at:9.2f}s"
        if isinstance(event, DownloadSpan):
            where = f"#{event.index}@L{event.level}" if event.index is not None else ""
            status = "ok" if event.success else "FAILED"
            lines.append(
                f"{t}  download   {event.job}:{event.stream}{where:<9} "
                f"{event.end_s - event.start_s:6.2f}s "
                f"{event.size_bytes / 1024:8.1f} kB  {status}"
            )
        elif isinstance(event, AbrDecision):
            move = (
                "start"
                if event.previous_level is None
                else f"L{event.previous_level}->L{event.level}"
            )
            estimate = (
                f"{event.estimate_bps / 1e6:.2f} Mbps"
                if event.estimate_bps is not None
                else "no estimate"
            )
            lines.append(
                f"{t}  abr        segment {event.index} -> L{event.level} "
                f"({move}, buf {event.buffer_s:5.1f}s, {estimate})"
            )
        elif isinstance(event, RebufferSpan):
            lines.append(
                f"{t}  rebuffer   {event.duration_s:6.2f}s stall "
                f"ending at pos {event.position_s:.1f}s"
            )
        elif isinstance(event, RetryEvent):
            where = f"#{event.index}" if event.index is not None else ""
            fate = "gave up" if event.gave_up else "will retry"
            lines.append(
                f"{t}  retry      {event.job}:{event.stream}{where} "
                f"attempt {event.attempts} failed ({fate})"
            )
        elif isinstance(event, FfJump):
            lines.append(
                f"{t}  ff_jump    [{event.layer}] {event.ticks} ticks "
                f"-> t={event.end_s:.2f}s"
            )
        elif isinstance(event, EventJump):
            lines.append(
                f"{t}  event_jump [{event.layer}] {event.ticks} ticks "
                f"-> t={event.end_s:.2f}s (next: {event.next_event})"
            )
        else:
            lines.append(f"{t}  {event.kind:<10} {event}")
    return "\n".join(lines)
