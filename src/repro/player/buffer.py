"""The client playback buffer.

Models the structure the paper digs into in section 4.1.2: ExoPlayer's
buffer is a double-ended queue — network appends at one end, the
renderer consumes at the other — so discarding a *single* segment in
the middle is unsupported, and segment replacement must discard the
whole tail.  :class:`PlaybackBuffer` therefore supports two mutation
modes:

* ``discard_tail_from(index)`` — always available (the deque operation);
* ``replace_single(segment)`` — only when constructed with
  ``allow_mid_replacement=True``, modelling the improved buffer library
  the paper advocates building.

Out-of-order arrival (parallel connections) is supported: segments may
be inserted at any future index; *occupancy* counts only the contiguous
run ahead of the playhead, because a hole stalls the renderer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.media.track import StreamType
from repro.util import check_non_negative


@dataclass(frozen=True)
class BufferedSegment:
    """A downloaded segment sitting in the buffer."""

    stream_type: StreamType
    index: int
    start_s: float
    duration_s: float
    level: int
    declared_bitrate_bps: float
    size_bytes: int
    height: int | None = None

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


class MidReplacementUnsupported(RuntimeError):
    """Raised when single-segment replacement is attempted on a deque
    buffer (the ExoPlayer limitation, section 4.1.2)."""


class PlaybackBuffer:
    """Buffered media for one stream (video or audio)."""

    def __init__(self, *, allow_mid_replacement: bool = False):
        self.allow_mid_replacement = allow_mid_replacement
        self._segments: dict[int, BufferedSegment] = {}
        self.discarded_segments: list[BufferedSegment] = []
        self.total_inserted_bytes = 0
        # Run index (see DESIGN.md, "Player hot path").  ``_hit`` is the
        # index of the last segment_covering hit, a hint that is always
        # re-verified.  ``_at``/``_first`` memoise the covering segment
        # of the last queried position; ``_run_*`` memoise the
        # contiguous run starting at buffered index ``_run_index``.  Every
        # mutator drops both memos via ``_invalidate``.  ``_min_end`` is a
        # lower bound on every buffered ``end_s`` (exact after each
        # consuming scan) that lets ``consume_until`` return early.
        self._hit = -1
        self._at: float | None = None
        self._first: BufferedSegment | None = None
        self._run_index: int | None = None
        self._run_count = 0
        self._run_end = 0.0
        self._min_end = math.inf

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._segments)

    def __contains__(self, index: int) -> bool:
        return index in self._segments

    def get(self, index: int) -> BufferedSegment | None:
        return self._segments.get(index)

    def segments(self) -> list[BufferedSegment]:
        """All buffered segments in index order."""
        return [self._segments[i] for i in sorted(self._segments)]

    def segment_covering(self, position_s: float) -> BufferedSegment | None:
        if position_s != self._at:
            self._locate(position_s)
        return self._first

    def contiguous_run_from(self, position_s: float) -> list[BufferedSegment]:
        """Segments playable without a gap starting at ``position_s``."""
        if position_s != self._at:
            self._locate(position_s)
        if self._first is None:
            return []
        first = self._first.index
        segments = self._segments
        return [segments[i] for i in range(first, first + self._run_count)]

    def occupancy_s(self, position_s: float) -> float:
        """Seconds of contiguously playable content ahead of the playhead."""
        check_non_negative("position_s", position_s)
        if position_s != self._at:
            self._locate(position_s)
        if self._first is None:
            return 0.0
        return self._run_end - position_s

    def run_end_s(self, position_s: float) -> float:
        """Where the contiguous run from ``position_s`` ends.

        ``position_s`` itself when no buffered segment covers it.
        """
        if position_s != self._at:
            self._locate(position_s)
        if self._first is None:
            return position_s
        return self._run_end

    def contiguous_segment_count(self, position_s: float) -> int:
        if position_s != self._at:
            self._locate(position_s)
        return 0 if self._first is None else self._run_count

    def run_length_at(self, index: int) -> int:
        """How many consecutive indexes from ``index`` are buffered."""
        if index == self._run_index:
            return self._run_count
        segments = self._segments
        end = index
        while end in segments:
            end += 1
        return end - index

    def has_content_at(self, position_s: float) -> bool:
        return self.segment_covering(position_s) is not None

    def end_index(self) -> int | None:
        """Highest buffered index (including beyond any hole)."""
        if not self._segments:
            return None
        return max(self._segments)

    def total_bytes(self) -> int:
        return sum(segment.size_bytes for segment in self._segments.values())

    def _locate(self, position_s: float) -> None:
        """Point the position memo, and the run memo, at ``position_s``."""
        first = self._covering(position_s)
        self._at = position_s
        self._first = first
        if first is None or first.index == self._run_index:
            return
        segments = self._segments
        index = first.index + 1
        last = first
        while index in segments:
            last = segments[index]
            index += 1
        self._run_index = first.index
        self._run_count = index - first.index
        self._run_end = last.end_s

    def _covering(self, position_s: float) -> BufferedSegment | None:
        """The first segment, in insertion order, covering ``position_s``.

        Tries the last hit and its successor before scanning.  All
        levels of a stream are cut from one segment grid, so only
        adjacent indexes can share a position (at float noise on their
        common boundary); a hit is accepted only when neither neighbour
        also covers it, which makes it the scan's unique answer.
        """
        segments = self._segments
        hit = self._hit
        for index in (hit, hit + 1):
            segment = segments.get(index)
            if segment is None or not (
                segment.start_s - 1e-9 <= position_s < segment.end_s - 1e-9
            ):
                continue
            before = segments.get(index - 1)
            after = segments.get(index + 1)
            if (
                before is None
                or not before.start_s - 1e-9 <= position_s < before.end_s - 1e-9
            ) and (
                after is None
                or not after.start_s - 1e-9 <= position_s < after.end_s - 1e-9
            ):
                self._hit = index
                return segment
            break
        for segment in segments.values():
            if segment.start_s - 1e-9 <= position_s < segment.end_s - 1e-9:
                self._hit = segment.index
                return segment
        return None

    def _invalidate(self) -> None:
        self._at = None
        self._first = None
        self._run_index = None

    # -- mutation ------------------------------------------------------------

    def insert(self, segment: BufferedSegment) -> None:
        """Insert a newly downloaded segment (out-of-order allowed)."""
        if segment.index in self._segments:
            raise ValueError(
                f"segment {segment.index} already buffered; use replace_single"
            )
        self._segments[segment.index] = segment
        self.total_inserted_bytes += segment.size_bytes
        self._min_end = min(self._min_end, segment.end_s)
        self._invalidate()

    def replace_single(self, segment: BufferedSegment) -> BufferedSegment:
        """Swap one mid-buffer segment for a fresh download.

        Requires ``allow_mid_replacement``; returns the discarded one.
        """
        if not self.allow_mid_replacement:
            raise MidReplacementUnsupported(
                "this buffer is a double-ended queue; only tail discard is "
                "supported (see section 4.1.2 of the paper)"
            )
        old = self._segments.get(segment.index)
        if old is None:
            raise ValueError(f"no buffered segment {segment.index} to replace")
        self._segments[segment.index] = segment
        self.discarded_segments.append(old)
        self.total_inserted_bytes += segment.size_bytes
        self._min_end = min(self._min_end, segment.end_s)
        self._invalidate()
        return old

    def discard_tail_from(self, index: int) -> list[BufferedSegment]:
        """Discard ``index`` and everything after it (deque tail drop)."""
        dropped = [
            self._segments.pop(i) for i in sorted(self._segments) if i >= index
        ]
        self.discarded_segments.extend(dropped)
        self._invalidate()
        return dropped

    def clear(self) -> list[BufferedSegment]:
        """Drop everything (seek outside the buffered range)."""
        dropped = [self._segments.pop(i) for i in sorted(self._segments)]
        self.discarded_segments.extend(dropped)
        self._min_end = math.inf
        self._invalidate()
        return dropped

    def consume_until(self, position_s: float) -> list[BufferedSegment]:
        """Release fully played segments (renderer side of the deque)."""
        if self._min_end > position_s + 1e-9:
            return []  # every buffered segment ends later
        finished = [
            segment
            for segment in self._segments.values()
            if segment.end_s <= position_s + 1e-9
        ]
        for segment in finished:
            del self._segments[segment.index]
        self._min_end = min(
            (segment.end_s for segment in self._segments.values()),
            default=math.inf,
        )
        if finished:
            self._invalidate()
        return sorted(finished, key=lambda segment: segment.index)
