"""Differential property tests for the player's memoised hot path.

``PlaybackBuffer`` memoises its covering lookup and contiguous run,
``Player`` bisects timelines and jumps over buffered runs, and
``ClientTrackInfo`` memoises the ABR's window rates.  Each is
checked here against the plain list-scan implementation it replaced,
kept below as the reference: every query must return the same value,
including repeated queries at one position across mutations (a stale
memo), positions within float noise of segment boundaries, and
timeline switches.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.manifest.types import (
    ClientManifest,
    ClientSegmentInfo,
    ClientTrackInfo,
    Protocol,
)
from repro.media.track import StreamType
from repro.net.clock import Clock
from repro.net.network import Network
from repro.net.schedule import ConstantSchedule
from repro.player.abr import track_rate_bps
from repro.player.buffer import (
    BufferedSegment,
    MidReplacementUnsupported,
    PlaybackBuffer,
)
from repro.player.config import PlayerConfig
from repro.player.player import _EPS, Player


class NaiveBuffer:
    """The list-scan buffer: reference semantics for every query."""

    def __init__(self, *, allow_mid_replacement: bool = False):
        self.allow_mid_replacement = allow_mid_replacement
        self._segments: dict[int, BufferedSegment] = {}
        self.discarded_segments: list[BufferedSegment] = []

    def segment_covering(self, position_s):
        for segment in self._segments.values():
            if segment.start_s - 1e-9 <= position_s < segment.end_s - 1e-9:
                return segment
        return None

    def contiguous_run_from(self, position_s):
        first = self.segment_covering(position_s)
        if first is None:
            return []
        run = [first]
        index = first.index + 1
        while index in self._segments:
            run.append(self._segments[index])
            index += 1
        return run

    def occupancy_s(self, position_s):
        run = self.contiguous_run_from(position_s)
        if not run:
            return 0.0
        return run[-1].end_s - position_s

    def run_end_s(self, position_s):
        run = self.contiguous_run_from(position_s)
        return run[-1].end_s if run else position_s

    def contiguous_segment_count(self, position_s):
        return len(self.contiguous_run_from(position_s))

    def run_length_at(self, index):
        end = index
        while end in self._segments:
            end += 1
        return end - index

    def insert(self, segment):
        if segment.index in self._segments:
            raise ValueError("already buffered")
        self._segments[segment.index] = segment

    def replace_single(self, segment):
        if not self.allow_mid_replacement:
            raise MidReplacementUnsupported("deque")
        old = self._segments.get(segment.index)
        if old is None:
            raise ValueError("nothing to replace")
        self._segments[segment.index] = segment
        self.discarded_segments.append(old)
        return old

    def discard_tail_from(self, index):
        dropped = [
            self._segments.pop(i) for i in sorted(self._segments) if i >= index
        ]
        self.discarded_segments.extend(dropped)
        return dropped

    def clear(self):
        dropped = [self._segments.pop(i) for i in sorted(self._segments)]
        self.discarded_segments.extend(dropped)
        return dropped

    def consume_until(self, position_s):
        finished = [
            segment
            for segment in self._segments.values()
            if segment.end_s <= position_s + 1e-9
        ]
        for segment in finished:
            del self._segments[segment.index]
        return sorted(finished, key=lambda segment: segment.index)


# Segment durations whose multiples are not exact in binary, so grid
# boundaries carry float noise (``i*d + d`` vs ``(i+1)*d``).
DURATIONS = (4.0, 2.002, 3.3, 0.7, 6.006)
SEGMENTS = 10


def grid_segment(index: int, level: int, duration: float) -> BufferedSegment:
    """Segment ``index`` of one stream grid (every level shares it)."""
    start = index * duration
    total = SEGMENTS * duration - duration / 3  # a shorter final segment
    return BufferedSegment(
        stream_type=StreamType.VIDEO,
        index=index,
        start_s=start,
        duration_s=min(duration, total - start),
        level=level,
        declared_bitrate_bps=250_000.0 * (level + 1),
        size_bytes=1000 * (level + 1) + index,
    )


def boundary_position(index: int, kind: int, duration: float) -> float:
    segment = grid_segment(min(index, SEGMENTS - 1), 0, duration)
    anchors = (
        segment.start_s,
        segment.end_s,
        segment.start_s - 1e-9,
        segment.end_s - 1e-9,
        segment.start_s + 1e-9,
        segment.end_s + 1e-9,
        segment.start_s + segment.duration_s / 2,
        math.nextafter(segment.end_s - 1e-9, -math.inf),
        math.nextafter(segment.end_s - 1e-9, math.inf),
    )
    return max(anchors[kind], 0.0)


positions = st.tuples(
    st.integers(min_value=0, max_value=SEGMENTS),
    st.integers(min_value=0, max_value=8),
)
indexes = st.integers(min_value=0, max_value=SEGMENTS + 1)
levels = st.integers(min_value=0, max_value=2)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), indexes, levels),
        st.tuples(st.just("replace"), indexes, levels),
        st.tuples(st.just("discard"), indexes),
        st.tuples(st.just("clear")),
        st.tuples(st.just("consume"), positions),
        st.tuples(st.just("query"), positions),
    ),
    max_size=40,
)


def assert_same_queries(buffer, naive, position):
    assert buffer.segment_covering(position) == naive.segment_covering(position)
    assert buffer.occupancy_s(position) == naive.occupancy_s(position)
    assert buffer.run_end_s(position) == naive.run_end_s(position)
    assert buffer.contiguous_run_from(position) == naive.contiguous_run_from(
        position
    )
    assert buffer.contiguous_segment_count(
        position
    ) == naive.contiguous_segment_count(position)
    covering = naive.segment_covering(position)
    if covering is not None:
        assert buffer.run_length_at(covering.index) == naive.run_length_at(
            covering.index
        )


def apply_both(buffer, naive, method, *args):
    """Call ``method`` on both; they must return or raise alike."""
    try:
        want = getattr(naive, method)(*args)
    except (ValueError, MidReplacementUnsupported) as error:
        with pytest.raises(type(error)):
            getattr(buffer, method)(*args)
        return
    assert getattr(buffer, method)(*args) == want


@settings(max_examples=300, deadline=None)
@given(
    ops=operations,
    duration=st.sampled_from(DURATIONS),
    allow_mid_replacement=st.booleans(),
)
def test_buffer_matches_list_scan_reference(ops, duration, allow_mid_replacement):
    buffer = PlaybackBuffer(allow_mid_replacement=allow_mid_replacement)
    naive = NaiveBuffer(allow_mid_replacement=allow_mid_replacement)
    last = 0.0
    for op in ops:
        kind = op[0]
        if kind == "query":
            last = boundary_position(*op[1], duration)
            assert_same_queries(buffer, naive, last)
            assert_same_queries(buffer, naive, last)  # memo hit
            continue
        if kind in ("insert", "replace"):
            index = min(op[1], SEGMENTS - 1)
            segment = grid_segment(index, op[2], duration)
            method = "insert" if kind == "insert" else "replace_single"
            apply_both(buffer, naive, method, segment)
        elif kind == "discard":
            apply_both(buffer, naive, "discard_tail_from", op[1])
        elif kind == "clear":
            apply_both(buffer, naive, "clear")
        else:
            apply_both(
                buffer, naive, "consume_until", boundary_position(*op[1], duration)
            )
        # The same position again after a mutation: a stale memo shows.
        assert_same_queries(buffer, naive, last)
        assert buffer.segments() == sorted(
            naive._segments.values(), key=lambda segment: segment.index
        )
        assert buffer.discarded_segments == naive.discarded_segments


@pytest.mark.parametrize("duration, index", [(3.3, 5), (0.7, 5)])
def test_float_noise_overlap_keeps_the_scan_answer(duration, index):
    # On these grids ``i*d + d`` exceeds ``(i+1)*d`` by an ulp, so one
    # position just below segment ``index``'s end is covered by both it
    # and its successor; the scan answers with the one inserted first.
    buffer = PlaybackBuffer()
    naive = NaiveBuffer()
    for i in (index, index + 1):
        apply_both(buffer, naive, "insert", grid_segment(i, 0, duration))
    later = grid_segment(index + 1, 0, duration)
    overlap = boundary_position(index, 7, duration)
    assert later.start_s - 1e-9 <= overlap  # both segments cover it
    for position in (later.start_s + 0.1, overlap):  # memo hit first
        assert_same_queries(buffer, naive, position)


# -- timeline lookup ---------------------------------------------------------


def scan_index_covering(timeline, pos):
    for segment in timeline:
        if pos < segment.end_s - _EPS:
            return segment.index
    return timeline[-1].index


def scan_next_forward_index(timeline, buffered, pending, skipped, pos):
    index = scan_index_covering(timeline, pos)
    while index in buffered or index in pending or index in skipped:
        index += 1
    if index > timeline[-1].index:
        return None
    return index


def make_timeline(durations):
    timeline = []
    start = 0.0
    for index, duration in enumerate(durations):
        timeline.append(
            ClientSegmentInfo(
                index=index, start_s=start, duration_s=duration, url=f"s{index}"
            )
        )
        start += duration
    return timeline


def two_second_segment(index: int) -> BufferedSegment:
    return BufferedSegment(
        stream_type=StreamType.VIDEO,
        index=index,
        start_s=index * 2.0,
        duration_s=2.0,
        level=1,
        declared_bitrate_bps=500_000.0,
        size_bytes=1000,
    )


def make_player(tracks: int = 2) -> Player:
    clock = Clock()
    network = Network(clock, None, ConstantSchedule(1e6))
    player = Player(clock, network, PlayerConfig(), "http://test/manifest")
    player.manifest = ClientManifest(
        protocol=Protocol.DASH,
        video_tracks=[
            ClientTrackInfo(
                track_key=f"v{level}",
                stream_type=StreamType.VIDEO,
                level=level,
                declared_bitrate_bps=250_000.0 * (level + 1),
            )
            for level in range(tracks)
        ],
    )
    return player


def timeline_positions(timeline):
    for segment in timeline:
        for pos in (
            segment.start_s,
            segment.end_s,
            segment.end_s - _EPS,
            segment.end_s + _EPS,
            segment.end_s - 1e-9,
            segment.end_s + 1e-9,
            math.nextafter(segment.end_s - _EPS, -math.inf),
            segment.start_s + segment.duration_s / 2,
        ):
            yield max(pos, 0.0)
    yield timeline[-1].end_s + 5.0  # past the last segment


durations_lists = st.lists(
    st.sampled_from(DURATIONS + (1.001, 2.5)), min_size=1, max_size=12
)
index_sets = st.sets(st.integers(min_value=0, max_value=14), max_size=8)


@settings(max_examples=150, deadline=None)
@given(
    first=durations_lists,
    second=durations_lists,
    buffered=index_sets,
    pending=index_sets,
    skipped=index_sets,
    late=index_sets,
)
def test_timeline_lookup_matches_linear_scan(
    first, second, buffered, pending, skipped, late
):
    player = make_player()
    tracks = player.manifest.video_tracks
    buffer = player.buffers[StreamType.VIDEO]
    player._pending[StreamType.VIDEO] |= pending
    player._skipped[StreamType.VIDEO] |= skipped

    def check(timeline):
        assert player._segment_timeline(StreamType.VIDEO) is timeline
        held = {segment.index for segment in buffer.segments()}
        for pos in timeline_positions(timeline):
            assert player._index_covering(timeline, pos) == scan_index_covering(
                timeline, pos
            )
            player._play_pos = pos
            want = scan_next_forward_index(timeline, held, pending, skipped, pos)
            assert player._next_forward_index(StreamType.VIDEO) == want
            # Query the buffer's run memo at the playhead too, so the
            # next jump may meet a memo left by an occupancy query.
            buffer.occupancy_s(pos)
            assert player._next_forward_index(StreamType.VIDEO) == want

    # The higher level's timeline loads first ...
    tracks[1].segments = make_timeline(first)
    for index in sorted(buffered):
        buffer.insert(two_second_segment(index))
    check(tracks[1].segments)
    # ... then more segments arrive, some after the buffered run ...
    for index in sorted(late - buffered):
        buffer.insert(two_second_segment(index))
    check(tracks[1].segments)
    # ... and the lowest level's timeline replaces it.
    tracks[0].segments = make_timeline(second)
    check(tracks[0].segments)


def test_unsorted_timeline_falls_back_to_the_scan():
    player = make_player(tracks=1)
    timeline = [
        ClientSegmentInfo(index=i, start_s=start, duration_s=length, url=f"s{i}")
        for i, (start, length) in enumerate(
            [(0.0, 4.0), (4.0, 16.0), (6.0, 2.0), (8.0, 4.0)]
        )
    ]  # ends 4, 20, 8, 12: a bisect would answer 3 at 10.0
    for pos in (0.0, 3.0, 4.5, 7.0, 10.0, 12.5, 21.0):
        assert player._index_covering(timeline, pos) == scan_index_covering(
            timeline, pos
        )


# -- ABR window rates ----------------------------------------------------------


def scan_track_rate_bps(track, next_index, *, use_actual, horizon):
    if use_actual:
        if track.segments:
            window = [
                seg
                for seg in track.segments[next_index:next_index + horizon]
                if seg.size_bytes is not None
            ]
            if window:
                total_bytes = sum(seg.size_bytes for seg in window)
                total_duration = sum(seg.duration_s for seg in window)
                return total_bytes * 8.0 / total_duration
        if track.average_bandwidth_bps is not None:
            return track.average_bandwidth_bps
    return track.declared_bitrate_bps


sized_timelines = st.lists(
    st.tuples(
        st.sampled_from(DURATIONS),
        st.one_of(st.none(), st.integers(min_value=1, max_value=10**7)),
    ),
    min_size=1,
    max_size=10,
)


@settings(max_examples=150, deadline=None)
@given(
    first=sized_timelines,
    second=sized_timelines,
    queries=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=12),
            st.integers(min_value=1, max_value=4),
            st.booleans(),
        ),
        max_size=12,
    ),
    average=st.one_of(st.none(), st.floats(min_value=1e4, max_value=1e7)),
)
def test_track_rate_matches_the_window_scan(first, second, queries, average):
    track = ClientTrackInfo(
        track_key="v0",
        stream_type=StreamType.VIDEO,
        level=0,
        declared_bitrate_bps=500_000.0,
        average_bandwidth_bps=average,
    )

    def check():
        for next_index, horizon, use_actual in queries * 2:  # memo hits
            assert track_rate_bps(
                track, next_index, use_actual=use_actual, horizon=horizon
            ) == scan_track_rate_bps(
                track, next_index, use_actual=use_actual, horizon=horizon
            )

    check()  # no timeline yet
    for timeline in (first, second):  # a loaded, then a replaced timeline
        track.segments = [
            ClientSegmentInfo(
                index=i, start_s=i * 4.0, duration_s=d, url=f"s{i}", size_bytes=b
            )
            for i, (d, b) in enumerate(timeline)
        ]
        check()
