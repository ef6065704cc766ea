"""DASH MPD + sidx generation/parsing round-trips."""

import pytest

from repro.manifest import (
    ManifestError,
    Protocol,
    SidxBox,
    SidxReference,
    parse_any_manifest,
    parse_iso_duration,
    parse_mpd,
    parse_sidx,
    segments_from_sidx,
)
from repro.manifest.dash import DashBuilder, SegmentAddressing
from repro.media.track import StreamType


@pytest.fixture(scope="module", params=[SegmentAddressing.SIDX,
                                        SegmentAddressing.INLINE])
def builder(request, small_asset):
    return DashBuilder(base_url="https://cdn.test", asset=small_asset,
                       addressing=request.param)


class TestSidxBox:
    def _box(self, sizes=(100, 200, 300), duration_ticks=4000):
        references = tuple(
            SidxReference(referenced_size=size,
                          subsegment_duration=duration_ticks)
            for size in sizes
        )
        return SidxBox(timescale=1000, references=references)

    def test_encode_parse_round_trip(self):
        box = self._box()
        parsed = parse_sidx(box.encode())
        assert parsed == box

    def test_size_matches_encoding(self):
        box = self._box()
        assert len(box.encode()) == box.size_bytes

    def test_durations(self):
        box = self._box(duration_ticks=2500)
        assert box.segment_durations_s() == [2.5, 2.5, 2.5]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SidxBox(timescale=1000, references=())

    def test_rejects_bad_timescale(self):
        with pytest.raises(ValueError):
            SidxBox(timescale=0, references=(SidxReference(1, 1),))

    def test_reference_size_bounds(self):
        with pytest.raises(ValueError):
            SidxReference(referenced_size=0, subsegment_duration=1)
        with pytest.raises(ValueError):
            SidxReference(referenced_size=1 << 31, subsegment_duration=1)

    def test_parse_rejects_truncated(self):
        with pytest.raises(ManifestError, match="truncated"):
            parse_sidx(b"\x00\x01")

    def test_parse_rejects_wrong_box(self):
        data = bytearray(self._box().encode())
        data[4:8] = b"moov"
        with pytest.raises(ManifestError, match="not a sidx"):
            parse_sidx(bytes(data))


class TestIsoDuration:
    def test_seconds(self):
        assert parse_iso_duration("PT600.000S") == 600.0

    def test_hms(self):
        assert parse_iso_duration("PT1H2M3S") == 3723.0

    def test_rejects_garbage(self):
        with pytest.raises(ManifestError):
            parse_iso_duration("10 minutes")


class TestMpdRoundTrip:
    def test_protocol_and_counts(self, builder, small_asset):
        manifest = parse_mpd(builder.mpd(), builder.mpd_url)
        assert manifest.protocol is Protocol.DASH
        assert len(manifest.video_tracks) == len(small_asset.video_tracks)
        assert len(manifest.audio_tracks) == len(small_asset.audio_tracks)

    def test_declared_bitrates(self, builder, small_asset):
        manifest = parse_mpd(builder.mpd(), builder.mpd_url)
        got = [t.declared_bitrate_bps for t in manifest.video_tracks]
        expected = [int(t.declared_bitrate_bps) for t in small_asset.video_tracks]
        assert got == pytest.approx(expected, abs=1.0)

    def test_parse_any_detects_dash(self, builder):
        manifest = parse_any_manifest(builder.mpd(), builder.mpd_url)
        assert manifest.protocol is Protocol.DASH

    def test_segments_availability_by_addressing(self, builder):
        manifest = parse_mpd(builder.mpd(), builder.mpd_url)
        track = manifest.video_tracks[0]
        if builder.addressing is SegmentAddressing.INLINE:
            assert track.segments is not None
            assert track.has_segment_sizes
        else:
            assert track.segments is None
            assert track.index_byte_range is not None
            assert track.index_url == track.media_url

    def test_inline_sizes_match_ground_truth(self, small_asset):
        builder = DashBuilder(base_url="https://cdn.test", asset=small_asset,
                              addressing=SegmentAddressing.INLINE)
        manifest = parse_mpd(builder.mpd(), builder.mpd_url)
        for info, track in zip(manifest.video_tracks, small_asset.video_tracks):
            assert info.segments is not None
            for seg_info, seg in zip(info.segments, track.segments):
                assert seg_info.size_bytes == seg.size_bytes
                assert seg_info.duration_s == pytest.approx(seg.duration_s,
                                                            abs=0.002)

    def test_sidx_segments_match_ground_truth(self, small_asset):
        builder = DashBuilder(base_url="https://cdn.test", asset=small_asset,
                              addressing=SegmentAddressing.SIDX)
        manifest = parse_mpd(builder.mpd(), builder.mpd_url)
        for info, track in zip(manifest.video_tracks, small_asset.video_tracks):
            sidx = parse_sidx(builder.sidx(track).encode())
            segments = segments_from_sidx(info, sidx)
            assert [seg.size_bytes for seg in segments] == \
                [seg.size_bytes for seg in track.segments]
            # Byte ranges must match the server's layout exactly.
            for seg in segments:
                assert seg.byte_range == builder.byte_range_of(track, seg.index)

    def test_byte_ranges_are_disjoint_and_ordered(self, small_asset):
        builder = DashBuilder(base_url="https://cdn.test", asset=small_asset)
        track = small_asset.video_tracks[0]
        previous_end = builder.header_size(track) - 1
        for segment in track.segments:
            start, end = builder.byte_range_of(track, segment.index)
            assert start == previous_end + 1
            assert end >= start
            previous_end = end
        assert previous_end == builder.media_file_size(track) - 1

    def test_average_actual_bitrate_exposed_for_inline(self, small_asset):
        builder = DashBuilder(base_url="https://cdn.test", asset=small_asset,
                              addressing=SegmentAddressing.INLINE)
        manifest = parse_mpd(builder.mpd(), builder.mpd_url)
        track = manifest.video_tracks[-1]
        avg = track.average_actual_bitrate_bps()
        assert avg is not None
        assert avg < track.declared_bitrate_bps


class TestMpdErrors:
    def test_not_xml(self):
        with pytest.raises(ManifestError, match="not well-formed"):
            parse_mpd("not xml at all <", "u")

    def test_wrong_root(self):
        with pytest.raises(ManifestError, match="not an MPD"):
            parse_mpd("<foo/>", "u")

    def test_segments_from_sidx_requires_index_range(self, small_asset):
        builder = DashBuilder(base_url="https://cdn.test", asset=small_asset,
                              addressing=SegmentAddressing.INLINE)
        manifest = parse_mpd(builder.mpd(), builder.mpd_url)
        sidx = builder.sidx(small_asset.video_tracks[0])
        with pytest.raises(ManifestError, match="not sidx-addressed"):
            segments_from_sidx(manifest.video_tracks[0], sidx)


# -- sidx sizes without building the box ------------------------------------


def _box_of(track, timescale):
    """The track's sidx box, built from its segments."""
    return SidxBox(
        timescale=timescale,
        references=tuple(
            SidxReference(
                referenced_size=seg.size_bytes,
                subsegment_duration=int(round(seg.duration_s * timescale)),
            )
            for seg in track.segments
        ),
    )


class _BoxDerivedBuilder(DashBuilder):
    """Every size and offset read off a freshly built sidx box, and the
    segment list asks ``byte_range_of`` once per segment."""

    def header_size(self, track):
        return _box_of(track, self.timescale).size_bytes

    def _segment_list(self, representation, track):
        from xml.etree import ElementTree

        segment_list = ElementTree.SubElement(
            representation, "SegmentList", {"timescale": str(self.timescale)}
        )
        timeline = ElementTree.SubElement(segment_list, "SegmentTimeline")
        for seg in track.segments:
            element = {"d": str(int(round(seg.duration_s * self.timescale)))}
            if seg.index == 0:
                element["t"] = "0"
            ElementTree.SubElement(timeline, "S", element)
        for seg in track.segments:
            start, end = self.byte_range_of(track, seg.index)
            ElementTree.SubElement(
                segment_list, "SegmentURL", {"mediaRange": f"{start}-{end}"}
            )


class TestSidxOnce:
    @pytest.mark.parametrize("addressing", list(SegmentAddressing))
    def test_mpd_text_equals_the_box_derived_builder(
        self, small_asset, addressing
    ):
        fast = DashBuilder(base_url="https://cdn.test", asset=small_asset,
                           addressing=addressing)
        plain = _BoxDerivedBuilder(base_url="https://cdn.test",
                                   asset=small_asset, addressing=addressing)
        assert fast.mpd() == plain.mpd()
        for track in small_asset.video_tracks + small_asset.audio_tracks:
            assert fast.header_size(track) == fast.sidx(track).size_bytes
            assert fast.media_file_size(track) == plain.media_file_size(track)
            assert fast.index_byte_range(track) == plain.index_byte_range(track)
            for seg in track.segments:
                assert fast.byte_range_of(track, seg.index) == (
                    plain.byte_range_of(track, seg.index)
                )

    def test_mpd_builds_no_box(self, small_asset, monkeypatch):
        def refuse(self, track):
            raise AssertionError("sidx box built while writing the MPD")

        monkeypatch.setattr(DashBuilder, "sidx", refuse)
        for addressing in SegmentAddressing:
            DashBuilder(base_url="https://cdn.test", asset=small_asset,
                        addressing=addressing).mpd()

    def test_hosting_builds_each_box_once_with_unchanged_bytes(
        self, small_asset, monkeypatch
    ):
        from repro.net.http import HttpRequest
        from repro.server.origin import OriginServer

        built = []
        build = DashBuilder.sidx

        def counting(self, track):
            built.append(track.track_id)
            return build(self, track)

        monkeypatch.setattr(DashBuilder, "sidx", counting)
        origin = OriginServer()
        hosting = origin.host_dash(small_asset, "https://cdn.test")
        tracks = small_asset.video_tracks + small_asset.audio_tracks
        assert sorted(built) == sorted(track.track_id for track in tracks)
        builder = hosting.builder
        for track in tracks:
            want = _box_of(track, builder.timescale).encode()
            plan = origin.handle(HttpRequest(
                url=builder.media_url(track),
                byte_range=(0, len(want) - 1),
            ))
            assert plan.data == want
            whole = origin.handle(HttpRequest(url=builder.media_url(track)))
            assert whole.size_bytes == len(want) + track.total_bytes
