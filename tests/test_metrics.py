import math
import random

import pytest
from hypothesis import given, strategies as st

from conftest import log_text, logged_world

from ransim.metrics import (compute_metrics, frame_delay, jain_index,
                            metrics_from_event_records,
                            nearest_rank_percentile)
from ransim.sender import VideoFrame


class TestFrameDelay:
    def test_subtraction(self):
        f = VideoFrame(0, 100.0, 1000, 1e6, 1e6, decode_ts=118.4)
        assert frame_delay(f) == pytest.approx(18.4)

    def test_undelivered_rejected(self):
        with pytest.raises(ValueError):
            frame_delay(VideoFrame(0, 100.0, 1000, 1e6, 1e6))


class TestPercentile:
    def test_simple_series(self):
        assert nearest_rank_percentile([1, 2, 3, 4, 5], 50) == 3
        assert nearest_rank_percentile([1, 2, 3, 4, 5], 100) == 5

    def test_p999_small_series_is_max(self):
        vals = list(range(100))
        assert nearest_rank_percentile(vals, 99.9) == 99

    @given(st.lists(st.floats(0, 1e4), min_size=1, max_size=300),
           st.sampled_from([5.0, 50.0, 95.0, 99.0, 99.9, 100.0]))
    def test_matches_sort_oracle(self, vals, pct):
        got = nearest_rank_percentile(vals, pct)
        ordered = sorted(vals)
        rank = math.ceil(pct / 100.0 * len(ordered))
        assert got == ordered[max(0, rank - 1)]

    def test_validation(self):
        with pytest.raises(ValueError):
            nearest_rank_percentile([], 50)
        with pytest.raises(ValueError):
            nearest_rank_percentile([1], 0)


class TestJainIndex:
    def test_perfect_fairness(self):
        assert jain_index([10, 10, 10, 10]) == 1.0

    def test_single_hog(self):
        assert jain_index([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_hand_example(self):
        assert jain_index([12, 10, 11, 9]) == pytest.approx(0.98879, abs=1e-5)

    def test_all_zero_convention(self):
        assert jain_index([0, 0, 0]) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            jain_index([])
        with pytest.raises(ValueError):
            jain_index([1, -1])

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=40))
    def test_bounds(self, vals):
        j = jain_index(vals)
        assert 1.0 / len(vals) - 1e-12 <= j <= 1.0 + 1e-12


def _synthetic_frames(n=300, seed=5):
    rng = random.Random(seed)
    frames = []
    for k in range(n):
        encode = k * 16.6
        delay = 15.0 + 10.0 * rng.random()
        frames.append(VideoFrame(k, encode, 60000, 30e6, 30e6,
                                 decode_ts=encode + delay))
    return frames


class TestComputeMetrics:
    def test_warmup_exclusion(self):
        frames = _synthetic_frames()
        m = compute_metrics({0: frames}, duration_ms=300 * 16.6,
                            warmup_ms=2000.0)
        included = [f for f in frames if f.encode_ts >= 2000.0]
        assert m.flow(0).frames == len(included)

    def test_percentile_ordering(self):
        m = compute_metrics({0: _synthetic_frames()}, duration_ms=300 * 16.6)
        f = m.flow(0)
        assert f.p999_ms >= f.p95_ms >= f.avg_delay_ms is not None
        assert f.p95_ms >= f.avg_delay_ms

    def test_undelivered_counted_separately(self):
        frames = _synthetic_frames()
        frames[150].decode_ts = None
        m = compute_metrics({0: frames}, duration_ms=300 * 16.6)
        assert m.flow(0).undelivered == 1

    def test_bitrate_from_delivered_bytes(self):
        frames = _synthetic_frames(n=100)
        duration = 100 * 16.6
        m = compute_metrics({0: frames}, duration_ms=duration,
                            warmup_ms=0.0)
        expected = 100 * 60000 * 8 / (duration / 1000.0) / 1e6
        assert m.flow(0).avg_mbps == pytest.approx(expected)


class TestEventLogRecompute:
    def test_bit_identical_from_parsed_log(self, tmp_path):
        from ransim import FlowConfig, RanConfig, constant_trace
        from ransim.eventlog import parse_event_log

        ran = RanConfig(prb_total=100, tti_ms=0.5, bler=0.05,
                        schedule=constant_trace(30.0))
        w = logged_world(ran, seed=4, log_level="frames")
        w.add_flow(FlowConfig(flow_id=0, controller="choir", wired_nd_ms=5.0))
        w.run(4.0)
        direct = compute_metrics(w.frames_by_flow(), w.duration_ms)

        path = tmp_path / "events.log"
        path.write_text(log_text(w))
        recomputed = metrics_from_event_records(parse_event_log(path))

        assert recomputed.duration_ms == direct.duration_ms
        for fid, fm in direct.flows.items():
            rm = recomputed.flow(fid)
            assert rm.frames == fm.frames
            assert rm.avg_delay_ms == fm.avg_delay_ms  # bit-identical
            assert rm.p95_ms == fm.p95_ms
            assert rm.p999_ms == fm.p999_ms
            assert rm.avg_mbps == fm.avg_mbps
        assert recomputed.jain == direct.jain

    def test_one_pass_equals_list(self, tmp_path):
        from ransim import FlowConfig, RanConfig, constant_trace
        from ransim.eventlog import parse_event_log

        ran = RanConfig(prb_total=100, tti_ms=0.5, bler=0.05,
                        schedule=constant_trace(30.0))
        w = logged_world(ran, seed=2, log_level="frames")
        for fid, controller in enumerate(("choir", "scone", "oracle")):
            w.add_flow(FlowConfig(flow_id=fid, controller=controller))
        w.run(3.0)
        path = tmp_path / "events.log"
        path.write_text(log_text(w))
        records = parse_event_log(path)
        assert not isinstance(records, list)  # read once, as report does
        one_pass = metrics_from_event_records(records)
        assert one_pass == metrics_from_event_records(
            list(parse_event_log(path)))
        assert one_pass.flow(2).frames > 0
