import math
import statistics

import pytest
from hypothesis import example, given, settings, strategies as st

from ransim.codec import encode_rate
from ransim.sender import (FRAME_INTERVAL_MS, RECV_BUCKET_MS, RECV_WINDOW_MS,
                           ChoirSender, ReceiveRateWindow, pacing_rate,
                           target_bitrate)


def choir(epsilon=1, encoder="instant", initial_bps=5e6):
    return ChoirSender(epsilon, encoder, initial_bps)


class TestTargetBitrate:
    def test_epsilon_one_passthrough(self):
        # epsilon = 1 keeps no history: the sender's deque has maxlen 0
        assert target_bitrate(30e6, choir(epsilon=1).bitrate_hist) == 30e6

    def test_epsilon_ten_blend(self):
        hist = [30e6] * 9
        assert target_bitrate(40e6, hist) == pytest.approx(31e6)

    def test_constant_fixed_point(self):
        assert target_bitrate(20e6, [20e6] * 4) == 20e6

    def test_warmup_hold(self):
        assert target_bitrate(None, []) is None

    def test_short_history_uses_available(self):
        assert target_bitrate(30e6, [10e6]) == pytest.approx(20e6)


class TestPacingRate:
    def test_bitrate_branch(self):
        assert pacing_rate(28e6, 30e6) == 37.5e6

    def test_receive_rate_branch(self):
        assert pacing_rate(35e6, 30e6) == 43.75e6

    def test_zero(self):
        assert pacing_rate(0, 0) == 0


class TestEncodeFrame:
    def test_instant_mode_frame_bytes(self):
        s = choir(epsilon=1)
        s.apply_guidance(30e6, stamp_ts=1.0)
        frame = s.encode_frame(100.0)
        assert frame.nbytes == 62250
        assert frame.actual_bps == 30e6

    def test_ramp_mode_geometric_approach(self):
        s = choir(epsilon=1, encoder="ramp", initial_bps=30e6)
        s.encode_frame(0.0)  # seeds the encoder at 30 Mbps
        s.apply_guidance(60e6, stamp_ts=1.0)
        rates = [s.encode_frame(16.6 * (k + 1)).actual_bps / 1e6
                 for k in range(3)]
        assert rates == [pytest.approx(40.0), pytest.approx(46.6667, abs=1e-3),
                         pytest.approx(51.1111, abs=1e-3)]

    def test_unchanged_bitrate_unchanged_size(self):
        s = choir(epsilon=1)
        s.apply_guidance(24e6, stamp_ts=1.0)
        f1 = s.encode_frame(0.0)
        f2 = s.encode_frame(16.6)
        assert f1.nbytes == f2.nbytes

    def test_warmup_uses_initial_bitrate(self):
        s = choir(epsilon=1, initial_bps=5e6)
        frame = s.encode_frame(0.0)
        assert frame.target_bps == 5e6

    def test_zero_guidance_emits_marker_frame(self):
        s = choir(epsilon=1)
        s.apply_guidance(0.0, stamp_ts=1.0)
        frame = s.encode_frame(0.0)
        assert frame.nbytes == 1  # keeps the flow's frame pattern alive


class TestPacingDominance:
    def test_pacing_at_least_rho_times_target(self):
        s = choir(epsilon=1)
        for k, g in enumerate([5e6, 30e6, 80e6, 12e6]):
            s.apply_guidance(g, stamp_ts=float(k + 1))
            frame = s.encode_frame(16.6 * k)
            assert s.last_pacing_bps >= 1.25 * frame.target_bps - 1e-6

    def test_release_schedule_spacing_matches_pacing(self):
        s = choir(epsilon=1)
        s.apply_guidance(30e6, stamp_ts=1.0)
        frame = s.encode_frame(0.0)
        packets = s.packet_release_offsets(frame.nbytes)
        assert sum(n for n, _ in packets) == frame.nbytes
        spacing = 1400 * 8.0 / s.last_pacing_bps * 1000.0
        offsets = [off for _, off in packets]
        assert offsets[1] - offsets[0] == pytest.approx(spacing)
        # whole frame leaves within one frame interval at rho=1.25
        assert offsets[-1] < FRAME_INTERVAL_MS


class TestFeedbackOrdering:
    def test_newer_stamp_replaces(self):
        s = choir(epsilon=1)
        s.on_feedback(encode_rate(10e6), 5.0)
        s.on_feedback(encode_rate(20e6), 7.0)
        assert s.last_guidance_bps == pytest.approx(20e6, rel=1e-4)

    def test_stale_stamp_ignored(self):
        s = choir(epsilon=1)
        s.on_feedback(encode_rate(20e6), 7.0)
        s.on_feedback(encode_rate(10e6), 5.0)
        assert s.last_guidance_bps == pytest.approx(20e6, rel=1e-4)

    def test_duplicate_stamp_idempotent(self):
        s = choir(epsilon=1)
        s.on_feedback(encode_rate(20e6), 7.0)
        before = s.last_guidance_bps
        s.on_feedback(encode_rate(11e6), 7.0)
        assert s.last_guidance_bps == before

    def test_invalid_feedback_holds_last(self):
        s = choir(epsilon=1)
        s.on_feedback(encode_rate(20e6), 7.0)
        s.on_feedback(encode_rate(-1.0), 9.0)
        assert s.last_guidance_bps == pytest.approx(20e6, rel=1e-4)


class TestSmoothingOpenLoop:
    def test_cov_nonincreasing_in_epsilon(self):
        # fixed fluctuating guidance trace, replayed for each epsilon
        import random
        rng = random.Random(3)
        guidance = [20e6 + 10e6 * rng.random() for _ in range(400)]
        covs = []
        for eps in (1, 5, 10, 20):
            s = choir(epsilon=eps, initial_bps=25e6)
            rates = []
            for k, g in enumerate(guidance):
                s.apply_guidance(g, stamp_ts=float(k + 1))
                rates.append(s.encode_frame(16.6 * k).actual_bps)
            steady = rates[50:]
            covs.append(statistics.pstdev(steady) / statistics.mean(steady))
        assert all(covs[i + 1] <= covs[i] + 1e-12 for i in range(3))

    def test_epsilon_beyond_64_means_over_epsilon_frames(self):
        # the target is the mean of the guidance and the last 99 bitrates
        s = choir(epsilon=100)
        targets = []
        for k in range(150):
            s.apply_guidance(1e5 * k, stamp_ts=float(k + 1))
            targets.append(s.encode_frame(16.6 * k).target_bps)
        assert targets[-1] == pytest.approx(
            (1e5 * 149 + sum(targets[-100:-1])) / 100, rel=1e-12)

    def test_epsilon_one_transparency(self):
        # the emitted target sequence equals the guidance sequence shifted
        # by exactly one feedback application
        s = choir(epsilon=1, initial_bps=5e6)
        guidance = [7e6, 21e6, 14e6, 28e6]
        targets = []
        for k, g in enumerate(guidance):
            s.apply_guidance(g, stamp_ts=float(k + 1))
            targets.append(s.encode_frame(16.6 * k).target_bps)
        assert targets == guidance


class TestReceiveRateWindow:
    def test_max_of_buckets(self):
        w = ReceiveRateWindow()
        for ts in range(0, 1000, 10):
            w.add(float(ts), 1250)  # 1 Mbps steady
        assert w.max_rate_bps(1000.0) == pytest.approx(1e6)

    def test_old_buckets_expire(self):
        w = ReceiveRateWindow()
        w.add(50.0, 125_000)  # a 10 Mbps burst bucket
        w.add(2500.0, 1250)
        assert w.max_rate_bps(2600.0) < 10e6

    def test_current_partial_bucket_excluded(self):
        w = ReceiveRateWindow()
        w.add(950.0, 10_000_000)  # bucket still open at now=960
        assert w.max_rate_bps(960.0) == 0.0


def _per_bucket_max_rate(window, now):
    """``max_rate_bps`` as the loop that converts each complete bucket of the
    window to a rate and keeps the largest."""
    now_idx = math.floor(now / RECV_BUCKET_MS)
    lo = now_idx - int(RECV_WINDOW_MS / RECV_BUCKET_MS)
    best = 0.0
    for idx, nbytes in window._buckets:
        if lo <= idx < now_idx:
            rate = nbytes * 8.0 / (RECV_BUCKET_MS / 1000.0)
            best = max(best, rate)
    return best


# ("add", gap after the previous add in ms, bytes) or ("query", offset from
# the latest add in ms); a query at a negative or small offset can fall in
# or before the first bucket, where no bucket is complete
_RECV_OP = st.tuples(st.just("add"), st.floats(0.0, 400.0),
                     st.integers(0, 10**7)) | st.tuples(
    st.just("query"), st.floats(-300.0, 1500.0))


class TestMaxRateAgainstPerBucketLoop:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_RECV_OP, max_size=60))
    @example([("query", 0.0), ("add", 950.0, 10_000), ("query", 10.0),
              ("add", 100.0, 1250), ("query", 100.0), ("query", 2000.0)])
    def test_bit_identical(self, ops):
        w = ReceiveRateWindow()
        ts = 0.0
        for op in ops:
            if op[0] == "add":
                ts += op[1]
                w.add(ts, op[2])
            else:
                now = ts + op[1]
                assert w.max_rate_bps(now) == _per_bucket_max_rate(w, now)
