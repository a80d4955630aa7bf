import math

import pytest
from hypothesis import given, settings, strategies as st

from ransim.predictor import (HISTORY_CAPACITY, FeedbackHistory,
                              FlowPredictor, decision_horizon,
                              detect_frame_boundary, guidance_bw,
                              inflight_frame_count, mean_alloc_bw,
                              min_rlc_queue, predict_queue,
                              update_error_correction, update_frame_interval)


class TestFrameBoundary:
    def test_intra_frame_burst(self):
        assert not detect_frame_boundary(100.0, 100.2)

    def test_inter_frame_gap(self):
        assert detect_frame_boundary(100.0, 116.6)

    def test_tie_is_not_a_boundary(self):
        # a gap of exactly the 2.5 ms threshold stays inside the frame
        assert not detect_frame_boundary(100.0, 102.5)


class TestFrameInterval:
    def test_fixed_point(self):
        assert update_frame_interval(16.6, 16.6) == pytest.approx(16.6)

    def test_ewma_blend(self):
        assert update_frame_interval(16.6, 20.0) == pytest.approx(17.28)

    def test_warmup_seed(self):
        assert update_frame_interval(None, 16.6) == 16.6

    def test_rejects_nonpositive(self):
        assert update_frame_interval(16.6, 0.0) == 16.6
        assert update_frame_interval(None, -1.0) is None


class TestMeanAllocBw:
    def test_constant(self):
        assert mean_alloc_bw([1800.0] * 33, 33) == 1800.0

    def test_n_tti_from_frame_interval(self):
        assert round(16.6 / 0.5) == 33

    def test_hand_mean(self):
        samples = [1000.0] * 16 + [2000.0] * 17
        assert mean_alloc_bw(samples, 33) == pytest.approx(50000 / 33)

    def test_warmup_uses_available(self):
        assert mean_alloc_bw([100.0, 200.0], 33) == 150.0

    def test_empty(self):
        assert mean_alloc_bw([], 10) == 0.0

    def test_uses_most_recent(self):
        assert mean_alloc_bw([0.0] * 50 + [500.0] * 10, 10) == 500.0


class TestInflight:
    def test_ten_ms_wire(self):
        assert inflight_frame_count(10, 16.6) == 2

    def test_one_ms_wire(self):
        assert inflight_frame_count(1, 16.6) == 1

    def test_twenty_ms_wire(self):
        assert inflight_frame_count(20, 16.6) == 3


class TestHorizon:
    def test_examples(self):
        assert decision_horizon(0.5, 16.6, 2) == pytest.approx(33.7)
        assert decision_horizon(0.5, 16.6, 1) == pytest.approx(17.1)
        assert decision_horizon(1.0, 16.6, 3) == pytest.approx(50.8)


class TestHistoryWindow:
    def test_single_entry_inside_selected(self):
        h = FeedbackHistory()
        h.record(950.0, 1700.0)
        assert h.select(1000, 16.6, 2, 10) == [1700.0, 1700.0]


class TestMinRlcQueue:
    def test_min_of_window(self):
        samples = [(99, 5000), (99.5, 1200), (100, 3000)]
        assert min_rlc_queue(samples, 16.6, 100) == 1200

    def test_all_outside_window(self):
        samples = [(10, 5000), (11, 1200)]
        assert min_rlc_queue(samples, 16.6, 100) == 0

    def test_inclusive_right_exclusive_left(self):
        samples = [(83.4, 7), (100.0, 9)]
        assert min_rlc_queue(samples, 16.6, 100) == 9  # 83.4 just expired


class TestPredictQueue:
    def test_steady_state_predicts_empty(self):
        assert predict_queue([1800, 1800], 0, 16.6, 0, 1800, 33.7) == 0

    def test_overload_accumulates(self):
        val = predict_queue([2400, 2400], 0, 16.6, 5000, 1800, 33.7)
        assert val == pytest.approx(24020)

    def test_all_zero(self):
        assert predict_queue([], 0, 16.6, 0, 0, 33.7) == 0

    @given(st.lists(st.floats(0, 5000), max_size=5),
           st.floats(-500, 500), st.floats(1, 50), st.floats(0, 1e5),
           st.floats(0, 5000), st.floats(0, 100))
    def test_clamped_nonnegative(self, hist, err, fi, rlc, mean, t):
        assert predict_queue(hist, err, fi, rlc, mean, t) >= 0.0


class TestPredictQueueReplayOracle:
    """predict_queue equals a discrete replay of enqueues and drain."""

    @given(st.lists(st.floats(0, 4000), min_size=1, max_size=4),
           st.floats(-200, 200), st.floats(8, 40),
           st.floats(0, 5e4), st.floats(0, 4000))
    @settings(max_examples=200)
    def test_matches_replay(self, hist, err, fi, rlc, mean):
        tti = 0.5
        fnum = len(hist)
        t_horizon = decision_horizon(tti, fi, fnum)
        predicted = predict_queue(hist, err, fi, rlc, mean, t_horizon)
        # replay: start from the observed floor, land each in-flight frame's
        # volume, drain continuously at the mean allocation over the horizon
        balance = rlc
        for k, h in enumerate(hist):
            balance += (h - err) * fi
        balance -= mean * t_horizon
        replayed = max(0.0, balance)
        assert predicted == pytest.approx(replayed, abs=1400)


class TestErrorCorrection:
    def test_zero_error_fixed_point(self):
        err = 0.0
        for _ in range(50):
            err = update_error_correction(err, 1800.0, 1800.0)
        assert err == pytest.approx(0.0)

    def test_first_update_halves_discrepancy(self):
        assert update_error_correction(0.0, 200.0, 0.0) == 100.0

    def test_persistent_underuse_limit(self):
        # sender always delivers 10% less than guidance
        guidance = 2000.0
        err = 0.0
        for _ in range(60):
            err = update_error_correction(err, guidance, 0.9 * guidance)
        assert err == pytest.approx(0.1 * guidance, rel=1e-6)


class TestGuidance:
    def test_empty_queue(self):
        assert guidance_bw(1800, 0) == pytest.approx(1710)

    def test_drain_exceeds_allocation(self):
        assert guidance_bw(1800, 2000) == 0.0

    def test_all_zero(self):
        assert guidance_bw(0, 0) == 0.0

    @given(st.floats(0, 1e5), st.floats(0, 1e5))
    def test_ceiling_and_floor(self, mean, dr):
        g = guidance_bw(mean, dr)
        assert 0.0 <= g <= 0.95 * mean + 1e-9


class TestHistorySelection:
    def test_one_entry_per_inflight_frame(self):
        h = FeedbackHistory()
        for ts, bw in [(900, 1000.0), (920, 1100.0), (940, 1200.0),
                       (960, 1300.0), (980, 1400.0)]:
            h.record(ts, bw)
        # fnum=2, fi=16.6, wired=10: windows [946.8,963.4] and [963.4,980.0]
        rates = h.select(1000, 16.6, 2, 10)
        assert rates == [1400.0, 1300.0]

    def test_fallback_to_nearest_below(self):
        h = FeedbackHistory()
        h.record(700, 900.0)
        rates = h.select(1000, 16.6, 3, 10)
        assert rates == [900.0, 900.0, 900.0]

    def test_empty_history(self):
        assert FeedbackHistory().select(1000, 16.6, 2, 10) == []

    def test_duplicate_timestamps_ignored(self):
        h = FeedbackHistory()
        h.record(10.0, 1.0)
        h.record(10.0, 2.0)
        assert list(h.entries) == [(10.0, 1.0)]

    def test_ring_bounded(self):
        h = FeedbackHistory()
        for i in range(HISTORY_CAPACITY + 100):
            h.record(float(i), float(i))
        assert len(h.entries) == HISTORY_CAPACITY
        assert h.entries[0][0] == 100.0


def _monolithic_transcription(fi_prev, fi_new, alpha, bw_samples, tti_ms,
                              wired_nd, now, history, err, rlc_q_min, eta):
    """Single-function rewrite of the whole prediction pipeline."""
    fi = alpha * fi_prev + (1 - alpha) * fi_new
    n_tti = max(1, round(fi / tti_ms))
    n = len(bw_samples)
    take = min(n_tti, n)
    mean_bw = sum(bw_samples[n - take:]) / take if take else 0.0
    fnum = int(math.floor(2.0 * wired_nd / fi)) + 1
    t_horizon = tti_ms + fi * fnum
    rates = []
    for k in range(1, fnum + 1):
        a = now - fi * (k - 1) - 2.0 * wired_nd
        b = now - fi * k - 2.0 * wired_nd
        hi = max(a, b)
        # latest entry in the window; an empty window falls back to the
        # nearest entry below its upper bound, which is the same lookup
        for ts, bw in reversed(history):
            if ts <= hi:
                rates.append(bw)
                break
    pred_q = max(0.0, sum(r - err for r in rates) * fi
                 + rlc_q_min - mean_bw * t_horizon)
    dr = pred_q / fi
    return max(0.0, eta * mean_bw - dr)


class TestPipelineEquivalence:
    """The composed stage functions match a monolithic transcription."""

    @given(st.floats(10, 30), st.floats(10, 30),
           st.lists(st.floats(0, 4000), min_size=1, max_size=80),
           st.floats(0, 25), st.floats(-200, 200), st.floats(0, 5e4),
           st.lists(st.tuples(st.floats(0, 900), st.floats(0, 4000)),
                    min_size=1, max_size=20))
    @settings(max_examples=150)
    def test_composed_equals_monolith(self, fi_prev, fi_new, bw, wired, err,
                                      rlc, hist_entries):
        tti_ms, eta, alpha, now = 0.5, 0.95, 0.8, 1000.0
        history = FeedbackHistory()
        for ts, rate in sorted(hist_entries):
            history.record(ts, rate)
        history.err_est = err

        fi = update_frame_interval(fi_prev, fi_new)
        n_tti = max(1, round(fi / tti_ms))
        mean_bw = mean_alloc_bw(bw, n_tti)
        fnum = inflight_frame_count(wired, fi)
        t_horizon = decision_horizon(tti_ms, fi, fnum)
        rates = history.select(now, fi, fnum, wired)
        pred_q = predict_queue(rates, err, fi, rlc, mean_bw, t_horizon)
        composed = guidance_bw(mean_bw, pred_q / fi)

        mono = _monolithic_transcription(
            fi_prev, fi_new, alpha, bw, tti_ms, wired, now,
            list(history.entries), err, rlc, eta)
        assert composed == pytest.approx(mono, rel=1e-12, abs=1e-9)


class TestFlowPredictorStateMachine:
    def test_frame_detection_and_fi(self):
        p = FlowPredictor(tti_ms=0.5, wired_nd=0.0, bw_ring=[])
        t = 0.0
        for frame in range(5):
            start = frame * 16.6
            for k in range(4):
                p.on_enqueue(start + 0.3 * k, 1400)
        assert p.pattern.fi_est == pytest.approx(16.6, abs=1e-9)

    def test_warm_up_guidance_is_capacity_only(self):
        p = FlowPredictor(tti_ms=0.5, wired_nd=0.0, bw_ring=[2000.0] * 40)
        pred = p.compute(100.0, [(100.0, 0)])
        assert pred.guidance == pytest.approx(0.95 * 2000.0)

    def test_warm_up_drains_existing_queue(self):
        p = FlowPredictor(tti_ms=0.5, wired_nd=0.0, bw_ring=[2000.0] * 40)
        pred = p.compute(100.0, [(100.0, 8300)])
        assert pred.pred_q == 8300
        assert pred.guidance == pytest.approx(0.95 * 2000.0 - 8300 / 16.6)
