import pytest
from hypothesis import example, given, settings, strategies as st

from reference import (EstimatorError, alloc_bw, estimate, flow_capacity,
                       initial_prb_share, note_block, retx_rate,
                       update_prb_share)

from ransim.capacity import CellWindows, FlowEstimator


class TestInitialShare:
    def test_exact_division(self):
        assert initial_prb_share(100, 4) == 25

    def test_sole_flow(self):
        assert initial_prb_share(100, 1) == 100

    def test_fractional_share(self):
        assert initial_prb_share(106, 7) == pytest.approx(106 / 7)

    def test_no_active_flows(self):
        with pytest.raises(EstimatorError):
            initial_prb_share(100, 0)


class TestUpdateShare:
    def test_idle_resource_split(self):
        assert update_prb_share(20, 100, 80, 4, 4) == 25

    def test_zero_idle_keeps_usage(self):
        assert update_prb_share(30, 100, 100, 4, 4) == 30

    def test_all_idle_single_active(self):
        assert update_prb_share(0, 100, 0, 1, 10) == 100

    def test_floor_against_total(self):
        with pytest.raises(EstimatorError):
            update_prb_share(10, 100, 50, 2, 0)

    @given(st.floats(0, 100), st.floats(0, 100),
           st.integers(1, 32), st.integers(1, 64))
    def test_never_below_registered_floor(self, uprb, used, n_active, extra):
        n_total = n_active + extra - 1
        if n_total < 1:
            n_total = 1
        share = update_prb_share(uprb, 100, min(used, 100), n_active, n_total)
        assert share >= 100 / n_total - 1e-12


class TestFlowCapacity:
    def test_duty_cycle_example(self):
        # 25 PRBs x 60 B/PRB per 0.5 ms TTI at a 70% downlink duty cycle
        assert flow_capacity(25, 60, 0.5, 70, 100) == pytest.approx(2100)

    def test_product(self):
        # the share multiplies the capacity of a single PRB
        assert flow_capacity(25, 60, 0.5, 70, 100) == \
            pytest.approx(25 * flow_capacity(1, 60, 0.5, 70, 100))

    def test_all_downlink_identity(self):
        assert flow_capacity(25, 60, 0.5, 100, 100) == \
            pytest.approx(25 * 60 / 0.5)

    def test_no_downlink_slots(self):
        assert flow_capacity(25, 60, 0.5, 0, 100) == 0.0

    def test_empty_window_rejected(self):
        with pytest.raises(EstimatorError):
            flow_capacity(25, 60, 0.5, 0, 0)

    def test_zero_share(self):
        assert flow_capacity(0, 60, 0.5, 70, 100) == 0

    def test_zero_rate(self):
        assert flow_capacity(25, 0, 0.5, 70, 100) == 0


class TestRetxRate:
    def test_ratio(self):
        assert retx_rate(2, 14) == pytest.approx(2 / 14)

    def test_no_retransmissions(self):
        assert retx_rate(0, 14) == 0.0

    def test_degenerate_window(self):
        assert retx_rate(0, 0) == 0.0


class TestAllocBw:
    def test_overhead_and_retx_discount(self):
        assert alloc_bw(2100, 0.95, 0.1) == pytest.approx(1813.636, abs=0.01)

    def test_lossless_identity(self):
        assert alloc_bw(2100, 1.0, 0.0) == 2100

    def test_zero_capacity(self):
        assert alloc_bw(0, 0.5, 0.3) == 0

    def test_gamma_bounds(self):
        with pytest.raises(EstimatorError):
            alloc_bw(100, 0.0, 0.1)
        with pytest.raises(EstimatorError):
            alloc_bw(100, 1.1, 0.1)

    @given(st.floats(0, 1e6), st.floats(0.01, 1.0), st.floats(0, 3.0))
    def test_never_exceeds_capacity(self, cap, gamma, retx):
        assert alloc_bw(cap, gamma, retx) <= cap + 1e-9

    @given(st.floats(0, 1e5), st.floats(0.01, 1.0),
           st.floats(0, 2.0), st.floats(0, 2.0))
    def test_nonincreasing_in_retx(self, cap, gamma, r1, r2):
        lo, hi = min(r1, r2), max(r1, r2)
        assert alloc_bw(cap, gamma, hi) <= alloc_bw(cap, gamma, lo) + 1e-9

    @given(st.floats(0, 1e5), st.floats(0.01, 0.99),
           st.floats(0.0, 0.01), st.floats(0, 2.0))
    def test_nondecreasing_in_gamma(self, cap, g, dg, retx):
        assert alloc_bw(cap, g + dg, retx) >= alloc_bw(cap, g, retx) - 1e-9

    @given(st.floats(0, 1e5), st.floats(0, 1e5),
           st.floats(0.01, 1.0), st.floats(0, 2.0))
    def test_nondecreasing_in_capacity(self, c1, c2, gamma, retx):
        lo, hi = min(c1, c2), max(c1, c2)
        assert alloc_bw(hi, gamma, retx) >= alloc_bw(lo, gamma, retx) - 1e-9


# one TTI: close_tti arguments, then an optional scheduler record and an
# optional estimate. The record is 0 for a zero grant or (prbs, bytes,
# overhead) for a block; prbs runs past prb_total = 100 so that the
# estimator's usage clamp runs. Blocks are sparse so that the short windows
# empty between bursts
_TTI = st.tuples(
    st.sampled_from([0.0, 0.5, 1.0]), st.booleans(), st.booleans(),
    st.integers(0, 100), st.integers(0, 6),
    st.sampled_from([None] * 4) | st.just(0) | st.tuples(
        st.integers(1, 150), st.integers(1, 4000), st.integers(0, 200)),
    st.none() | st.integers(0, 8))


class TestTermsSnapshot:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([0.5, 1.0]), st.lists(_TTI, max_size=80))
    @example(0.5, [(1.0, True, False, 40, 2, (150, 900, 20), None),
                   (1.0, True, False, 60, 2, 0, 3)])
    def test_compute_equals_per_call_reads(self, tti_ms, ttis):
        cell = CellWindows(tti_ms)
        est, ref = FlowEstimator(100, tti_ms), FlowEstimator(100, tti_ms)
        for k, tti in enumerate(ttis):
            weight, data, retx, prb_used, n_active, record, n_total = tti
            now = k * tti_ms
            if n_total is not None:
                got = est.compute(now, cell.terms(100, n_total))
                assert est.bw_ring[-1] == got == \
                    estimate(ref, cell, now, n_total)
                assert (est.prb_share, est._bpp_held, est._retx_held) == \
                    (ref.prb_share, ref._bpp_held, ref._retx_held)
            if record == 0:
                est.note_grant(0)
                ref.note_grant(0)
            elif record is not None:
                prbs, total, overhead = record
                overhead = min(overhead, total - 1)
                est.note_block(now, total, overhead, prbs, weight or 0.5)
                note_block(ref, now, total, overhead, prbs, weight or 0.5)
                assert (list(est._uprb), est._uprb_sum) == \
                    (list(ref._uprb), ref._uprb_sum)
            cell.close_tti(weight, data, data and retx, weight > 0,
                           prb_used, n_active)
        assert len(est.bw_ring) == sum(t[-1] is not None for t in ttis)
