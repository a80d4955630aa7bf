import math

import pytest
from hypothesis import given, strategies as st

from conftest import (FailFirst, add_idle_flow, decode_time, events,
                      frame_delay, inject_packet, logged_world)

from ransim import (FlowConfig, RanConfig, SimWorld, constant_trace,
                    sample_rlc_queue, schedule_prbs)
from ransim.ran import (OVERHEAD_FIXED, OVERHEAD_PER_SEGMENT, FlowQueueState,
                        assemble_block)


def _full(n, prb_total=100):
    """n flows that could each fill the whole cell."""
    return [prb_total] * n


class TestSchedulePrbs:
    def test_exact_division(self):
        assert schedule_prbs(_full(4), 100) == [25, 25, 25, 25]

    def test_sole_flow(self):
        assert schedule_prbs(_full(1), 100) == [100]

    def test_empty_active_set(self):
        assert schedule_prbs([], 100) == []

    def test_remainder_rotates(self):
        a0 = schedule_prbs(_full(3), 100, rotation=0)
        a1 = schedule_prbs(_full(3), 100, rotation=1)
        assert sorted(a0) == [33, 33, 34]
        assert a0[0] == 34 and a1[1] == 34

    def test_long_run_mean_is_equal_share(self):
        # brute-force oracle: accumulate allocations over 3000 TTIs
        totals = [0, 0, 0]
        for tti in range(3000):
            for i, n in enumerate(schedule_prbs(_full(3), 100, rotation=tti)):
                totals[i] += n
        for total in totals:
            assert total / 3000 == pytest.approx(100 / 3, abs=1e-9)

    def test_conservation_never_exceeds_total(self):
        for n in (1, 2, 3, 7, 13):
            alloc = schedule_prbs(_full(n), 100, rotation=5)
            assert sum(alloc) <= 100
            assert max(alloc) - min(alloc) <= 1

    def test_unneeded_prbs_redistributed(self):
        alloc = schedule_prbs([5, 200, 200], 100, rotation=0)
        assert alloc[0] == 5
        assert alloc[1] + alloc[2] == 95
        assert abs(alloc[1] - alloc[2]) <= 1

    def test_all_demands_satisfied_leftover_unused(self):
        assert schedule_prbs([10, 10], 100) == [10, 10]

    @given(st.lists(st.integers(1, 150), min_size=1, max_size=60),
           st.integers(1, 106), st.integers(0, 10**6))
    def test_grants_within_demand_and_cell(self, demands, prb_total,
                                           rotation):
        grants = schedule_prbs(demands, prb_total, rotation)
        assert len(grants) == len(demands)
        assert all(0 <= g <= d for g, d in zip(grants, demands))
        assert sum(grants) == min(prb_total, sum(demands))
        n = len(demands)
        if min(demands) >= prb_total:
            base, rem = divmod(prb_total, n)
            extra = {(rotation + i) % n for i in range(rem)}
            assert grants == [base + (i in extra) for i in range(n)]


class TestRlcQueue:
    def test_empty_queue_sample(self):
        q = FlowQueueState()
        assert sample_rlc_queue(q, 5.0) == 0

    def test_sum_of_segments(self):
        q = FlowQueueState()
        q.enqueue(0, 700)
        q.enqueue(0, 800)
        assert sample_rlc_queue(q, 2.0) == 1500

    def test_dequeue_conservation(self):
        q = FlowQueueState()
        q.enqueue(0, 1500)
        block = assemble_block(q, capacity_bytes=5000)
        assert block.payload_bytes == 1500
        assert sample_rlc_queue(q, 2.0) == 0

    def test_sample_ring_records(self):
        q = FlowQueueState()
        sample_rlc_queue(q, 1.0)
        q.enqueue(0, 99)
        sample_rlc_queue(q, 2.0)
        assert list(q.samples) == [(1.0, 0), (2.0, 99)]


class TestAssembleBlock:
    def test_splits_packet_across_blocks(self):
        q = FlowQueueState()
        q.enqueue(0, 3000)
        b1 = assemble_block(q, capacity_bytes=1000)
        assert b1.bytes <= 1000
        assert q.queued_bytes == 3000 - b1.payload_bytes
        b2 = assemble_block(q, capacity_bytes=5000)
        assert b1.payload_bytes + b2.payload_bytes == 3000

    def test_overhead_below_total(self):
        q = FlowQueueState()
        q.enqueue(0, 50)
        block = assemble_block(q, capacity_bytes=1000)
        assert 0 < block.overhead_bytes < block.bytes

    def test_tiny_capacity_yields_no_block(self):
        q = FlowQueueState()
        q.enqueue(0, 50)
        assert assemble_block(q, capacity_bytes=10) is None
        assert q.queued_bytes == 50

    def test_split_head_keeps_its_rest_in_front(self):
        q = FlowQueueState()
        q.enqueue(4, 1000)
        q.enqueue(5, 300)
        block = assemble_block(
            q, capacity_bytes=OVERHEAD_FIXED + OVERHEAD_PER_SEGMENT + 400)
        assert block.segments == [(4, 400)]
        assert list(q.segments) == [(4, 600), (5, 300)]
        assert q.queued_bytes == 900
        block = assemble_block(q, capacity_bytes=5000)
        assert block.segments == [(4, 600), (5, 300)]
        assert not q.segments and q.queued_bytes == 0

    def test_requeue_tail_keeps_segment_order_and_bytes(self):
        q = FlowQueueState()
        q.enqueue(0, 500)
        q.enqueue(1, 700)
        q.enqueue(2, 900)
        block = assemble_block(
            q, capacity_bytes=OVERHEAD_FIXED + 2 * OVERHEAD_PER_SEGMENT + 800)
        assert block.segments == [(0, 500), (1, 300)]
        assert q.queued_bytes == 1300
        q.requeue_tail(block)
        assert list(q.segments) == [(1, 400), (2, 900), (0, 500), (1, 300)]
        assert q.queued_bytes == 2100 == sum(n for _, n in q.segments)


class TestTddDelayMechanics:
    def _delay(self, pattern, phase, nbytes=200):
        ran = RanConfig(prb_total=100, tti_ms=0.5, tdd_pattern=pattern,
                        schedule=constant_trace(30.0))
        w = SimWorld(ran, seed=0)
        add_idle_flow(w, FlowConfig(flow_id=0, controller="choir",
                                    wired_nd_ms=0.0))
        fid = inject_packet(w, 0, 50.0 + phase, nbytes)
        w.run(0.2)
        return frame_delay(w, 0, fid)

    def test_lossless_single_packet_served_in_one_downlink_tti(self):
        # bler 0, queue smaller than a TTI's capacity: served at the first
        # downlink boundary, no retransmission delay
        assert self._delay("DDDSU", 0.0) == pytest.approx(0.5)

    def test_uplink_start_arrival_waits_for_next_downlink(self):
        assert self._delay("DDDSU", 2.0) == pytest.approx(1.0)

    def test_delay_bounded_by_non_downlink_span_plus_tti(self):
        # bound: max contiguous non-downlink span (S+U = 1.0ms) + 1 TTI
        for phase in [0.0, 0.3, 0.7, 1.0, 1.3, 1.5, 1.7, 1.9, 2.0, 2.2, 2.4]:
            assert self._delay("DDDSU", phase) <= 1.5 + 1e-9

    def test_special_slot_carries_half_capacity(self):
        # 2000 B needs 2 full-D TTIs worth at 50 PRB grant... at S the same
        # packet takes the half-capacity grant: verify service still happens
        d = self._delay("DDDSU", 1.5, nbytes=700)  # fits S half capacity
        assert d == pytest.approx(0.5)


class TestHarqLatency:
    def _delivery_delta(self, k_failures):
        return self._run(k_failures) - self._run(0)

    def _run(self, failures):
        ran = RanConfig(prb_total=100, tti_ms=0.5, tdd_pattern="DDDSU",
                        harq_rtx_delay_ms=5.5, harq_max_rtx=3,
                        schedule=constant_trace(30.0))
        w = SimWorld(ran, seed=0)
        w.rng = FailFirst(failures)
        add_idle_flow(w, FlowConfig(flow_id=0, controller="choir",
                                    wired_nd_ms=0.0))
        fid = inject_packet(w, 0, 50.0, 200)  # phase 0: D slot start
        w.run(0.2)
        return decode_time(w, 0, fid)

    def test_single_failure_delays_by_one_harq_round(self):
        assert self._delivery_delta(1) == pytest.approx(5.5)

    def test_six_ms_retry_delay_lands_exactly_six_ms_late(self):
        # with a 6 ms retry delay a first-transmission failure at a cycle
        # start delays that block by exactly 6 ms vs the lossless run
        def run(failures):
            ran = RanConfig(prb_total=100, tti_ms=0.5, tdd_pattern="DDDSU",
                            harq_rtx_delay_ms=6.0, harq_max_rtx=3,
                            schedule=constant_trace(30.0))
            w = SimWorld(ran, seed=0)
            w.rng = FailFirst(failures)
            add_idle_flow(w, FlowConfig(flow_id=0, controller="choir",
                                        wired_nd_ms=0.0))
            fid = inject_packet(w, 0, 50.0, 200)
            w.run(0.2)
            return decode_time(w, 0, fid)

        delta = run(1) - run(0)
        assert delta == pytest.approx(6.0)

    def test_k_failures_delay_exactly_k_rounds(self):
        # aligned phase: every retry lands on a downlink-capable slot
        for k in (1, 2, 3):
            assert self._delivery_delta(k) == pytest.approx(k * 5.5)

    def test_exhausted_harq_requeues_via_rlc(self):
        # forcing more failures than harq_max_rtx sends the payload back
        # through the RLC queue; it must still be delivered eventually
        ran = RanConfig(prb_total=100, tti_ms=0.5, tdd_pattern="DDDSU",
                        harq_rtx_delay_ms=5.5, harq_max_rtx=3,
                        schedule=constant_trace(30.0))
        w = logged_world(ran)
        w.rng = FailFirst(4)
        add_idle_flow(w, FlowConfig(flow_id=0, controller="choir",
                                    wired_nd_ms=0.0))
        fid = inject_packet(w, 0, 50.0, 200)
        w.run(0.2)
        assert "rlc_requeue" in [r.event for r in events(w)]
        delta = decode_time(w, 0, fid) - 50.5
        assert delta > 3 * 5.5  # worse than pure HARQ: queue re-entry cost


class TestByteConservation:
    def test_holds_every_tti_with_losses(self):
        from ransim.traces import square_trace
        ran = RanConfig(prb_total=100, tti_ms=0.5, bler=0.15,
                        schedule=square_trace(30.0, 12.0, 1000, n_periods=8))
        w = SimWorld(ran, seed=9)
        w.add_flow(FlowConfig(flow_id=0, controller="choir", wired_nd_ms=5.0))
        w.add_flow(FlowConfig(flow_id=1, controller="scone", wired_nd_ms=5.0))
        for _ in range(6000):  # 3 s
            w.step()
            w.assert_conservation()
        for fr in w.flows.values():
            assert fr.delivered_payload > 0


class TestDeterminism:
    def test_identical_event_logs_for_same_seed(self):
        def run():
            ran = RanConfig(prb_total=100, tti_ms=0.5, bler=0.1,
                            schedule=constant_trace(30.0))
            w = logged_world(ran, seed=42)
            w.add_flow(FlowConfig(flow_id=0, controller="choir",
                                  wired_nd_ms=10.0))
            w.run(1.5)
            return events(w)

        assert run() == run()

    def test_different_seed_differs_under_loss(self):
        def run(seed):
            ran = RanConfig(prb_total=100, tti_ms=0.5, bler=0.3,
                            schedule=constant_trace(30.0))
            w = logged_world(ran, seed=seed)
            w.add_flow(FlowConfig(flow_id=0, controller="choir",
                                  wired_nd_ms=10.0))
            w.run(1.5)
            return events(w)

        assert run(1) != run(2)


class TestRanConfigValidation:
    def test_rejects_bad_tti(self):
        with pytest.raises(ValueError):
            RanConfig(tti_ms=0.25)

    def test_rejects_bler_one(self):
        with pytest.raises(ValueError):
            RanConfig(bler=1.0)

    def test_rejects_nonpositive_prbs(self):
        with pytest.raises(ValueError):
            RanConfig(prb_total=0)

    # a world built in Python gets no check from the loader's _number, so
    # each range check rejects NaN, and a time must be finite
    @pytest.mark.parametrize("cls,key,value", [
        (FlowConfig, "wired_nd_ms", math.nan),
        (FlowConfig, "wired_nd_ms", math.inf),
        (FlowConfig, "start_s", math.nan),
        (FlowConfig, "start_s", math.inf),
        (FlowConfig, "stop_s", math.nan),
        (FlowConfig, "stop_s", math.inf),
        (FlowConfig, "ack_per_frames", math.nan),
        (FlowConfig, "epsilon", math.nan),
        (FlowConfig, "initial_bitrate_mbps", math.nan),
        (RanConfig, "harq_rtx_delay_ms", math.nan),
        (RanConfig, "harq_rtx_delay_ms", math.inf),
        (RanConfig, "harq_max_rtx", math.nan),
        (RanConfig, "bler", math.nan),
        (RanConfig, "prb_total", math.nan)])
    def test_rejects_nan_and_infinite_times(self, cls, key, value):
        args = (0,) if cls is FlowConfig else ()
        with pytest.raises(ValueError, match=f"^{key} must "):
            cls(*args, **{key: value})

    def test_tti_1ms_supported(self):
        ran = RanConfig(tti_ms=1.0, schedule=constant_trace(60.0))
        w = SimWorld(ran, seed=0)
        w.add_flow(FlowConfig(flow_id=0, controller="choir", wired_nd_ms=1.0))
        w.run(1.0)
        assert w.flows[0].delivered_payload > 0
