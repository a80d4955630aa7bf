import pytest

from conftest import make_world, run_metrics, saturate

from ransim import FlowConfig, RanConfig, SimWorld, constant_trace


class TestFrameCadence:
    def test_one_frame_per_tick(self):
        w = make_world(bpp=30.0, wired_nd_ms=1.0)
        m = run_metrics(w, 3.0, warmup_ms=0.0)
        frames = w.flows[0].frames
        expected = int(3.0 * 1000 / 16.6) + 1
        assert abs(len(frames) - expected) <= 1
        for k, f in enumerate(frames):
            assert f.encode_ts == k * 16.6  # exact multiplication schedule

    def test_start_stop_window(self):
        w = make_world(bpp=30.0, wired_nd_ms=1.0, start_s=0.5, stop_s=1.5)
        w.run(3.0)
        frames = w.flows[0].frames
        assert frames[0].encode_ts == 500.0
        assert frames[-1].encode_ts < 1500.0
        assert len(frames) == int(1000 / 16.6) + 1


class TestClosedLoopConvergence:
    def test_single_flow_tracks_eta_capacity(self):
        w = make_world(bpp=30.0, wired_nd_ms=1.0, seed=2)
        m = run_metrics(w, 6.0)
        # raw ceiling: 100 PRB * 30 B * 0.7 duty / 0.5 ms * gamma
        f = m.flow(0)
        assert f.avg_mbps == pytest.approx(31.6, rel=0.05)
        assert f.undelivered <= 2

    def test_guidance_reaches_eta_of_mean_bw(self):
        w = make_world(bpp=30.0, wired_nd_ms=1.0, seed=2)
        w.run(6.0)
        pred = w.flows[0].predictor.last_prediction
        assert pred.guidance == pytest.approx(0.95 * pred.mean_bw, rel=1e-6)
        assert pred.pred_q == 0.0

    def test_stationary_within_five_frame_intervals(self):
        # after warm-up, every 5-frame window of guidance averages to within
        # 2% of eta * allocated bandwidth (per-TTI dips are the drain term
        # absorbing transient queue samples at TDD/frame beat phases)
        w = make_world(bpp=30.0, wired_nd_ms=1.0, seed=2)
        n = int(6.0 * 1000 / 0.5)
        w._bpp = w.ran.schedule.materialize(n + 8)
        guide, bw = [], []
        for _ in range(n):
            w.step()
            if w.now_ms >= 2000.0 and w.tti_index % 33 == 0:
                pred = w.flows[0].predictor.last_prediction
                guide.append(pred.guidance)
                bw.append(pred.mean_bw)
        target = 0.95 * (sum(bw) / len(bw))
        for k in range(len(guide) - 5):
            window_mean = sum(guide[k:k + 5]) / 5
            assert window_mean == pytest.approx(target, rel=0.02)


class TestOracleController:
    def test_tracks_capacity_instantly(self):
        w = make_world(bpp=30.0, controller="oracle", wired_nd_ms=1.0)
        m = run_metrics(w, 6.0)
        # oracle sends at the ground-truth drain rate: ~33.2 Mbps payload
        assert m.flow(0).avg_mbps == pytest.approx(33.2, rel=0.05)


class TestSconeController:
    def test_converges_near_capacity(self):
        w = make_world(bpp=30.0, controller="scone", wired_nd_ms=1.0)
        m = run_metrics(w, 6.0)
        assert 25.0 <= m.flow(0).avg_mbps <= 34.0


class TestSaturatingDrain:
    def test_goodput_matches_theory(self):
        w = make_world(bpp=30.0, wired_nd_ms=1.0)
        fr = saturate(w)
        w.run(6.0)
        # payload capacity = 4200 B/ms minus block overheads
        rate = fr.delivered_payload / w.duration_ms
        assert rate == pytest.approx(4200 * 0.992, rel=0.02)


class TestAckCadence:
    def test_sparser_acks_mean_fewer_stamps(self):
        counts = {}
        for ack in (1, 2, 3):
            w = make_world(bpp=30.0, wired_nd_ms=1.0, ack_per_frames=ack,
                           log_level="full")
            w.run(3.0)
            counts[ack] = sum(1 for r in w.log.records
                              if r.event == "ack_stamp")
        assert counts[1] > counts[2] > counts[3]

    def test_feedback_rides_acks_only(self):
        # every feedback application pairs with a stamped ACK record
        w = make_world(bpp=30.0, wired_nd_ms=1.0, log_level="full")
        w.run(2.0)
        stamps = [r for r in w.log.records if r.event == "ack_stamp"]
        applies = [r for r in w.log.records if r.event == "feedback_apply"]
        assert len(applies) <= len(stamps)
        assert len(applies) >= len(stamps) - 4  # tail still in flight


class TestMultiFlowIsolation:
    def test_two_flows_share_equally(self):
        w = make_world(bpp=60.0, flows=2, wired_nd_ms=1.0)
        m = run_metrics(w, 5.0)
        r0, r1 = m.flow(0).avg_mbps, m.flow(1).avg_mbps
        assert r0 == pytest.approx(r1, rel=0.03)
        assert m.jain > 0.999

    def test_late_joiner_taxes_incumbent(self):
        ran = RanConfig(prb_total=100, tti_ms=0.5,
                        schedule=constant_trace(30.0))
        w = SimWorld(ran, seed=1, log_level="frames")
        w.add_flow(FlowConfig(flow_id=0, controller="choir", wired_nd_ms=1.0))
        w.add_flow(FlowConfig(flow_id=1, controller="choir", wired_nd_ms=1.0,
                              start_s=3.0))
        w.run(8.0)
        fr0 = w.flows[0].frames
        early = [f.actual_bps for f in fr0 if 2000 < f.encode_ts < 2900]
        late = [f.actual_bps for f in fr0 if 6000 < f.encode_ts < 7900]
        assert sum(late) / len(late) < 0.65 * sum(early) / len(early)

    @pytest.mark.parametrize("controller", ["choir", "scone", "oracle"])
    def test_leaver_frees_capacity(self, controller):
        # once flow 1 leaves, flow 0 must climb to the single-flow capacity
        single = make_world(bpp=30.0, flows=1, controller=controller)
        capacity_bps = single.true_flow_rate(0) * 8000.0
        w = make_world(bpp=30.0, flows=1, controller=controller)
        w.add_flow(FlowConfig(flow_id=1, controller=controller,
                              wired_nd_ms=1.0, stop_s=3.0))
        w.run(8.0)
        late = [f.actual_bps for f in w.flows[0].frames
                if 5000 <= f.encode_ts < 8000]
        assert sum(late) / len(late) == pytest.approx(capacity_bps, rel=0.10)


class TestInjectedPacketPath:
    def test_injection_without_sender(self, capsys):
        w = make_world(bpp=30.0, wired_nd_ms=0.0, source="none")
        frame = w.inject_packet(0, 10.0, 500)
        w.run(0.1)
        assert frame.decode_ts is not None
        assert w.flows[0].delivered_payload == 500
