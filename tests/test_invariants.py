"""Live structural invariants checked on running worlds."""

from ransim import FlowConfig, RanConfig, SimWorld, square_trace


def _stepping_world(bler=0.12, flows=3, log_level="frames"):
    ran = RanConfig(prb_total=100, tti_ms=0.5, bler=bler,
                    schedule=square_trace(30.0, 15.0, 1200, n_periods=6))
    w = SimWorld(ran, seed=13, log_level=log_level)
    for i in range(flows):
        w.add_flow(FlowConfig(flow_id=i, controller="choir", wired_nd_ms=5.0))
    n = int(3_000 / 0.5)
    for _ in range(n):
        w.step()
        yield w


def test_prb_conservation_every_tti():
    seen = 0
    busiest = 0
    for w in _stepping_world(log_level="full"):
        records = w.log.records
        granted = sum(int(r.detail.split("prbs=")[1].split(";")[0])
                      for r in records[seen:] if r.event == "tx_block")
        seen = len(records)
        assert granted <= w.ran.prb_total
        busiest = max(busiest, granted)
    assert busiest > 0


def test_queue_timestamps_nondecreasing():
    for w in _stepping_world():
        for fr in w.flows.values():
            last = -1.0
            for seg in fr.queue.segments:
                assert seg.enqueue_ts >= last
                last = seg.enqueue_ts


def test_window_stats_internal_ordering():
    for w in _stepping_world():
        cell = w.cell
        assert cell.dn <= cell.tn + 1e-9
        assert cell.hn <= cell.dn_short
        assert cell.n_active_mean <= len(w.flows)
        assert cell.prb_used_mean <= w.ran.prb_total
        for fr in w.flows.values():
            assert 0.0 < fr.estimator.gamma_mean() <= 1.0


def test_blocks_respect_harq_cap_and_overhead():
    for w in _stepping_world(bler=0.4, flows=1):
        for fr in w.flows.values():
            for block in fr.queue.harq_pending:
                assert block.rtx_count <= w.ran.harq_max_rtx
                assert block.overhead_bytes < block.bytes


def test_estimator_share_never_below_registered_floor():
    for w in _stepping_world(flows=3):
        if w.now_ms < 50:
            continue
        n_total = sum(1 for fr in w.flows.values() if fr.present(w.now_ms))
        for fr in w.flows.values():
            assert fr.estimator.prb_share >= \
                w.ran.prb_total / max(1, n_total) - 1e-9


def test_guidance_respects_eta_ceiling_live():
    checked = 0
    for w in _stepping_world(flows=2):
        for fr in w.flows.values():
            pred = fr.predictor.last_prediction
            if pred is None:
                continue
            assert 0.0 <= pred.guidance <= 0.95 * pred.mean_bw + 1e-9
            checked += 1
    assert checked > 0
