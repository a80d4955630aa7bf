"""Live structural invariants checked on running worlds."""
from collections import Counter

from conftest import events, logged_world

from ransim import FlowConfig, RanConfig, SimWorld, square_trace


def _stepping_world(bler=0.12, flows=3, logged=False):
    ran = RanConfig(prb_total=100, tti_ms=0.5, bler=bler,
                    schedule=square_trace(30.0, 15.0, 1200, n_periods=6))
    w = logged_world(ran, seed=13) if logged else SimWorld(ran, seed=13)
    for i in range(flows):
        w.add_flow(FlowConfig(flow_id=i, controller="choir", wired_nd_ms=5.0))
    n = int(3_000 / 0.5)
    for _ in range(n):
        w.step()
        yield w


def test_prb_conservation_every_tti():
    # a TTI's blocks are logged at its start, so the lines of one time are
    # one TTI's
    for w in _stepping_world(logged=True):
        pass
    granted = Counter()
    for r in events(w):
        if r.event == "tx_block":
            granted[r.time_ms] += int(r.detail.split("prbs=")[1].split(";")[0])
    assert 0 < max(granted.values()) <= w.ran.prb_total
    assert len(granted) > 1000


def test_window_stats_internal_ordering():
    for w in _stepping_world():
        cell = w.cell
        assert cell._long_sum <= len(cell._long) + 1e-9
        assert cell._short_retx <= cell._short_data
        assert cell._usage_active <= len(w.flows) * len(cell._usage)
        assert cell._usage_prb <= w.ran.prb_total * len(cell._usage)
        for fr in w.flows.values():
            est = fr.estimator  # mean payload fraction in (0, 1]
            assert not est._blocks or 0.0 < est._gamma_sum <= len(est._blocks)


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
