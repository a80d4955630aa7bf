import pytest

from ransim import (FlowConfig, RanConfig, SimWorld, compute_metrics,
                    constant_trace)
from ransim.capacity import (alloc_bw, flow_capacity, initial_prb_share,
                             retx_rate, update_prb_share)
from ransim.sender import BaseSender


class SaturatingSender(BaseSender):
    """Backlogs the RAN regardless of feedback; measures drain capacity."""

    def guidance_bps(self, now):
        return 500e6

    def on_feedback(self, fb, now):
        pass


def reference_estimate(est, cell, now, n_total):
    """``FlowEstimator.compute`` reading every ``CellWindows`` property on
    each call, the reference for the once-per-TTI ``CellWindows.terms``."""
    est._expire(now)
    n_active = max(1, round(cell.n_active_mean))
    if not est._uprb:
        est.prb_share = initial_prb_share(est.prb_total, n_active)
    else:
        uprb = est._uprb_sum / len(est._uprb)
        est.prb_share = update_prb_share(
            min(uprb, est.prb_total), est.prb_total,
            min(cell.prb_used_mean, est.prb_total), n_active, max(1, n_total))
    if est._density_prbs > 0:
        est._bpp_held = est._density_bytes / est._density_prbs
    bpp = est._bpp_held
    if cell.tn == 0 or bpp <= 0.0:
        return 0.0
    cap = flow_capacity(est.prb_share, bpp, est.tti_ms, cell.dn, cell.tn)
    if cell.dn_short > 0:
        est._retx_held = retx_rate(cell.hn, cell.dn_short)
    return alloc_bw(cap, est.gamma_mean(), est._retx_held)


def make_world(bpp=30.0, *, flows=1, controller="choir", wired_nd_ms=1.0,
               seed=1, bler=0.0, schedule=None, log_level="frames",
               tti_ms=0.5, pattern="DDDSU", **flow_kwargs):
    ran = RanConfig(prb_total=100, tti_ms=tti_ms, tdd_pattern=pattern,
                    bler=bler,
                    schedule=schedule if schedule is not None
                    else constant_trace(bpp))
    world = SimWorld(ran, seed=seed, log_level=log_level)
    for i in range(flows):
        world.add_flow(FlowConfig(flow_id=i, controller=controller,
                                  wired_nd_ms=wired_nd_ms, **flow_kwargs))
    return world


def run_metrics(world, duration_s, warmup_ms=2000.0):
    world.run(duration_s)
    return compute_metrics(world.frames_by_flow(), world.duration_ms,
                           warmup_ms)


def saturate(world, flow_id=0):
    """Swap the flow's sender for one that always overdrives the link."""
    fr = world.flows[flow_id]
    fr.sender = SaturatingSender(epsilon=1)
    return fr


@pytest.fixture
def idle_world():
    """Single registered flow that never generates traffic on its own."""
    def _build(pattern="DDDSU", seed=0, failure_script=None, bler=0.0):
        ran = RanConfig(prb_total=100, tti_ms=0.5, tdd_pattern=pattern,
                        bler=bler, schedule=constant_trace(30.0))
        world = SimWorld(ran, seed=seed, log_level="frames",
                         failure_script=failure_script)
        world.add_flow(FlowConfig(flow_id=0, controller="choir",
                                  wired_nd_ms=0.0, source="none"))
        return world
    return _build
