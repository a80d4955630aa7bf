"""Hand-built lossy worlds stepped under the checked world, which states
the live invariants and checks them every TTI; and, for each invariant, a
fault that the checked world must catch."""
import pytest

import ransim.predictor
import ransim.world
from conftest import CheckedWorld, delivered_bytes

from ransim import FlowConfig, RanConfig, SimWorld, square_trace
from ransim.capacity import CellWindows, FlowEstimator

# (bler, seed, square-wave trace, controllers); each runs 3 s at a 0.5 ms TTI
SCENARIOS = {
    "three_choir": (0.12, 13, (30.0, 15.0, 1200, 6), ["choir"] * 3),
    "harq_heavy": (0.4, 13, (30.0, 15.0, 1200, 6), ["choir"]),
    "choir_scone": (0.15, 9, (30.0, 12.0, 1000, 8), ["choir", "scone"]),
}


def checked_world(name):
    bler, seed, (high, low, period, n), controllers = SCENARIOS[name]
    ran = RanConfig(prb_total=100, tti_ms=0.5, bler=bler,
                    schedule=square_trace(high, low, period, n_periods=n))
    w = CheckedWorld(ran, seed=seed)
    for i, controller in enumerate(controllers):
        w.add_flow(FlowConfig(flow_id=i, controller=controller,
                              wired_nd_ms=5.0))
    return w


def assert_caught(name, check):
    """Run the scenario under a fault; the failed assertion must hold check."""
    with pytest.raises(AssertionError) as exc:
        checked_world(name).run(3.0)
    assert check in str(exc.traceback[-1].statement)


@pytest.mark.parametrize("name", SCENARIOS)
def test_runs_clean_under_the_checked_world(name):
    w = checked_world(name)
    w.run(3.0)
    assert w.tx_ttis > 1000
    assert all(delivered_bytes(fr) > 0 for fr in w.flows.values())
    assert w.predictions > 0


def test_prb_conservation_every_tti(monkeypatch):
    # the scheduler splits one PRB more than the cell has
    schedule_prbs = ransim.world.schedule_prbs
    monkeypatch.setattr(ransim.world, "schedule_prbs",
                        lambda demands, prb_total, rotation:
                        schedule_prbs(demands, prb_total + 1, rotation))
    assert_caught("three_choir", "self._granted <= self.ran.prb_total")


def keeps_dropped(window, counter):
    """A close_tti that forgets to take a dropped entry off counter."""
    close_tti = CellWindows.close_tti

    def leaky(self, *args):
        entries = getattr(self, window)
        old = entries[0] if entries else None
        close_tti(self, *args)
        if old is not None and entries[0] is not old:
            setattr(self, counter, getattr(self, counter) + old[1])
    return leaky


def test_window_stats_internal_ordering(monkeypatch):
    for window, counter in [("_short", "_short_retx"),
                            ("_usage", "_usage_active")]:
        monkeypatch.setattr(CellWindows, "close_tti",
                            keeps_dropped(window, counter))
        assert_caught("three_choir", f"assert cell.{counter} <= ")


def test_blocks_respect_harq_cap_and_overhead(monkeypatch):
    # HARQ retries a block once more than the cap allows
    transmit = SimWorld._transmit

    def one_more_try(self, *args):
        self.ran.harq_max_rtx += 1
        transmit(self, *args)
        self.ran.harq_max_rtx -= 1
    monkeypatch.setattr(SimWorld, "_transmit", one_more_try)
    assert_caught("harq_heavy", "b.rtx_count <= self.ran.harq_max_rtx")


def test_estimator_share_never_below_registered_floor(monkeypatch):
    # the estimator's floor counts each present flow twice, its n_total term
    compute = FlowEstimator.compute
    monkeypatch.setattr(FlowEstimator, "compute", lambda self, now, terms:
                        compute(self, now,
                                terms[:2] + (2 * terms[2],) + terms[3:]))
    assert_caught("three_choir", "est.prb_share >= floor")


def test_guidance_respects_eta_ceiling_live(monkeypatch):
    # guidance hands out the whole allocated bandwidth, not ETA of it
    monkeypatch.setattr(ransim.predictor, "guidance_bw",
                        lambda mean_bw, drain_rate: mean_bw)
    assert_caught("three_choir", "pred.guidance <= ETA * pred.mean_bw")
