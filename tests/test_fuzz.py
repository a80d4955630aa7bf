"""Whole closed loop on generated scenarios: conservation, live invariants,
byte-identical reruns, the same files from the reference world, and metrics
recomputed from the event log."""
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import log_text, logged_world
from reference import ReferenceWorld

from ransim import SimWorld
from ransim.harness import (ScenarioError, report_run_dir, scenario_from_dict,
                            write_frames_csv, write_metrics_csv)
from ransim.metrics import compute_metrics
from ransim.predictor import ETA

DURATION_S = 1.0
WARMUP_MS = 200.0
ROOT = Path(__file__).resolve().parent.parent
# join_leave plus a leaver whose last packets are still on the wire after
# its stop, so it is present again once they arrive
WIRE_LEAVER = json.loads((ROOT / "scenarios" / "join_leave.json").read_text())
WIRE_LEAVER["flows"].append({"controller": "choir", "wired_nd_ms": 20.0,
                             "start_s": 0.4, "stop_s": 1.3})


class _CheckedWorld(SimWorld):
    """Checks conservation and the live invariants after every TTI."""

    _retired = frozenset()  # ids of the flows that joined and left the list

    def step(self) -> None:
        super().step()
        self.assert_conservation()
        now = self.now_ms
        flows = [fr for _, fr in sorted(self.flows.items())]
        live = {fr.cfg.flow_id for fr in self._live}
        retired = {fid for fid, fr in self.flows.items()
                   if fr.start_ms <= now} - live
        assert self._retired <= retired
        self._retired = retired
        assert all(fr.cfg.flow_id in live
                   for fr in flows if fr.present(now))
        # the present flows, whose fast path trusts the live list
        assert self._present(now) == [fr for fr in flows if fr.present(now)]
        cell = self.cell
        assert cell._long_sum <= len(cell._long)
        assert cell._short_retx <= cell._short_data
        assert cell._usage_prb <= self.ran.prb_total * len(cell._usage)
        for fr in flows:
            if fr.queue is None:
                # a flow is built at its start or its first tick, so one
                # not built yet has not started and holds nothing
                assert fr.start_ms > now and not fr.lane and \
                    not fr.encode_ms and fr.sender is None
                continue
            # a lane is in (ts, pkt) order, and its flow is live while it
            # holds packets
            lane = list(fr.lane)
            assert lane == sorted(lane)
            assert not lane or fr.cfg.flow_id in live
            q = fr.queue
            assert q.queued_bytes >= 0
            assert all(b.rtx_count <= self.ran.harq_max_rtx
                       for b in q.harq_pending)
            if fr.cfg.flow_id in retired:
                # a retired flow has freed what only a live flow reads
                assert fr.estimator is fr.predictor is fr.receiver is \
                    fr.sender is None
                assert not q.samples
                continue
            # a flow holds the parts its controller reads, and no other
            est, predictor = fr.estimator, fr.predictor
            assert (est is None) == (fr.cfg.controller == "oracle")
            assert (predictor is None) == (fr.cfg.controller != "choir")
            if est is not None and est._blocks:
                assert 0.0 < est._gamma_sum <= len(est._blocks)
            pred = predictor and predictor.last_prediction
            if pred is not None:
                assert 0.0 <= pred.guidance <= \
                    ETA * pred.mean_bw + 1e-9


_FLOW = st.fixed_dictionaries({
    "controller": st.sampled_from(["choir", "scone", "oracle"]),
    "wired_nd_ms": st.sampled_from([0.0, 1.0, 5.0, 10.0, 20.0]),
    "ack_per_frames": st.integers(1, 3),
    "epsilon": st.integers(1, 3),
    "encoder": st.sampled_from(["instant", "ramp"]),
    # a start at or past DURATION_S, or at or past its stop, cannot load
    "start_s": st.sampled_from([0.0, 0.1, 0.3, 1.0, 1.5]),
    "stop_s": st.sampled_from([None, 0.5, 0.7]),
})
_TRACE = st.one_of(
    st.fixed_dictionaries({"kind": st.just("constant"),
                           "bytes_per_prb": st.sampled_from([5.0, 30.0])}),
    st.fixed_dictionaries({"kind": st.just("square"),
                           "high": st.sampled_from([20.0, 40.0]),
                           "low": st.sampled_from([0.0, 8.0]),
                           "period_ttis": st.sampled_from([40, 400])}))
_SCENARIO = st.fixed_dictionaries({
    "duration_s": st.just(DURATION_S),
    "seed": st.integers(0, 2**16),
    "log_level": st.sampled_from(["frames", "full"]),
    "ran": st.fixed_dictionaries({
        "prb_total": st.sampled_from([25, 100]),
        "tti_ms": st.sampled_from([0.5, 1.0]),
        "tdd_pattern": st.sampled_from(["DDSU", "DSUUU", "DDDSU"]),
        "bler": st.sampled_from([0.0, 0.1, 0.5]),
        "harq_max_rtx": st.integers(0, 3),
        "trace": _TRACE,
    }),
    "flows": st.lists(_FLOW, min_size=1, max_size=3),
})


def _run(cfg, out: Path, world_cls=_CheckedWorld) -> dict[str, bytes]:
    scn = scenario_from_dict(cfg)
    world = logged_world(scn.ran, seed=scn.seed, log_level=scn.log_level,
                         world_cls=world_cls)
    for flow in scn.flows:
        world.add_flow(flow)
    world.run(scn.duration_s)
    out.mkdir()
    (out / "events.log").write_text(log_text(world))
    write_frames_csv(out / "frames.csv", world)
    write_metrics_csv(out / "metrics.csv", compute_metrics(
        world.frames_by_flow(), world.now_ms, WARMUP_MS))
    write_metrics_csv(out / "report.csv", report_run_dir(out, WARMUP_MS))
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


# a third or more of the draws cannot load and only check their rejection
@settings(max_examples=40, deadline=None)
@given(_SCENARIO)
@example({"duration_s": DURATION_S, "seed": 1, "log_level": "full",
          "ran": {"tti_ms": 1.0, "tdd_pattern": "DSUUU", "bler": 0.5,
                  "harq_max_rtx": 0,
                  "trace": {"kind": "square", "high": 30.0, "low": 0.0,
                            "period_ttis": 100}},
          "flows": [
              dict(controller="choir", ack_per_frames=3, epsilon=2,
                   stop_s=0.5),
              dict(controller="scone", start_s=0.3, encoder="ramp"),
              dict(controller="oracle", wired_nd_ms=0.0)]})
@example({"duration_s": DURATION_S, "seed": 2, "log_level": "frames",
          "ran": {"tti_ms": 0.5, "tdd_pattern": "DDSU", "bler": 0.1,
                  "trace": {"kind": "square", "high": 40.0, "low": 0.0,
                            "period_ttis": 400}},
          "flows": [
              dict(controller="oracle", stop_s=0.4),
              dict(controller="scone", ack_per_frames=2, epsilon=3),
              dict(controller="choir", start_s=0.2, wired_nd_ms=10.0)]})
@example(WIRE_LEAVER)
def test_generated_scenario_runs_clean_and_repeats(cfg):
    starts = [f.get("start_s", 0.0) for f in cfg["flows"]]
    if any(start >= cfg["duration_s"] or f.get("stop_s") is not None
           and f["stop_s"] <= start for f, start in zip(cfg["flows"], starts)):
        with pytest.raises(ScenarioError):
            scenario_from_dict(cfg)
        return
    full = dict(cfg, log_level="full")
    with tempfile.TemporaryDirectory() as tmp:
        # SimWorld's fast paths write what ReferenceWorld writes
        fast, ref = Path(tmp) / "fast", Path(tmp) / "reference"
        if _run(full, fast, SimWorld) != _run(full, ref, ReferenceWorld):
            diff = subprocess.run([sys.executable, ROOT / "tools" /
                                   "logdiff.py", fast, ref],
                                  capture_output=True, text=True)
            raise AssertionError("ReferenceWorld differs:\n" + diff.stdout)
        first = _run(cfg, Path(tmp) / "a")
        second = _run(cfg, Path(tmp) / "b")
    assert first == second
    assert first["report.csv"] == first["metrics.csv"]
