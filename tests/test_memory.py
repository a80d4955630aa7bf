"""Memory follows the live flows: a retired flow frees its base-station
state, so a run holds about as much for many short stays as for a few long
ones with the same concurrency."""
import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import ransim
from ransim import FlowConfig, RanConfig, SimWorld, constant_trace


def test_retiring_flow_state_is_freed_by_reference_counting():
    w = SimWorld(RanConfig(schedule=constant_trace(30.0)), seed=1)
    w.add_flow(FlowConfig(flow_id=0))
    leaver = w.add_flow(FlowConfig(flow_id=1, stop_s=0.3))
    held = [leaver.estimator, leaver.predictor, leaver.estimator.bw_ring,
            leaver.predictor.history, leaver.receiver]
    refs = [weakref.ref(obj) for obj in held]
    del held
    gc.disable()
    try:
        while leaver in w._live:
            assert all(ref() is not None for ref in refs)
            w.step()
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()
    assert 300.0 < w.now_ms < 400.0
    assert leaver.estimator is leaver.predictor is leaver.receiver is None
    assert not leaver.queue.samples
    # what stays: the frames, the sender and zero queue counters
    assert leaver.frames and leaver.sender is not None
    assert leaver.queue.queued_bytes == leaver.queue.harq_flight_payload == 0
    w.assert_conservation()


def test_flow_that_stopped_before_it_is_added_is_rejected():
    # it would retire at once, freeing the receiver its first frame needs
    w = SimWorld(RanConfig(schedule=constant_trace(30.0)), seed=1)
    w.add_flow(FlowConfig(flow_id=0))
    w.run(0.5)
    with pytest.raises(ValueError, match="flow 1 stops before now"):
        w.add_flow(FlowConfig(flow_id=1, start_s=0.1, stop_s=0.5))
    w.add_flow(FlowConfig(flow_id=1, start_s=0.1, stop_s=0.6))
    w.run(0.5)
    assert w.flows[1].frames and w.flows[1].estimator is None


# builds and runs one world under tracemalloc; prints the peak traced bytes
# and the frames encoded
_TRACED_RUN = """
import sys, tracemalloc
from ransim import FlowConfig, RanConfig, SimWorld, constant_trace
n_flows, stay_s = int(sys.argv[1]), float(sys.argv[2])
tracemalloc.start()
w = SimWorld(RanConfig(schedule=constant_trace(30.0)), seed=1)
for i in range(n_flows):  # eight choir flows at a time, batch after batch
    start = (i // 8) * stay_s
    w.add_flow(FlowConfig(flow_id=i, start_s=start, stop_s=start + stay_s))
w.run(8.0)
print(tracemalloc.get_traced_memory()[1],
      sum(len(fr.frames) for fr in w.flows.values()))
"""


def _traced_peak(n_flows: int, stay_s: float) -> tuple[int, int]:
    """Peak traced bytes and frames of one run in a fresh interpreter: the
    free lists a test session leaves behind would shift the peak."""
    src = str(Path(ransim.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(n_flows), str(stay_s)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, check=True).stdout
    peak, frames = map(int, out.split())
    return peak, frames


def test_short_stays_peak_like_long_stays():
    # the same 64 flow-seconds, 8 flows at a time: 8 flows staying 8 s
    # against 64 flows staying 1 s, 56 of which have retired at the end
    long_stay, long_frames = _traced_peak(8, 8.0)
    short_stay, short_frames = _traced_peak(64, 1.0)
    assert abs(short_frames - long_frames) < 64  # under one frame a flow
    assert short_stay <= 1.1 * long_stay, (short_stay, long_stay)
