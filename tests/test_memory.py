"""Memory follows the live flows: a retired flow frees its base-station
state and its sender, so a run holds about as much for many short stays as
for a few long ones with the same concurrency; a flow's predictor histories
hold about what a prediction reads; each frame leaves only its three column
entries behind; and a run that writes its event log holds none of its
text."""
import gc
import math
import os
import subprocess
import sys
import weakref
from collections import deque
from pathlib import Path

import pytest

from conftest import events, log_text, logged_world
from reference import ReferenceWorld

import ransim
from ransim import FlowConfig, RanConfig, SimWorld, constant_trace
from ransim.harness import Scenario, build_world, load_scenario, run_scenario
from ransim.predictor import HISTORY_CAPACITY, FlowPredictor


def test_retiring_flow_state_is_freed_by_reference_counting():
    w = SimWorld(RanConfig(schedule=constant_trace(30.0)), seed=1)
    w.add_flow(FlowConfig(flow_id=0))
    leaver = w.add_flow(FlowConfig(flow_id=1, stop_s=0.3))
    held = [leaver.estimator, leaver.predictor, leaver.estimator.bw_ring,
            leaver.predictor.stamps, leaver.receiver, leaver.sender,
            leaver.sender.recv_window]
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
    assert leaver.estimator is leaver.predictor is leaver.receiver is \
        leaver.sender is None
    assert not leaver.queue.samples
    # what stays: the frame columns, every frame decoded, and a zero queue
    # counter
    assert len(leaver.encode_ms) == len(leaver.decode_ms) > 0
    assert not any(math.isnan(t) for t in leaver.decode_ms)
    assert leaver.queue.queued_bytes == 0 and not leaver.queue.harq_pending
    w.assert_conservation()


def test_waiting_flow_holds_no_parts_until_it_starts():
    # a flow is built when it starts, or at its first tick when its start
    # falls inside a TTI; the log and the frame columns match those of the
    # reference world, which builds every flow when it is added
    parts = ("sender", "queue", "estimator", "predictor", "receiver")
    runs = []
    for world_cls in (SimWorld, ReferenceWorld):
        w = logged_world(RanConfig(schedule=constant_trace(30.0)), seed=1,
                         world_cls=world_cls)
        w.add_flow(FlowConfig(flow_id=0))
        late = w.add_flow(FlowConfig(flow_id=1, start_s=0.2))
        inside = w.add_flow(FlowConfig(flow_id=2, start_s=0.30025,
                                       controller="scone"))
        if world_cls is SimWorld:
            assert all(getattr(fr, part) is None
                       for fr in (late, inside) for part in parts)
            assert late.lane == inside.lane == ()
            while w.now_ms < 200.0:
                w.step()
            assert late in w._live and late.queue is not None
            while w.now_ms < 300.0:
                w.step()
            assert inside.queue is None
            w.step()  # its first tick, at 300.25 ms, comes in this TTI
            assert inside in w._live and len(inside.encode_ms) == 1
        w.run(1.0 - w.now_ms / 1000.0)  # one run_info line, at 1 s
        runs.append((log_text(w), [col.tobytes() for cols in
                                   w.frames_by_flow().values()
                                   for col in cols]))
    assert runs[0] == runs[1]
    assert "\n300.25,frame_encode,2," in runs[0][0]


def test_feedback_landing_after_retirement_is_logged_unapplied():
    # ACKs stamped just before the leaver retires reach it 20 ms later,
    # when it has no sender: each is still logged, and applied to nothing
    w = logged_world(RanConfig(schedule=constant_trace(30.0)), seed=1)
    w.add_flow(FlowConfig(flow_id=0))
    leaver = w.add_flow(FlowConfig(flow_id=1, stop_s=0.3, wired_nd_ms=20.0))
    while leaver in w._live:
        w.step()
    retired_ms = w.now_ms
    stamps = [r.time_ms for r in events(w)
              if r.flow_id == 1 and r.event == "ack_stamp"]
    w.run(0.1)
    late = [r for r in events(w) if r.flow_id == 1
            and r.event == "feedback_apply" and r.time_ms > retired_ms]
    assert late and leaver.sender is None
    assert [r.time_ms - 20.0 for r in late] == stamps[-len(late):]


def test_flow_that_stopped_before_it_is_added_is_rejected():
    # it would retire at once, freeing the receiver its first frame needs
    w = SimWorld(RanConfig(schedule=constant_trace(30.0)), seed=1)
    w.add_flow(FlowConfig(flow_id=0))
    w.run(0.5)
    with pytest.raises(ValueError, match="flow 1 stops before now"):
        w.add_flow(FlowConfig(flow_id=1, start_s=0.1, stop_s=0.5))
    w.add_flow(FlowConfig(flow_id=1, start_s=0.5, stop_s=0.6))
    w.run(0.5)
    assert len(w.flows[1].encode_ms) and w.flows[1].estimator is None


def test_flow_that_starts_before_now_is_rejected():
    # its missed frame ticks would all fire in the next step, their delays
    # counting time before the flow was added
    w = SimWorld(RanConfig(schedule=constant_trace(30.0)), seed=1)
    w.add_flow(FlowConfig(flow_id=0))
    w.run(0.5)
    with pytest.raises(ValueError, match="flow 1 starts before now"):
        w.add_flow(FlowConfig(flow_id=1, start_s=0.1))
    assert 1 not in w.flows
    fr = w.add_flow(FlowConfig(flow_id=1, start_s=0.5))
    w.step()
    assert list(fr.encode_ms) == [500.0]


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
      sum(len(fr.encode_ms) for fr in w.flows.values()))
"""


def _fresh(code: str, *runs: tuple[str, ...]) -> list[list[int]]:
    """The integers code prints with each run's arguments, each run in a
    fresh interpreter: the free lists a test session leaves behind would
    shift a traced peak. The runs go at the same time."""
    src = str(Path(ransim.__file__).resolve().parent.parent)
    procs = [subprocess.Popen(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
        text=True) for args in runs]
    try:
        outs = [proc.communicate(timeout=300)[0] for proc in procs]
    finally:
        for proc in procs:
            proc.kill()  # a no-op on a run that has exited
    assert [proc.returncode for proc in procs] == [0] * len(procs)
    return [[int(v) for v in out.split()] for out in outs]


def test_short_stays_peak_like_long_stays():
    # the same 64 flow-seconds, 8 flows at a time: 8 flows staying 8 s
    # against 64 flows staying 1 s, 56 of which have retired at the end
    (long_stay, long_frames), (short_stay, short_frames) = _fresh(
        _TRACED_RUN, ("8", "8.0"), ("64", "1.0"))
    assert abs(short_frames - long_frames) < 64  # under one frame a flow
    assert short_stay <= 1.1 * long_stay, (short_stay, long_stay)


# runs the shipped fairness scenario without a sink for argv[1] simulated
# seconds under tracemalloc; prints the bytes still traced after the run and
# the frames encoded
_RETAINED_RUN = """
import sys, tracemalloc
from ransim.harness import build_world, load_scenario
from ransim.metrics import compute_metrics
scn = load_scenario(sys.argv[1])
tracemalloc.start()
w = build_world(scn)
w.run(float(sys.argv[2]))
ran = tracemalloc.get_traced_memory()[0]
metrics = compute_metrics(w.frames_by_flow(), w.now_ms)
print(ran, sum(len(fr.encode_ms) for fr in w.flows.values()),
      tracemalloc.get_traced_memory()[0] - ran)
"""
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
FAIRNESS = SCENARIOS / "multi_flow_fairness.json"


def _deep_size(obj) -> int:
    """obj's bytes and those of each item of a deque or tuple in it."""
    size = sys.getsizeof(obj)
    if isinstance(obj, (deque, tuple)):
        size += sum(_deep_size(item) for item in obj)
    return size


def test_predictor_histories_hold_about_what_a_read_spans():
    # a prediction reads round(fi / tti_ms) = 33 TTIs of the bandwidth ring
    # and of the queue samples. Measured (Python 3.11.7) after 4 s:
    # 17,272 B of estimates and under 2 KB of queue-sample store a flow,
    # where 2,048 estimates and a ring of 512 samples held 127,088 B
    w = build_world(load_scenario(FAIRNESS))
    w.run(4.0)
    for fid, fr in w.flows.items():
        q = fr.queue
        held = sum(map(_deep_size, (fr.estimator.bw_ring, q.samples,
                                    q.sample_nums)))
        assert held < 32 * 1024, (fid, held)


@pytest.mark.parametrize("name", sorted(p.stem for p in
                                  SCENARIOS.glob("*.json")))
def test_stamp_history_holds_every_stamp_a_read_finds(monkeypatch, name):
    # a stamp a read finds is in the history, so the cap changes a read only
    # where it finds none after the oldest stamps were dropped; every miss
    # comes before the history first fills. The deepest stamp read, counted
    # as the stamps newer than it: 3 in single_flow and step_drop, 4 in
    # join_leave, 5 in multi_flow_fairness and fluctuating_baselines
    depths = []
    rates_at = FlowPredictor.rates_at

    def spy(self, times):
        times = list(times)
        rates = rates_at(self, times)
        depths.extend(sum(ts > t for ts, _ in self.stamps)
                      for t in times[:len(rates)])
        assert len(rates) == len(times) or \
            len(self.stamps) < HISTORY_CAPACITY
        return rates
    monkeypatch.setattr(FlowPredictor, "rates_at", spy)
    scn = load_scenario(SCENARIOS / f"{name}.json")
    run_scenario(Scenario(**{**vars(scn), "log_level": "frames"}))
    assert max(depths) < HISTORY_CAPACITY


def test_run_retains_three_columns_per_frame():
    # what a run keeps grows, past the warm-up of its rings and histories,
    # only by its frames: three 8 B column entries each. Measured (2 vCPU,
    # Python 3.11.7): 30 B per frame from 4 s to 8 s, where a VideoFrame
    # apiece kept 221 B. The metrics keep four floats per flow and the Jain
    # index, nothing per frame: 3,520 B at 4 s and at 8 s
    (short, short_frames, short_kept), (long, long_frames, long_kept) = \
        _fresh(_RETAINED_RUN, (str(FAIRNESS), "4"), (str(FAIRNESS), "8"))
    assert long_frames > 1.9 * short_frames > 3000
    per_frame = (long - short) / (long_frames - short_frames)
    assert per_frame < 60, per_frame
    assert long_kept <= short_kept, (short_kept, long_kept)


# runs the scenario at argv[1], cut to 4 s, twice without an out dir and
# twice with the out dir argv[2]; prints the peak traced bytes of each
# second run, the first having filled what later runs reuse
_OUT_DIR_RUN = """
import sys, tracemalloc
from ransim.harness import load_scenario, run_scenario
scn = load_scenario(sys.argv[1])
scn.duration_s = 4.0
for out_dir in (None, sys.argv[2]):
    for _ in range(2):
        tracemalloc.start()
        run_scenario(scn, out_dir)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    print(peak)
"""


def test_out_dir_holds_no_log_text(tmp_path):
    # each events.log line goes to the file as it is logged, so a run that
    # keeps its full log peaks only the open file and its buffer above one
    # that keeps none. Measured (2 vCPU, Python 3.11.7): 279 KB with an out
    # dir against 249 KB without; holding 4,096 lines between writes
    # peaked at 1,046 KB
    [(without, with_out)] = _fresh(_OUT_DIR_RUN, (
        str(SCENARIOS / "fluctuating_baselines.json"), str(tmp_path)))
    assert with_out <= without + 128 * 1024, (without, with_out)
    assert (tmp_path / "events.log").stat().st_size > 1024 * 1024
