import heapq
import io
import math
from collections import namedtuple

import pytest

import ransim.harness
import ransim.metrics
import ransim.world
from ransim import (FlowConfig, RanConfig, SimWorld, VideoFrame,
                    compute_metrics, constant_trace)
from ransim.eventlog import HEADER
from ransim.metrics import WARMUP_EXCLUDE_MS
from ransim.predictor import ETA
from ransim.sender import BaseSender


# one parsed log line, named for tests that read its fields; report itself
# reads plain tuples in this order
EventRecord = namedtuple("EventRecord", "time_ms event flow_id nbytes detail")


class SaturatingSender(BaseSender):
    """Backlogs the RAN regardless of feedback; measures drain capacity."""

    def __init__(self):
        super().__init__(epsilon=1, encoder="instant", initial_bps=500e6)
        self.last_guidance_bps = 500e6

    def on_feedback(self, fb, stamp_ts):
        pass


class FailFirst:
    """A one-flow world's RNG whose flow fails its first count
    transmissions and no other, whatever the BLER."""

    def __init__(self, count):
        self.count = count

    def random(self):
        self.count -= 1
        return -1.0 if self.count >= 0 else 1.0


def add_idle_flow(world, cfg):
    """Add a flow whose sender never runs: its first frame tick leaves the
    sender-event heap, so only ``inject_packet`` feeds it."""
    fr = world.add_flow(cfg)
    world._sender_events = [e for e in world._sender_events
                            if e[2] is not fr]
    heapq.heapify(world._sender_events)
    return fr


def inject_packet(world, flow_id, ts, nbytes):
    """Put one packet, modeled as its own frame encoded at ts, on the flow's
    wire lane, arriving at the base station at ts; bypasses the sender.
    Returns the frame id. A flow that has not started is built first; one
    that has retired takes no packet: its lane is the empty tuple."""
    fr = world.flows[flow_id]
    if fr.queue is None:
        world._start(fr)
    frame_id = fr.add_frame(VideoFrame(encode_ts=ts, nbytes=nbytes,
                                       target_bps=0.0, actual_bps=0.0))
    world._pkt_counter += 1
    ransim.world._send(fr.lane, [(ts, world._pkt_counter, frame_id, nbytes)])
    return frame_id


def record_encodes(fr):
    """The frames the flow's sender encodes from now on, in order: the
    world keeps only their columns, not the bitrates they were encoded at."""
    frames = []
    encode_frame = fr.sender.encode_frame

    def record(now):
        frames.append(encode_frame(now))
        return frames[-1]
    fr.sender.encode_frame = record
    return frames


def decode_time(world, flow_id, frame_id):
    """When the flow decoded the frame, from its frame columns; the frame
    must have been decoded, as its entry is NaN until then."""
    decode = world.flows[flow_id].decode_ms[frame_id]
    assert not math.isnan(decode), f"frame {frame_id} was never decoded"
    return decode


def delivered_bytes(fr):
    """The payload the flow has delivered: every byte it encoded less the
    bytes its receiver is still owed, of which there are none once the
    receiver is gone."""
    owed = sum(fr.receiver.remaining.values()) if fr.receiver else 0
    return sum(fr.frame_bytes) - owed


def frame_delay(world, flow_id, frame_id):
    """Encode-to-decode latency of a decoded frame, in ms."""
    return (decode_time(world, flow_id, frame_id)
            - world.flows[flow_id].encode_ms[frame_id])


def decoded_delays(columns, warmup_ms=WARMUP_EXCLUDE_MS):
    """The delays, in frame order, of one flow's frames encoded from
    warmup_ms on and decoded, read from its frame columns: the series that
    compute_metrics averages and ranks."""
    encode, decode, _ = columns
    return [dec - enc for enc, dec in zip(encode, decode)
            if enc >= warmup_ms and not math.isnan(dec)]


@pytest.fixture
def metrics_inputs(monkeypatch):
    """The (frame columns by flow, duration ms) of each compute_metrics
    call that run_scenario and report make, in call order."""
    calls = []

    def spy(frames_by_flow, duration_ms, *args):
        calls.append((frames_by_flow, duration_ms))
        return compute_metrics(frames_by_flow, duration_ms, *args)
    monkeypatch.setattr(ransim.harness, "compute_metrics", spy)
    monkeypatch.setattr(ransim.metrics, "compute_metrics", spy)
    return calls


class CheckedWorld(SimWorld):
    """Checks conservation and the live invariants after every TTI, and
    each estimated share as soon as it is estimated. Counts the TTIs that
    carried blocks and the predictions checked, for a run's liveness."""

    _retired = frozenset()  # ids of the flows that joined and left the list
    tx_ttis = predictions = 0

    def _estimate_and_predict(self, t0, present):
        super()._estimate_and_predict(t0, present)
        # the estimator keeps the registered floor once it has a grant
        # window; checked before the step ends, as a flow that leaves in it
        # would raise the floor
        floor = self.ran.prb_total / max(1, len(present))
        for fr in present:
            est = fr.estimator
            assert est is None or not est._uprb or est.prb_share >= floor

    def _transmit(self, fr, block, is_retx, t0, t1, uprb):
        self._granted += uprb
        super()._transmit(fr, block, is_retx, t0, t1, uprb)

    def step(self) -> None:
        self._granted = 0
        super().step()
        assert self._granted <= self.ran.prb_total
        self.tx_ttis += self._granted > 0
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
        assert cell._usage_active <= len(flows) * len(cell._usage)
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
                       and b.overhead_bytes < b.bytes
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
                assert 0.0 <= pred.guidance <= ETA * pred.mean_bw + 1e-9
                self.predictions += 1


def logged_world(ran, *, seed=0, log_level="full", world_cls=SimWorld):
    """A world whose event log writes to an io.StringIO at log_level,
    "full" or "frames"; log_text and events read it back."""
    assert log_level in ("frames", "full"), log_level
    return world_cls(ran, seed, log_sink=io.StringIO(),
                     full_log=log_level == "full")


def log_text(world) -> str:
    """The whole log of a logged_world so far, header first."""
    return world.log._sink.getvalue()


def events(world) -> list[EventRecord]:
    """Every event a logged_world has logged so far, parsed from its sink."""
    text = log_text(world)
    assert text.startswith(HEADER)
    out = []
    for line in text[len(HEADER):].splitlines():
        time_s, event, flow_s, bytes_s, detail = line.split(",", 4)
        out.append(EventRecord(float(time_s), event, int(flow_s),
                               int(bytes_s), detail))
    return out


def make_world(bpp=30.0, *, flows=1, controller="choir", wired_nd_ms=1.0,
               seed=1, bler=0.0, schedule=None, log_level=None,
               tti_ms=0.5, pattern="DDDSU", idle=False, **flow_kwargs):
    """A world of identical flows on a constant trace; with a log_level it
    is a logged_world."""
    ran = RanConfig(prb_total=100, tti_ms=tti_ms, tdd_pattern=pattern,
                    bler=bler,
                    schedule=schedule if schedule is not None
                    else constant_trace(bpp))
    world = (SimWorld(ran, seed=seed) if log_level is None
             else logged_world(ran, seed=seed, log_level=log_level))
    add = add_idle_flow if idle else SimWorld.add_flow
    for i in range(flows):
        add(world, FlowConfig(flow_id=i, controller=controller,
                              wired_nd_ms=wired_nd_ms, **flow_kwargs))
    return world


def run_metrics(world, duration_s, warmup_ms=2000.0):
    world.run(duration_s)
    return compute_metrics(world.frames_by_flow(), world.now_ms,
                           warmup_ms)


def saturate(world, flow_id=0):
    """Swap the flow's sender for one that always overdrives the link."""
    fr = world.flows[flow_id]
    fr.sender = SaturatingSender()
    return fr
