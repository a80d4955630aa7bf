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
