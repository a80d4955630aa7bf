"""Deterministic TTI-stepped downlink world wiring senders, the RAN and
receivers into one closed loop.

Time is in milliseconds. Scheduling eligibility is quantized to TTI
boundaries (a packet that arrived at or before a boundary can be served in
that TTI), while enqueue timestamps keep their exact sub-TTI arrival times
for frame-pattern detection.
"""
from __future__ import annotations

import heapq
import math
import random
from array import array
from bisect import insort
from collections import deque
from math import ceil
from typing import TextIO

from .baselines import (OracleSender, SconeFeedback, SconeSender,
                        decode_scone, encode_scone)
from .capacity import CellWindows, FlowEstimator
from .codec import GuidanceFeedback, decode_rate, encode_rate
from .eventlog import EventLog
from .predictor import FlowPredictor, mean_alloc_bw
from .ran import (OVERHEAD_FIXED, OVERHEAD_PER_SEGMENT, FlowQueueState,
                  RanConfig, assemble_block, sample_rlc_queue, schedule_prbs)
from .sender import (ENCODER_MODES, EPSILON_MAX, FRAME_INTERVAL_MS,
                     MTU_PAYLOAD, BaseSender, ChoirSender, VideoFrame)


class FlowConfig:
    """One flow of a scenario: the keys of its JSON object, with defaults."""

    def __init__(self, flow_id: int, controller: str = "choir",
                 wired_nd_ms: float = 10.0, ack_per_frames: int = 1,
                 epsilon: int = 1, encoder: str = "instant",
                 start_s: float = 0.0, stop_s: float | None = None,
                 initial_bitrate_mbps: float = 5.0):
        self.flow_id = flow_id
        self.controller = controller
        self.wired_nd_ms = wired_nd_ms
        self.ack_per_frames = ack_per_frames
        self.epsilon = epsilon
        self.encoder = encoder
        self.start_s = start_s
        self.stop_s = stop_s
        self.initial_bitrate_mbps = initial_bitrate_mbps
        controllers = sorted(_SENDERS)  # a list: an unhashable value is
        if self.controller not in controllers:  # unknown, not a TypeError
            raise ValueError(f"unknown controller {self.controller!r}; "
                             f"expected one of {controllers}")
        if self.encoder not in ENCODER_MODES:
            raise ValueError(f"unknown encoder {self.encoder!r}")
        # each range is written so that NaN fails it
        if not self.ack_per_frames >= 1:
            raise ValueError("ack_per_frames must be at least 1")
        if not self.epsilon >= 1:
            raise ValueError("epsilon must be at least 1")
        # the sender keeps epsilon - 1 bitrates and sums them every frame
        if self.epsilon > EPSILON_MAX:
            raise ValueError(f"epsilon must be at most {EPSILON_MAX}, "
                             f"got {self.epsilon!r}")
        if not 0 <= self.wired_nd_ms < math.inf:
            raise ValueError("wired_nd_ms must be nonnegative and finite")
        if not 0 <= self.start_s < math.inf:
            raise ValueError("start_s must be nonnegative and finite")
        if not 0 < self.initial_bitrate_mbps < math.inf:
            raise ValueError("initial_bitrate_mbps must be positive and finite")
        if (self.stop_s is not None
                and not self.start_s < self.stop_s < math.inf):
            raise ValueError("stop_s must exceed start_s and be finite")


def check_initial_bitrate(ran: RanConfig, mbps: float) -> None:
    """Bound the rate that sizes a flow's frames until its first feedback."""
    cap = (10 * ran.prb_total * 8 / ran.tti_ms / 1e3
           * max(bpp for _, bpp in ran.schedule.breakpoints))
    if mbps > cap:
        raise ValueError(f"initial_bitrate_mbps must be at most {cap:g}, "
                         f"10 times the cell's peak rate, got {mbps!r}")


class ReceiverState:
    """UE-side frame assembly and ACK pacing.

    ACKs are emitted once per ``ack_per_frames`` completed frames. A
    delayed-ACK timer (scaled with the cadence) keeps acknowledgements
    flowing while a frame's completion is stalled behind a deep queue, as a
    real transport receiver would.
    """

    ACK_TIMEOUT_SCALE = 1.2

    def __init__(self, ack_per_frames: int):
        self.ack_per_frames = ack_per_frames
        self.ack_timeout_ms = ack_per_frames * FRAME_INTERVAL_MS * \
            self.ACK_TIMEOUT_SCALE
        self.remaining: dict[int, int] = {}
        self.frames_since_ack = 0
        self.bytes_since_ack = 0
        self.last_ack_ts = -math.inf
        self.pending_acks: deque[tuple[float, int]] = deque()

    def on_bytes(self, frame_id: int, nbytes: int) -> bool:
        """Credit delivered payload; True when the frame just completed."""
        self.bytes_since_ack += nbytes
        left = self.remaining.get(frame_id)
        if left is None:
            return False
        left -= nbytes
        if left > 0:
            self.remaining[frame_id] = left
            return False
        del self.remaining[frame_id]
        return True

    def _emit(self, now: float) -> None:
        self.pending_acks.append((now, self.bytes_since_ack))
        self.frames_since_ack = 0
        self.bytes_since_ack = 0
        self.last_ack_ts = now

    def on_frame_complete(self, now: float) -> None:
        self.frames_since_ack += 1
        if self.frames_since_ack >= self.ack_per_frames:
            self._emit(now)

    def maybe_timeout_ack(self, now: float) -> None:
        if (self.bytes_since_ack > 0
                and now - self.last_ack_ts >= self.ack_timeout_ms):
            self._emit(now)


class FlowRuntime:
    """Everything the world tracks for one flow. The parts a running flow
    reads, from the sender to the queue, are None until SimWorld._start
    builds them, and all but the queue are None again once it retires."""

    def __init__(self, cfg: FlowConfig):
        self.cfg = cfg
        self.sender: BaseSender | None = None
        self.queue: FlowQueueState | None = None
        self.estimator: FlowEstimator | None = None
        self.predictor: FlowPredictor | None = None
        self.receiver: ReceiverState | None = None
        # packets on the wire, sorted: (ts, pkt_id, frame_id, nbytes); the
        # shared empty tuple before the flow starts and once it retires
        self.lane: deque[tuple[float, int, int, int]] | tuple = ()
        # the flow's frames, indexed by frame_id: encode and decode times,
        # decode NaN until the frame's last byte is delivered, and sizes
        self.encode_ms = array("d")
        self.decode_ms = array("d")
        self.frame_bytes = array("q")
        self.start_ms = cfg.start_s * 1000.0
        self.stop_ms = math.inf if cfg.stop_s is None else cfg.stop_s * 1000.0
        self.attempt_counter = 0

    def add_frame(self, frame: VideoFrame) -> int:
        """Store a frame just encoded and expect its bytes at the receiver;
        returns its frame id, its index in the frame columns."""
        frame_id = len(self.encode_ms)
        self.encode_ms.append(frame.encode_ts)
        self.decode_ms.append(math.nan)
        self.frame_bytes.append(frame.nbytes)
        self.receiver.remaining[frame_id] = frame.nbytes
        return frame_id

    def present(self, now: float) -> bool:
        """Started, and not yet stopped or still holding queued/HARQ bytes."""
        if now < self.start_ms:
            return False
        q = self.queue
        return now < self.stop_ms or q.queued_bytes > 0 or bool(q.harq_pending)


_SENDERS = {"choir": ChoirSender, "scone": SconeSender,
            "oracle": OracleSender}


def _flow_id(fr: FlowRuntime) -> int:
    return fr.cfg.flow_id


def _send(lane: deque, packets: list[tuple[float, int, int, int]]) -> None:
    """Put packets in rising (ts, pkt_id) order on a lane kept in that order.
    Only a frame paced past the next frame's first packet takes insort."""
    if packets and lane and packets[0] < lane[-1]:
        for pkt in packets:
            insort(lane, pkt)
    else:
        lane.extend(packets)


class SimWorld:
    """One cell, one TTI clock, any number of flows."""

    def __init__(self, ran: RanConfig, seed: int, *,
                 log_sink: TextIO | None = None, full_log: bool = False):
        """log_sink, a text file or io.StringIO, receives the event log,
        every event with full_log and the frame events without; without a
        sink the world keeps no log."""
        self.ran = ran
        pattern = ran.tdd_pattern
        self._duty = pattern.downlink_duty()
        # (downlink factor, uplink allowed) for each slot of the TDD cycle
        self._slots = [(pattern.downlink_factor(i), pattern.can_uplink(i))
                       for i in range(len(pattern.slots))]
        self.rng = random.Random(seed)
        self.seed = seed
        self.tti_index = 0
        self.flows: dict[int, FlowRuntime] = {}
        self._unretired: list[FlowRuntime] = []  # waiting or live, by id
        self._live: list[FlowRuntime] = []  # the flows a step visits
        self._next_change = math.inf  # next start, or earliest live stop
        self.cell = CellWindows(ran.tti_ms)
        self.log = None if log_sink is None else EventLog(log_sink)
        self._log_full = self.log is not None and full_log
        self._rotation = 0
        self._seq = 0
        self._sender_events: list = []  # (ts, seq, flow, feedback or None)
        self._pkt_counter = 0
        # bytes per PRB at tti_index, read from the trace's breakpoints
        self._breaks = iter(ran.schedule.breakpoints)
        _, self._bpp = next(self._breaks)
        self._next_break = next(self._breaks, None)

    # -- wiring -------------------------------------------------------------

    @property
    def now_ms(self) -> float:
        return self.tti_index * self.ran.tti_ms

    def add_flow(self, cfg: FlowConfig) -> FlowRuntime:
        if cfg.flow_id in self.flows:
            raise ValueError(f"duplicate flow_id {cfg.flow_id}")
        if cfg.stop_s is not None and cfg.stop_s * 1000.0 <= self.now_ms:
            raise ValueError(f"flow {cfg.flow_id} stops before now")
        if cfg.start_s * 1000.0 < self.now_ms:
            raise ValueError(f"flow {cfg.flow_id} starts before now")
        check_initial_bitrate(self.ran, cfg.initial_bitrate_mbps)
        fr = FlowRuntime(cfg)
        self.flows[cfg.flow_id] = fr
        self._unretired.append(fr)
        self._unretired.sort(key=_flow_id)
        self._update_live(self.now_ms)
        self._push_sender_event(fr.start_ms, fr, None)
        return fr

    def _update_live(self, now: float) -> None:
        """Live flows, in flow-id order: started by now, and not retired. A
        flow retires once it has stopped and holds nothing in the system: no
        queued or HARQ bytes, an empty wire lane to the base station and no
        pending ACK. Only the unretired flows are visited, so a retired flow
        is never read again here."""
        unretired, live, changes = [], [], []
        for fr in self._unretired:
            if fr.start_ms > now:
                unretired.append(fr)
                changes.append(fr.start_ms)
                continue
            if fr.queue is None:
                self._start(fr)
            if (now < fr.stop_ms or fr.queue.queued_bytes or fr.lane
                    or fr.queue.harq_pending or fr.receiver.pending_acks):
                unretired.append(fr)
                live.append(fr)
                changes.append(fr.stop_ms)
            else:
                self._retire(fr)
        self._unretired, self._live = unretired, live
        self._next_change = min(changes, default=math.inf)

    def _start(self, fr: FlowRuntime) -> None:
        """Build the parts a running flow reads, so that a flow waiting for
        its start holds none of them: an estimator where a scone or choir
        stamp reads its estimates, a predictor where a choir stamp does."""
        cfg, ran = fr.cfg, self.ran
        fr.sender = _SENDERS[cfg.controller](
            cfg.epsilon, cfg.encoder, cfg.initial_bitrate_mbps * 1e6)
        fr.queue = FlowQueueState()
        if cfg.controller != "oracle":
            fr.estimator = FlowEstimator(ran.prb_total, ran.tti_ms)
        if cfg.controller == "choir":
            fr.predictor = FlowPredictor(ran.tti_ms, cfg.wired_nd_ms,
                                         fr.estimator.bw_ring)
        fr.receiver = ReceiverState(cfg.ack_per_frames)
        fr.lane = deque()

    def _retire(self, fr: FlowRuntime) -> None:
        """Free what only a live flow reads: the estimator with its
        bandwidth ring, the predictor with its stamp history, the
        receiver and the sender. The sender encodes no more frames, as the
        flow's last tick came before its stop; feedback still on its way is
        logged but applied to no sender. The queue's containers, its samples
        among them, and the wire lane become the shared empty tuple, as an
        emptied deque keeps its blocks; a write to them fails. The frame
        columns stay, and so does the queue's one counter, queued_bytes, at
        zero."""
        fr.estimator = fr.predictor = fr.receiver = fr.sender = None
        q = fr.queue
        q.segments = q.harq_pending = q.samples = q.sample_nums = \
            fr.lane = ()

    def _push_sender_event(self, ts: float, fr: FlowRuntime, feedback) -> None:
        self._seq += 1  # unique: fr is never compared
        heapq.heappush(self._sender_events, (ts, self._seq, fr, feedback))

    def _present(self, now: float) -> list[FlowRuntime]:
        """Every live flow until one stops, then those present at now."""
        if now < self._next_change:
            return self._live
        return [fr for fr in self._live if fr.present(now)]

    def true_flow_rate(self) -> float:
        """Ground-truth payload drain capacity of each present flow, bytes/ms."""
        n = max(1, len(self._present(self.now_ms)))
        grant = self.ran.prb_total / n * self._bpp
        if grant <= OVERHEAD_FIXED + OVERHEAD_PER_SEGMENT + 1:
            return 0.0
        nseg = max(1, math.ceil(grant / MTU_PAYLOAD))
        gamma = 1.0 - (OVERHEAD_FIXED + OVERHEAD_PER_SEGMENT * nseg) / grant
        return (grant * gamma * self._duty * (1.0 - self.ran.bler)
                / self.ran.tti_ms)

    # -- main loop ----------------------------------------------------------

    def run(self, duration_s: float) -> None:
        """Step duration_s of simulated time. The log's sink is flushed also
        when a step raises, so a failed run leaves what it logged."""
        n_ttis = int(round(duration_s * 1000.0 / self.ran.tti_ms))
        try:
            for _ in range(n_ttis):
                self.step()
            if self.log is not None:
                self.log.add(self.now_ms, "run_info", -1, 0,
                             f"duration_ms={self.now_ms!r};seed={self.seed}")
        finally:
            if self.log is not None:
                self.log.write()

    def step(self) -> None:
        """Advance exactly one TTI."""
        t0 = self.now_ms
        t1 = t0 + self.ran.tti_ms
        self._process_arrivals(t0)
        # nothing before the downlink changes queued or HARQ bytes
        present = self._present(t0)
        self._estimate_and_predict(t0, present)
        factor, uplink = self._slots[self.tti_index % len(self._slots)]
        if factor > 0.0:
            self._downlink(t0, t1, factor, present)
        else:
            self.cell.close_tti(0.0, False, False, False, 0, 0)
        if uplink:
            self._uplink(t0)
        self._process_sender_events(t0, t1)
        self.tti_index += 1
        now = self.now_ms
        if now >= self._next_change:
            self._update_live(now)
        nxt = self._next_break
        if nxt is not None and nxt[0] <= self.tti_index:
            self._bpp = nxt[1]
            self._next_break = next(self._breaks, None)

    def _process_arrivals(self, t0: float) -> None:
        """Move each live flow's arrived packets from its lane to its queue;
        the `full` log merges them across flows in (ts, pkt_id) order."""
        arrived = [] if self._log_full else None
        for fr in self._live:
            lane = fr.lane
            if not lane or lane[0][0] > t0:
                continue
            segments, predictor, total = fr.queue.segments, fr.predictor, 0
            while lane and lane[0][0] <= t0:
                ts, pkt_id, frame_id, nbytes = lane.popleft()
                segments.append((frame_id, nbytes))
                total += nbytes
                if predictor is not None:
                    predictor.on_enqueue(ts, nbytes)
                if arrived is not None:  # unique pkt_id: fr is never compared
                    arrived.append((ts, pkt_id, fr, nbytes, frame_id))
            fr.queue.queued_bytes += total
        if arrived:
            for ts, pkt_id, fr, nbytes, frame_id in sorted(arrived):
                self.log.add(ts, "enqueue", fr.cfg.flow_id, nbytes,
                             f"pkt={pkt_id};frame={frame_id}")

    def _estimate_and_predict(self, t0: float,
                              present: list[FlowRuntime]) -> None:
        """Sample queues and estimate bandwidth; predicting waits for a stamp."""
        terms = self.cell.terms(self.ran.prb_total, len(present))
        for fr in present:
            if fr.predictor is not None:
                sample_rlc_queue(fr.queue, t0)
            if fr.estimator is not None:
                fr.estimator.compute(t0, terms)

    def _downlink(self, t0: float, t1: float, factor: float,
                  present: list[FlowRuntime]) -> None:
        unit = self._bpp * factor
        # one read of each HARQ head: no transmission changes another flow's
        # queue, and a block that fails now waits harq_rtx_delay_ms > 0
        demands: list[int] = []
        sending: list[tuple[FlowRuntime, bool]] = []  # (flow, is_retx)
        for fr in present:
            q = fr.queue
            pending = q.harq_pending
            if pending and pending[0].ready_ms <= t0:
                is_retx = True
                need = pending[0].bytes
            elif q.queued_bytes:
                is_retx = False
                need = q.queued_bytes + (
                    OVERHEAD_FIXED + OVERHEAD_PER_SEGMENT
                    * (1 + q.queued_bytes // MTU_PAYLOAD))
            else:
                if fr.estimator is not None:
                    fr.estimator.note_grant(0)
                continue
            # a TTI without capacity grants nothing, whatever the demand
            need = ceil(need / unit - 1e-9) if unit else 1
            demands.append(need if need > 1 else 1)  # max(1, need)
            sending.append((fr, is_retx))
        grants = [0] * len(demands)
        if demands and unit > 0.0:
            grants = schedule_prbs(demands, self.ran.prb_total,
                                   self._rotation)
            self._rotation += 1
        prb_used = 0
        any_data = False
        any_retx = False
        for (fr, is_retx), prbs in zip(sending, grants):
            q = fr.queue
            block = None
            if prbs > 0:
                if is_retx:
                    block = q.harq_pending.popleft()
                else:
                    block = assemble_block(q, int(prbs * unit + 1e-9))
            if block is None:
                if fr.estimator is not None:
                    fr.estimator.note_grant(0)
                continue
            fit = ceil(block.bytes / unit - 1e-9)  # min(prbs, max(1, fit))
            uprb = prbs if fit >= prbs else fit if fit > 1 else 1
            if fr.estimator is not None:  # the block's PRBs are its grant
                fr.estimator.note_block(t0, block.bytes,
                                        block.overhead_bytes, uprb, factor)
            prb_used += uprb
            any_data = True
            any_retx = any_retx or is_retx
            self._transmit(fr, block, is_retx, t0, t1, uprb)
        self.cell.close_tti(factor if unit > 0.0 else 0.0, any_data,
                            any_retx, True, prb_used, len(demands))

    def _transmit(self, fr: FlowRuntime, block, is_retx: bool,
                  t0: float, t1: float, uprb: int) -> None:
        fr.attempt_counter += 1
        fail = self.rng.random() < self.ran.bler
        if self._log_full:
            self.log.add(t0, "tx_block", fr.cfg.flow_id, block.bytes,
                         f"retx={int(is_retx)};prbs={uprb};fail={int(fail)};"
                         f"attempt={fr.attempt_counter}")
        if not fail:
            self._deliver_block(fr, block, t1)
            return
        if block.rtx_count < self.ran.harq_max_rtx:
            block.rtx_count += 1
            block.ready_ms = t0 + self.ran.harq_rtx_delay_ms
            fr.queue.harq_pending.append(block)
            if self._log_full:
                self.log.add(t0, "harq_fail", fr.cfg.flow_id, block.bytes,
                             f"rtx={block.rtx_count};ready={block.ready_ms!r}")
        else:
            # HARQ exhausted: RLC AM pushes the payload back through the queue
            fr.queue.requeue_tail(block)
            if self._log_full:
                self.log.add(t0, "rlc_requeue", fr.cfg.flow_id,
                             block.payload_bytes, f"rtx={block.rtx_count}")

    def _deliver_block(self, fr: FlowRuntime, block, t1: float) -> None:
        # one credit per run of consecutive segments from one frame; after
        # an RLC requeue a block can interleave frames (A, B, A)
        segments = block.segments
        run = 0
        for i, (frame_id, nbytes) in enumerate(segments, 1):
            run += nbytes
            if i < len(segments) and segments[i][0] == frame_id:
                continue
            if fr.receiver.on_bytes(frame_id, run):
                fr.decode_ms[frame_id] = t1
                if self.log is not None:
                    self.log.add(t1, "frame_done", fr.cfg.flow_id,
                                 fr.frame_bytes[frame_id],
                                 f"frame={frame_id};"
                                 f"delay={t1 - fr.encode_ms[frame_id]!r}")
                fr.receiver.on_frame_complete(t1)
            run = 0
        fr.receiver.maybe_timeout_ack(t1)
        if self._log_full:
            self.log.add(t1, "deliver", fr.cfg.flow_id, block.payload_bytes,
                         f"segs={len(block.segments)}")

    def _uplink(self, t0: float) -> None:
        for fr in self._live:
            pending = fr.receiver.pending_acks
            while pending and pending[0][0] <= t0:
                self._stamp_and_forward(fr, t0, pending.popleft()[1])

    def _stamp_and_forward(self, fr: FlowRuntime, t0: float,
                           acked_bytes: int) -> None:
        kind = fr.cfg.controller
        if kind == "choir":
            # One prediction per TTI, made before its first stamp: the
            # estimate pass left every input in place, and later ACKs of
            # this TTI reuse it.
            pred = fr.predictor.last_prediction
            if pred is None or pred.ts != t0:
                pred = fr.predictor.compute(t0, fr.queue.samples)
                if self._log_full:
                    # a flow that has left and drained was not sampled at
                    # t0: its queue is empty
                    ts, queued = fr.queue.samples[-1]
                    self.log.add(
                        t0, "predict", fr.cfg.flow_id,
                        queued if ts == t0 else 0,
                        f"pred_q={pred.pred_q!r};guidance={pred.guidance!r};"
                        f"fi={pred.fi!r};bw={fr.predictor.bw_ring[-1]!r};"
                        f"mean_bw={pred.mean_bw!r}")
            guidance = pred.guidance
            fb = encode_rate(guidance * 8000.0)
            wire = fb.to_bytes()
            decoded = decode_rate(fb)
            fr.predictor.record_stamp(t0, (decoded or 0.0) / 8000.0)
        elif kind == "scone":
            # scone's capacity is the mean over the last frame interval
            window = max(1, round(FRAME_INTERVAL_MS / self.ran.tti_ms))
            capacity = mean_alloc_bw(fr.estimator.bw_ring, window)
            scone_fb = SconeFeedback(capacity=capacity,
                                     queue_len=float(fr.queue.queued_bytes))
            wire = encode_scone(scone_fb)
        else:
            wire = b""
        if self._log_full:
            detail = (f"guidance={guidance!r}" if kind == "choir" else
                      f"capacity={capacity!r};queue={fr.queue.queued_bytes}"
                      if kind == "scone" else "")
            self.log.add(t0, "ack_stamp", fr.cfg.flow_id, acked_bytes, detail)
        arrive = t0 + fr.cfg.wired_nd_ms
        self._push_sender_event(arrive, fr, (wire, t0, acked_bytes))

    def _process_sender_events(self, t0: float, t1: float) -> None:
        heap = self._sender_events
        while heap and heap[0][0] < t1:
            ts, _, fr, feedback = heapq.heappop(heap)
            if feedback is None:
                self._frame_tick(fr, ts)
            else:
                self._apply_feedback(fr, ts, feedback)

    def _frame_tick(self, fr: FlowRuntime, ts: float) -> None:
        # ts < stop_ms, by FlowConfig's start_s < stop_s and the push below
        if fr.queue is None:  # a start inside a TTI ticks before it is live
            self._start(fr)
        if fr.cfg.controller == "oracle":  # the truth is its guidance
            fr.sender.apply_guidance(self.true_flow_rate() * 8000.0, ts)
        frame = fr.sender.encode_frame(ts)
        frame_id = fr.add_frame(frame)
        if self.log is not None:
            self.log.add(ts, "frame_encode", fr.cfg.flow_id, frame.nbytes,
                         f"frame={frame_id};"
                         f"target={frame.target_bps!r};"
                         f"actual={frame.actual_bps!r}")
        offsets = fr.sender.packet_release_offsets(frame.nbytes)
        first, wired = self._pkt_counter + 1, fr.cfg.wired_nd_ms
        _send(fr.lane, [(ts + offset + wired, first + i, frame_id, n)
                        for i, (n, offset) in enumerate(offsets)])
        self._pkt_counter += len(offsets)
        next_ts = fr.start_ms + len(fr.encode_ms) * FRAME_INTERVAL_MS
        if next_ts < fr.stop_ms:
            self._push_sender_event(next_ts, fr, None)

    def _apply_feedback(self, fr: FlowRuntime, ts: float, feedback) -> None:
        wire, stamp_ts, acked_bytes = feedback
        sender, kind = fr.sender, fr.cfg.controller
        if sender is not None:  # None once the flow has retired
            sender.on_ack_bytes(ts, acked_bytes)
            if kind == "choir":
                sender.on_feedback(GuidanceFeedback.from_bytes(wire), stamp_ts)
            elif kind == "scone":
                sender.on_feedback(decode_scone(wire), stamp_ts)
        if self._log_full:
            self.log.add(ts, "feedback_apply", fr.cfg.flow_id, acked_bytes,
                         f"stamp={stamp_ts!r}")

    # -- invariants ----------------------------------------------------------

    def assert_conservation(self) -> None:
        """Each receiver must be owed exactly the payload on its flow's wire
        lane, in its queue and in its HARQ blocks; a flow without one, not
        started or retired, must have decoded every frame."""
        for fid, fr in sorted(self.flows.items()):
            if fr.receiver is None:
                undecoded = sum(map(math.isnan, fr.decode_ms))
                if undecoded:
                    raise AssertionError(f"flow {fid}: {undecoded} undecoded "
                                         f"frame(s) at tti {self.tti_index}")
                continue
            owed = sum(fr.receiver.remaining.values())
            held = (sum(pkt[3] for pkt in fr.lane) + fr.queue.queued_bytes
                    + sum(b.payload_bytes for b in fr.queue.harq_pending))
            if owed != held:
                raise AssertionError(f"flow {fid}: owed {owed} != held {held} "
                                     f"at tti {self.tti_index}")

    def frames_by_flow(self) -> dict[int, tuple[array, array, array]]:
        """Each flow's frame columns (metrics.FrameColumns): encode ms,
        decode ms and bytes, indexed by frame id."""
        return {fid: (fr.encode_ms, fr.decode_ms, fr.frame_bytes)
                for fid, fr in sorted(self.flows.items())}

