"""RAN downlink primitives: configuration, per-flow queues, PRB scheduling,
transport blocks and HARQ retry state.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from .tdd import TddPattern
from .traces import CapacitySchedule, constant_trace

# MAC/RLC framing cost per transport block: a fixed header plus a small
# per-segment header. Keeps the measured payload fraction near 0.97+ for
# realistically sized grants.
OVERHEAD_FIXED = 8
OVERHEAD_PER_SEGMENT = 5

RLC_SAMPLE_RING = 512


@dataclass
class RanConfig:
    """Static downlink parameters of one simulated cell."""

    prb_total: int = 100
    tti_ms: float = 0.5
    tdd_pattern: TddPattern | str = "DDDSU"
    bler: float = 0.0
    harq_rtx_delay_ms: float = 5.5
    harq_max_rtx: int = 3
    schedule: CapacitySchedule = field(default_factory=lambda: constant_trace(30.0))

    def __post_init__(self):
        if isinstance(self.tdd_pattern, str):
            self.tdd_pattern = TddPattern.parse(self.tdd_pattern)
        if self.prb_total <= 0:
            raise ValueError("prb_total must be positive")
        if self.tti_ms not in (0.5, 1.0):
            raise ValueError("tti_ms must be 0.5 or 1.0")
        if not 0.0 <= self.bler < 1.0:
            raise ValueError("bler must lie in [0, 1)")
        if self.harq_rtx_delay_ms <= 0:
            raise ValueError("harq_rtx_delay_ms must be positive")
        if self.harq_max_rtx < 0:
            raise ValueError("harq_max_rtx must be nonnegative")


@dataclass
class Packet:
    """One paced wire packet; identity survives segmentation at the RLC."""

    pkt_id: int
    flow_id: int
    frame_id: int
    payload_bytes: int


@dataclass
class QueuedSegment:
    """Contiguous byte range of a packet waiting in the RLC queue."""

    packet: Packet
    nbytes: int
    enqueue_ts: float


@dataclass
class TransportBlock:
    """One MAC-layer block: payload segments plus framing overhead."""

    flow_id: int
    bytes: int
    overhead_bytes: int
    segments: list[tuple[Packet, int]]
    rtx_count: int = 0
    ready_ms: float = 0.0  # earliest retransmission time while HARQ-pending

    @property
    def payload_bytes(self) -> int:
        return self.bytes - self.overhead_bytes


class FlowQueueState:
    """Base-station side of one flow: RLC queue, usage and queue samples."""

    def __init__(self, flow_id: int):
        self.flow_id = flow_id
        self.segments: deque[QueuedSegment] = deque()
        self.queued_bytes = 0
        self.samples: deque[tuple[float, int]] = deque(maxlen=RLC_SAMPLE_RING)
        self.harq_pending: deque[TransportBlock] = deque()
        self.harq_flight_payload = 0

    def enqueue(self, packet: Packet, ts: float, nbytes: int | None = None) -> None:
        n = packet.payload_bytes if nbytes is None else nbytes
        self.segments.append(QueuedSegment(packet, n, ts))
        self.queued_bytes += n

    def requeue_tail(self, block: TransportBlock, ts: float) -> None:
        """RLC AM: a block that exhausted HARQ re-enters the queue tail."""
        for packet, nbytes in block.segments:
            self.segments.append(QueuedSegment(packet, nbytes, ts))
            self.queued_bytes += nbytes

    def has_ready_retx(self, now: float) -> bool:
        return bool(self.harq_pending) and self.harq_pending[0].ready_ms <= now

    def has_demand(self, now: float) -> bool:
        return self.queued_bytes > 0 or self.has_ready_retx(now)


def sample_rlc_queue(flow: FlowQueueState, now: float) -> int:
    """Record and return the flow's current RLC queue occupancy in bytes."""
    value = flow.queued_bytes
    flow.samples.append((now, value))
    return value


def prbs_for_bytes(nbytes: int, bytes_per_prb: float) -> int:
    """Whole PRBs needed to carry nbytes at the given per-PRB capacity."""
    if nbytes <= 0:
        return 0
    if bytes_per_prb <= 0:
        return 0
    return int(math.ceil(nbytes / bytes_per_prb - 1e-9))


def schedule_prbs(flow_ids: list[int], prb_total: int,
                  demands: dict[int, int] | None = None,
                  rotation: int = 0) -> dict[int, int]:
    """Equal-share PRB split with rotating remainder and demand redistribution.

    Allocations differ by at most one PRB before demand capping; PRBs a flow
    cannot fill are handed round-robin to flows that still have demand.

    Args:
        flow_ids: flows with queued data this TTI, any order
        prb_total: PRBs available in this TTI
        demands: optional cap per flow_id, in PRBs; None means unbounded
        rotation: round-robin offset, advanced by the caller across TTIs
    """
    if prb_total <= 0:
        raise ValueError("prb_total must be positive")
    if not flow_ids:
        return {}
    order = sorted(flow_ids)
    n = len(order)
    base, rem = divmod(prb_total, n)
    alloc = {fid: base for fid in order}
    for i in range(rem):
        alloc[order[(rotation + i) % n]] += 1
    if demands is None:
        return alloc
    leftover = 0
    unsatisfied: set[int] = set()
    for fid in order:
        cap = demands.get(fid)
        if cap is None:
            continue
        if alloc[fid] > cap:
            leftover += alloc[fid] - cap
            alloc[fid] = cap
        elif alloc[fid] < cap:
            unsatisfied.add(fid)
    pos = rotation % n
    stall = 0
    while leftover > 0 and unsatisfied and stall < n:
        fid = order[pos]
        pos = (pos + 1) % n
        if fid in unsatisfied:
            alloc[fid] += 1
            leftover -= 1
            stall = 0
            if alloc[fid] >= demands[fid]:
                unsatisfied.discard(fid)
        else:
            stall += 1
    return alloc


def assemble_block(flow: FlowQueueState, capacity_bytes: int
                   ) -> TransportBlock | None:
    """Pull queued segments into one transport block within capacity_bytes."""
    if capacity_bytes <= OVERHEAD_FIXED + OVERHEAD_PER_SEGMENT:
        return None
    segments: list[tuple[Packet, int]] = []
    payload = 0
    overhead = OVERHEAD_FIXED
    while flow.segments:
        head = flow.segments[0]
        room = capacity_bytes - payload - overhead - OVERHEAD_PER_SEGMENT
        if room <= 0:
            break
        take = min(head.nbytes, room)
        if take <= 0:
            break
        overhead += OVERHEAD_PER_SEGMENT
        payload += take
        segments.append((head.packet, take))
        if take == head.nbytes:
            flow.segments.popleft()
        else:
            head.nbytes -= take
        flow.queued_bytes -= take
    if payload == 0:
        return None
    return TransportBlock(
        flow_id=flow.flow_id, bytes=payload + overhead,
        overhead_bytes=overhead, segments=segments)


class FailureScript:
    """Deterministic HARQ failure injection for latency experiments.

    ``fail_attempts`` maps flow_id to a set of 1-based transmission attempt
    indices (counted per flow across all blocks) that must fail. Flows not
    listed fall back to the configured random BLER.
    """

    def __init__(self, fail_attempts: dict[int, set[int]]):
        self.fail_attempts = {k: set(v) for k, v in fail_attempts.items()}

    @classmethod
    def fail_first(cls, flow_id: int, count: int) -> "FailureScript":
        return cls({flow_id: set(range(1, count + 1))})

    def covers(self, flow_id: int) -> bool:
        return flow_id in self.fail_attempts

    def should_fail(self, flow_id: int, attempt_index: int) -> bool:
        return attempt_index in self.fail_attempts.get(flow_id, ())
