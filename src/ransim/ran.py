"""RAN downlink primitives: configuration, per-flow queues, PRB scheduling,
transport blocks and HARQ retry state.
"""
from __future__ import annotations

import math
from collections import deque

from .tdd import TddPattern
from .traces import CapacitySchedule, constant_trace

# MAC/RLC framing cost per transport block: a fixed header plus a small
# per-segment header. Keeps the measured payload fraction near 0.97+ for
# realistically sized grants.
OVERHEAD_FIXED = 8
OVERHEAD_PER_SEGMENT = 5

RLC_SAMPLE_RING = 512
MAX_PRB_TOTAL = 273  # NR's most PRBs per carrier: 100 MHz at 30 kHz SCS


class RanConfig:
    """Static downlink parameters of one simulated cell."""

    def __init__(self, prb_total: int = 100, tti_ms: float = 0.5,
                 tdd_pattern: TddPattern | str = "DDDSU", bler: float = 0.0,
                 harq_rtx_delay_ms: float = 5.5, harq_max_rtx: int = 3,
                 schedule: CapacitySchedule | None = None):
        self.prb_total = prb_total
        self.tti_ms = tti_ms
        self.tdd_pattern = tdd_pattern
        self.bler = bler
        self.harq_rtx_delay_ms = harq_rtx_delay_ms
        self.harq_max_rtx = harq_max_rtx
        self.schedule = constant_trace(30.0) if schedule is None else schedule
        if isinstance(self.tdd_pattern, str):
            self.tdd_pattern = TddPattern.parse(self.tdd_pattern)
        elif not isinstance(self.tdd_pattern, TddPattern):
            raise ValueError(f"tdd_pattern must be a string such as "
                             f"'DDDSU', got {self.tdd_pattern!r}")
        if not 0 < self.prb_total <= MAX_PRB_TOTAL:
            raise ValueError(f"prb_total must lie in [1, {MAX_PRB_TOTAL}]")
        if self.tti_ms not in (0.5, 1.0):
            raise ValueError("tti_ms must be 0.5 or 1.0")
        if not 0.0 <= self.bler < 1.0:
            raise ValueError("bler must lie in [0, 1)")
        if not 0 < self.harq_rtx_delay_ms < math.inf:  # NaN fails too
            raise ValueError("harq_rtx_delay_ms must be positive and finite")
        if not self.harq_max_rtx >= 0:
            raise ValueError("harq_max_rtx must be nonnegative")


class TransportBlock:
    """One MAC-layer block: (frame_id, nbytes) segments plus framing overhead."""

    __slots__ = ("bytes", "overhead_bytes", "segments", "rtx_count",
                 "ready_ms")

    def __init__(self, bytes: int, overhead_bytes: int,
                 segments: list[tuple[int, int]]):
        self.bytes = bytes
        self.overhead_bytes = overhead_bytes
        self.segments = segments
        self.rtx_count = 0
        self.ready_ms = 0.0  # earliest retransmission time while HARQ-pending

    @property
    def payload_bytes(self) -> int:
        return self.bytes - self.overhead_bytes


class FlowQueueState:
    """Base-station side of one flow: RLC queue, usage and queue samples."""

    def __init__(self):
        self.segments: deque[tuple[int, int]] = deque()  # (frame_id, nbytes)
        self.queued_bytes = 0
        self.samples: deque[tuple[float, int]] = deque(maxlen=RLC_SAMPLE_RING)
        self.harq_pending: deque[TransportBlock] = deque()

    def enqueue(self, frame_id: int, nbytes: int) -> None:
        self.segments.append((frame_id, nbytes))
        self.queued_bytes += nbytes

    def requeue_tail(self, block: TransportBlock) -> None:
        """RLC AM: a block that exhausted HARQ re-enters the queue tail."""
        for frame_id, nbytes in block.segments:
            self.enqueue(frame_id, nbytes)


def sample_rlc_queue(flow: FlowQueueState, now: float) -> int:
    """Record and return the flow's current RLC queue occupancy in bytes."""
    value = flow.queued_bytes
    flow.samples.append((now, value))
    return value


def schedule_prbs(demands: list[int], prb_total: int,
                  rotation: int = 0) -> list[int]:
    """Equal-share PRB split with rotating remainder and demand redistribution.

    Shares differ by at most one PRB before demand capping; PRBs a flow
    cannot fill are handed round-robin to flows that still have demand.

    Args:
        demands: PRBs each flow with data can fill, in flow-id order
        prb_total: PRBs available in this TTI
        rotation: round-robin offset, advanced by the caller across TTIs

    Returns the grants, aligned with demands.
    """
    if prb_total <= 0:
        raise ValueError("prb_total must be positive")
    n = len(demands)
    if not n:
        return []
    base, rem = divmod(prb_total, n)
    alloc = [base] * n
    for i in range(rem):
        alloc[(rotation + i) % n] += 1
    leftover = 0
    for i, cap in enumerate(demands):
        if alloc[i] > cap:
            leftover += alloc[i] - cap
            alloc[i] = cap
    # a full lap without a grant means every demand is met
    pos = rotation % n
    stall = 0
    while leftover > 0 and stall < n:
        if alloc[pos] < demands[pos]:
            alloc[pos] += 1
            leftover -= 1
            stall = 0
        else:
            stall += 1
        pos = (pos + 1) % n
    return alloc


def assemble_block(flow: FlowQueueState, capacity_bytes: int
                   ) -> TransportBlock | None:
    """Pull queued segments into one transport block within capacity_bytes."""
    queue = flow.segments
    segments: list[tuple[int, int]] = []
    payload = 0
    # payload bytes the next segment may carry after its own header
    room = capacity_bytes - OVERHEAD_FIXED - OVERHEAD_PER_SEGMENT
    while queue and room > 0:
        frame_id, take = queue[0]
        if take > room:
            queue[0] = (frame_id, take - room)
            take = room
        elif take > 0:
            queue.popleft()
        else:
            break
        payload += take
        segments.append((frame_id, take))
        room -= take + OVERHEAD_PER_SEGMENT
    if payload == 0:
        return None
    flow.queued_bytes -= payload
    overhead = OVERHEAD_FIXED + OVERHEAD_PER_SEGMENT * len(segments)
    return TransportBlock(payload + overhead, overhead, segments)
