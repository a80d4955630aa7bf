"""Comparator controllers sharing the sender and feedback plumbing."""
from __future__ import annotations

from dataclasses import dataclass

from .codec import GuidanceFeedback, decode_rate, encode_rate
from .sender import BaseSender

SCONE_DRAIN_TIME_MS = 16.6


@dataclass(frozen=True)
class SconeFeedback:
    """Capacity plus queue occupancy, drained over a fixed frame interval."""

    capacity: float                      # bytes/ms
    queue_len: float                     # bytes

    def __post_init__(self):
        if self.capacity < 0 or self.queue_len < 0:
            raise ValueError("capacity and queue_len must be nonnegative")


def scone_target_rate(fb: SconeFeedback) -> float:
    """Capacity minus the rate needed to drain the queue, floored at zero."""
    return max(0.0, fb.capacity - fb.queue_len / SCONE_DRAIN_TIME_MS)


def encode_scone(fb: SconeFeedback) -> bytes:
    """Two 4-byte codec fields: capacity as a rate, queue as bit volume."""
    cap = encode_rate(fb.capacity * 8000.0)
    queue = encode_rate(fb.queue_len * 8000.0)
    return cap.to_bytes() + queue.to_bytes()


def decode_scone(raw: bytes) -> SconeFeedback:
    cap = decode_rate(GuidanceFeedback.from_bytes(raw[:4]))
    queue = decode_rate(GuidanceFeedback.from_bytes(raw[4:8]))
    return SconeFeedback(capacity=(cap or 0.0) / 8000.0,
                         queue_len=(queue or 0.0) / 8000.0)


class SconeSender(BaseSender):
    """Applies the linear drain rule to capacity/queue feedback."""

    def on_feedback(self, fb: SconeFeedback, stamp_ts: float) -> None:
        self.apply_guidance(scone_target_rate(fb) * 8000.0, stamp_ts)


class OracleSender(BaseSender):
    """Takes the simulator's ground-truth capacity, which the world applies
    as its guidance before each frame, instead of feedback."""

    def on_feedback(self, fb, stamp_ts: float) -> None:
        pass  # ACK byte counts still update the receive-rate window
