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


def encode_scone(fb: SconeFeedback, stamped_ts: float | None = None
                 ) -> bytes:
    """Two 4-byte codec fields: capacity as a rate, queue as bit volume."""
    cap = encode_rate(fb.capacity * 8000.0, stamped_ts)
    queue = encode_rate(fb.queue_len * 8000.0, stamped_ts)
    return cap.to_bytes() + queue.to_bytes()


def decode_scone(raw: bytes, stamped_ts: float | None = None) -> SconeFeedback:
    cap = decode_rate(GuidanceFeedback.from_bytes(raw[:4], stamped_ts))
    queue = decode_rate(GuidanceFeedback.from_bytes(raw[4:8], stamped_ts))
    return SconeFeedback(capacity=(cap or 0.0) / 8000.0,
                         queue_len=(queue or 0.0) / 8000.0)


class SconeSender(BaseSender):
    """Applies the linear drain rule to capacity/queue feedback."""

    def on_feedback(self, fb, now: float) -> None:
        scone_fb, stamped_ts = fb
        rate_bps = scone_target_rate(scone_fb) * 8000.0
        self.apply_guidance(rate_bps, stamped_ts)


class OracleSender(BaseSender):
    """Reads the simulator's ground-truth capacity instead of feedback."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.truth_fn = None  # set by the world at wiring time

    def guidance_bps(self, now: float) -> float | None:
        if self.truth_fn is None:
            return None
        return self.truth_fn(now) * 8000.0

    def on_feedback(self, fb, now: float) -> None:
        pass  # ACK byte counts still update the receive-rate window
