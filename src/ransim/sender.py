"""Sender-side rate control: fixed-cadence video source, bitrate smoothing,
guidance consumption and pacing.
"""
from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple

from .codec import GuidanceFeedback, decode_rate

FRAME_INTERVAL_MS = 16.6        # 60 fps source cadence
RHO = 1.25                      # pacing headroom over the target bitrate
MTU_PAYLOAD = 1400              # bytes of payload per paced packet
MIN_PACING_BPS = 6e6            # keeps in-frame packet spacing well under the
                                # base station's frame-gap threshold
RECV_BUCKET_MS = 100.0
RECV_WINDOW_MS = 1000.0
RAMP_GAP_FRACTION = 1.0 / 3.0   # slow-encoder convergence per frame
ENCODER_MODES = ("instant", "ramp")


def target_bitrate(guidance: float | None, hist) -> float | None:
    """Smooth the guidance with the encoder bitrates in hist, the sender's
    last epsilon-1 of them: their mean, the guidance first.

    An empty hist (epsilon = 1) passes the guidance straight through; during
    warm-up the mean runs over what exists. None guidance means "no
    feedback yet"; the caller holds its configured initial bitrate.
    """
    if guidance is None:
        return None
    total = guidance
    for bps in hist:
        total += bps
    return total / (len(hist) + 1)


def pacing_rate(recv_rate_max_bps: float, br_bps: float) -> float:
    """Packet-release rate: RHO times the larger of receive rate and bitrate."""
    return RHO * max(recv_rate_max_bps, br_bps)


class VideoFrame(NamedTuple):
    """One encoded frame as encode_frame returns it; the world keeps only
    its encode time and size, in the flow's frame columns."""

    encode_ts: float
    nbytes: int
    target_bps: float
    actual_bps: float


class ReceiveRateWindow:
    """Sliding max of per-100ms ACKed-byte rates over the last second."""

    def __init__(self):
        self._buckets: deque[list[float]] = deque()  # [bucket_index, bytes]

    def add(self, ts: float, nbytes: int) -> None:
        idx = math.floor(ts / RECV_BUCKET_MS)
        if self._buckets and self._buckets[-1][0] == idx:
            self._buckets[-1][1] += nbytes
        else:
            self._buckets.append([idx, float(nbytes)])
        cutoff = idx - int(RECV_WINDOW_MS / RECV_BUCKET_MS) - 1
        while self._buckets and self._buckets[0][0] < cutoff:
            self._buckets.popleft()

    def max_rate_bps(self, now: float) -> float:
        """Max over complete buckets whose span lies within the last window."""
        now_idx = math.floor(now / RECV_BUCKET_MS)
        lo = now_idx - int(RECV_WINDOW_MS / RECV_BUCKET_MS)
        # the rate is monotone in the byte count, so convert only the max
        best = 0.0
        for idx, nbytes in self._buckets:
            if lo <= idx < now_idx and nbytes > best:
                best = nbytes
        return best * 8.0 / (RECV_BUCKET_MS / 1000.0)


class BaseSender:
    """Frame-tick driven sender shared by all controllers; its parameters
    come from the flow's FlowConfig, which checks and defaults them.

    Subclasses define how feedback bytes turn into a guidance bitrate.
    """

    def __init__(self, epsilon: int, encoder: str, initial_bps: float):
        self.encoder = encoder               # one of ENCODER_MODES
        self.initial_bps = initial_bps
        self.bitrate_hist = deque(maxlen=epsilon - 1)  # the last epsilon-1
        self.recv_window = ReceiveRateWindow()
        self.last_guidance_bps: float | None = None
        self.last_guidance_ts = -math.inf
        self.actual_bps: float | None = None  # encoder's operating point
        self.last_pacing_bps = 0.0

    # -- feedback path ----------------------------------------------------

    def apply_guidance(self, rate_bps: float | None, stamp_ts: float) -> None:
        """Latest stamp wins; stale or duplicate feedback is ignored."""
        if stamp_ts <= self.last_guidance_ts:
            return
        if rate_bps is None:
            return  # invalid feedback: hold the previous value
        self.last_guidance_bps = rate_bps
        self.last_guidance_ts = stamp_ts

    def on_ack_bytes(self, arrive_ts: float, acked_bytes: int) -> None:
        self.recv_window.add(arrive_ts, acked_bytes)

    def on_feedback(self, fb, stamp_ts: float) -> None:
        """Consume one decoded feedback record stamped at stamp_ts."""
        raise NotImplementedError

    # -- frame generation --------------------------------------------------

    def encode_frame(self, now: float) -> VideoFrame:
        """Emit the frame for this tick at the smoothed target bitrate."""
        target = target_bitrate(self.last_guidance_bps, self.bitrate_hist)
        if target is None:
            target = self.initial_bps
        last = self.actual_bps
        if self.encoder == "instant" or last is None:
            actual = target
        else:
            actual = last + (target - last) * RAMP_GAP_FRACTION
        self.actual_bps = actual
        self.bitrate_hist.append(actual)
        nbytes = max(1, round(actual * FRAME_INTERVAL_MS / 8000.0))
        self.last_pacing_bps = max(
            pacing_rate(self.recv_window.max_rate_bps(now), target),
            MIN_PACING_BPS)
        return VideoFrame(now, nbytes, target, actual)

    def packet_release_offsets(self, nbytes: int) -> list[tuple[int, float]]:
        """(payload_bytes, release offset ms) per packet at the pacing rate."""
        spacing_ms = MTU_PAYLOAD * 8.0 / self.last_pacing_bps * 1000.0
        packets: list[tuple[int, float]] = []
        full, tail = divmod(nbytes, MTU_PAYLOAD)
        for i in range(full):
            packets.append((MTU_PAYLOAD, i * spacing_ms))
        if tail:
            packets.append((tail, full * spacing_ms))
        return packets


class ChoirSender(BaseSender):
    """Consumes base-station guidance carried as codec-encoded ACK options."""

    def on_feedback(self, fb: GuidanceFeedback, stamp_ts: float) -> None:
        self.apply_guidance(decode_rate(fb), stamp_ts)
