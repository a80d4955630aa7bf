"""Sender-side rate control: fixed-cadence video source, bitrate smoothing,
guidance consumption and pacing.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from .codec import GuidanceFeedback, decode_rate

FRAME_INTERVAL_MS = 16.6        # 60 fps source cadence
RHO_DEFAULT = 1.25              # pacing headroom over the target bitrate
INITIAL_BITRATE_BPS = 5e6       # conservative start before any guidance
MTU_PAYLOAD = 1400              # bytes of payload per paced packet
MIN_PACING_BPS = 6e6            # keeps in-frame packet spacing well under the
                                # base station's frame-gap threshold
RECV_BUCKET_MS = 100.0
RECV_WINDOW_MS = 1000.0
RAMP_GAP_FRACTION = 1.0 / 3.0   # slow-encoder convergence per frame
ENCODER_MODES = ("instant", "ramp")


def target_bitrate(guidance_bps: float | None, hist, epsilon: int
                   ) -> float | None:
    """Smooth the guidance with the last epsilon-1 encoder bitrates.

    epsilon = 1 passes the guidance straight through. With a shorter history
    (warm-up) the mean runs over what exists. None guidance means "no
    feedback yet"; the caller holds its configured initial bitrate.
    """
    if epsilon < 1:
        raise ValueError("epsilon must be at least 1")
    if guidance_bps is None:
        return None
    take = min(epsilon - 1, len(hist))
    total = guidance_bps
    n = len(hist)
    for i in range(n - take, n):
        total += hist[i]
    return total / (take + 1)


def pacing_rate(recv_rate_max_bps: float, br_bps: float,
                rho: float = RHO_DEFAULT) -> float:
    """Packet-release rate: rho times the larger of receive rate and bitrate."""
    if rho <= 1:
        raise ValueError("rho must exceed 1")
    return rho * max(recv_rate_max_bps, br_bps)


@dataclass(slots=True)
class VideoFrame:
    """One encoded frame as encode_frame returns it; the world keeps only
    its encode time and size, in the flow's frame columns."""

    frame_id: int
    encode_ts: float
    nbytes: int
    target_bps: float
    actual_bps: float


class ReceiveRateWindow:
    """Sliding max of per-100ms ACKed-byte rates over the last second."""

    def __init__(self, bucket_ms: float = RECV_BUCKET_MS,
                 window_ms: float = RECV_WINDOW_MS):
        self.bucket_ms = bucket_ms
        self.window_ms = window_ms
        self._buckets: deque[list[float]] = deque()  # [bucket_index, bytes]

    def add(self, ts: float, nbytes: int) -> None:
        idx = math.floor(ts / self.bucket_ms)
        if self._buckets and self._buckets[-1][0] == idx:
            self._buckets[-1][1] += nbytes
        else:
            self._buckets.append([idx, float(nbytes)])
        cutoff = idx - int(self.window_ms / self.bucket_ms) - 1
        while self._buckets and self._buckets[0][0] < cutoff:
            self._buckets.popleft()

    def max_rate_bps(self, now: float) -> float:
        """Max over complete buckets whose span lies within the last window."""
        now_idx = math.floor(now / self.bucket_ms)
        lo = now_idx - int(self.window_ms / self.bucket_ms)
        # the rate is monotone in the byte count, so convert only the max
        best = 0.0
        for idx, nbytes in self._buckets:
            if lo <= idx < now_idx and nbytes > best:
                best = nbytes
        return best * 8.0 / (self.bucket_ms / 1000.0)


@dataclass
class SenderState:
    """Mutable rate-control state of one sender."""

    epsilon: int = 1
    encoder_mode: str = "instant"        # "instant" | "ramp"
    initial_bps: float = INITIAL_BITRATE_BPS
    bitrate_hist: deque = field(init=False)  # the last epsilon-1 bitrates
    recv_window: ReceiveRateWindow = field(default_factory=ReceiveRateWindow)
    last_guidance_bps: float | None = None
    last_guidance_ts: float = -math.inf
    actual_bps: float | None = None      # encoder's current operating point

    def __post_init__(self):
        self.bitrate_hist = deque(maxlen=self.epsilon - 1)


class BaseSender:
    """Frame-tick driven sender shared by all controllers.

    Subclasses define how feedback bytes turn into a guidance bitrate.
    """

    def __init__(self, epsilon: int = 1, encoder_mode: str = "instant",
                 initial_bps: float = INITIAL_BITRATE_BPS):
        if encoder_mode not in ENCODER_MODES:
            raise ValueError(f"unknown encoder mode {encoder_mode!r}")
        self.state = SenderState(epsilon=epsilon, encoder_mode=encoder_mode,
                                 initial_bps=initial_bps)
        self.frame_seq = 0
        self.last_pacing_bps = 0.0

    # -- feedback path ----------------------------------------------------

    def guidance_bps(self, now: float) -> float | None:
        return self.state.last_guidance_bps

    def apply_guidance(self, rate_bps: float | None, stamp_ts: float) -> None:
        """Latest stamp wins; stale or duplicate feedback is ignored."""
        st = self.state
        if stamp_ts <= st.last_guidance_ts:
            return
        if rate_bps is None:
            return  # invalid feedback: hold the previous value
        st.last_guidance_bps = rate_bps
        st.last_guidance_ts = stamp_ts

    def on_ack_bytes(self, arrive_ts: float, acked_bytes: int) -> None:
        self.state.recv_window.add(arrive_ts, acked_bytes)

    def on_feedback(self, fb, stamp_ts: float) -> None:
        """Consume one decoded feedback record stamped at stamp_ts."""
        raise NotImplementedError

    # -- frame generation --------------------------------------------------

    def encode_frame(self, now: float) -> VideoFrame:
        """Emit the frame for this tick at the smoothed target bitrate."""
        st = self.state
        target = target_bitrate(self.guidance_bps(now), st.bitrate_hist,
                                st.epsilon)
        if target is None:
            target = st.initial_bps
        if st.encoder_mode == "instant" or st.actual_bps is None:
            actual = target
        else:
            actual = st.actual_bps + (target - st.actual_bps) * RAMP_GAP_FRACTION
        st.actual_bps = actual
        st.bitrate_hist.append(actual)
        nbytes = max(1, round(actual * FRAME_INTERVAL_MS / 8000.0))
        self.last_pacing_bps = max(
            pacing_rate(st.recv_window.max_rate_bps(now), target),
            MIN_PACING_BPS)
        frame = VideoFrame(self.frame_seq, now, nbytes, target, actual)
        self.frame_seq += 1
        return frame

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
