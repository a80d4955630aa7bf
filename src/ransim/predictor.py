"""Queue-length prediction and guidance bandwidth for one downlink flow.

From enqueue timestamps alone the base station learns the flow's frame
cadence, predicts how many in-flight frames will land before a rate change
can take effect, nets that against the expected drain, and feeds back the
rate that empties the queue within one frame interval while using 95% of the
allocated bandwidth.
"""
from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple

from .sender import FRAME_INTERVAL_MS

ETA = 0.95                   # fraction of allocated bandwidth handed out
FI_ALPHA = 0.8               # EWMA weight on the previous frame-interval estimate
ERR_WEIGHT = 0.5             # EWMA weight for the feedback error correction
GAP_THRESHOLD_MS = 2.5       # inter-packet gap that separates frames; paced
                             # release at RHO=1.25 leaves only ~0.2*FI of idle
                             # gap between frames, so the threshold must sit
                             # between that and the in-frame packet spacing
HISTORY_CAPACITY = 256
# entries kept of each per-TTI history a prediction reads, the bandwidth
# ring and the queue samples: a read spans round(fi / tti_ms) TTIs, 33 at
# the 16.6 ms frame interval, and 512 covers fi up to 256 ms at 0.5 ms TTIs
HISTORY_TTIS = 512


def detect_frame_boundary(prev_pkt_ts: float, pkt_ts: float) -> bool:
    """True when the inter-packet gap strictly exceeds GAP_THRESHOLD_MS."""
    return pkt_ts - prev_pkt_ts > GAP_THRESHOLD_MS


def update_frame_interval(fi_est: float | None, new_fi: float
                          ) -> float | None:
    """EWMA update of the frame-interval estimate; rejects new_fi <= 0."""
    if new_fi <= 0:
        return fi_est
    if fi_est is None:
        return new_fi
    return FI_ALPHA * fi_est + (1.0 - FI_ALPHA) * new_fi


def mean_alloc_bw(bw_samples, n_tti: int) -> float:
    """Mean of the last n_tti per-TTI bandwidth samples (fewer during warm-up)."""
    if n_tti < 1:
        raise ValueError("n_tti must be at least 1")
    n = len(bw_samples)
    if n == 0:
        return 0.0
    take = min(n_tti, n)
    total = 0.0
    for i in range(n - take, n):
        total += bw_samples[i]
    return total / take


def inflight_frame_count(wired_nd: float, fi: float) -> int:
    """Frames in flight plus the one generated before feedback lands."""
    if fi <= 0:
        raise ValueError("frame interval must be positive")
    return int(math.floor(2.0 * wired_nd / fi)) + 1


def decision_horizon(tti_len: float, fi: float, fnum: int) -> float:
    """Time until a newly guided frame can reach the base station, ms."""
    return tti_len + fi * fnum


def min_rlc_queue(samples, window: float, now: float) -> float:
    """Minimum queue sample in (now - window, now]; 0 when none fall inside."""
    lo = now - window
    best = None
    for ts, value in reversed(samples):
        if ts <= lo:
            break
        if ts <= now and (best is None or value < best):
            best = value
    return 0.0 if best is None else best


def predict_queue(hist, err: float, fi: float, rlc_q_min: float,
                  mean_bw: float, t_horizon: float) -> float:
    """Queue length expected once current guidance takes effect, clamped >= 0.

    hist carries one governing feedback rate per in-flight frame; each frame
    contributes a frame interval's worth of bytes at its corrected rate,
    while the allocated bandwidth drains over the whole decision horizon.
    """
    if fi <= 0:
        raise ValueError("frame interval must be positive")
    enqueued = sum(h - err for h in hist) * fi
    return max(0.0, enqueued + rlc_q_min - mean_bw * t_horizon)


def update_error_correction(err_est: float, hist_entry: float,
                            actual_arrival_rate: float) -> float:
    """EWMA of guidance-vs-arrival discrepancy, applied to later predictions."""
    return ((1.0 - ERR_WEIGHT) * err_est
            + ERR_WEIGHT * (hist_entry - actual_arrival_rate))


def guidance_bw(mean_bw: float, drain_rate: float) -> float:
    """Feedback rate: ETA of the allocated bandwidth minus the drain need.

    Clamped at zero: when draining the queue needs more than the allocation,
    the sender is told to stop.
    """
    return max(0.0, ETA * mean_bw - drain_rate)


class FramePatternState:
    """Frame cadence learned from enqueue timestamps."""

    def __init__(self):
        self.fi_est: float | None = None
        self.last_pkt_ts: float | None = None
        self.frame_head_ts: float | None = None
        self.frame_bytes = 0.0


class FeedbackHistory:
    """Ring of stamped guidance values plus the error-correction state."""

    def __init__(self):
        self.err_est = 0.0
        self.entries: deque[tuple[float, float]] = deque(
            maxlen=HISTORY_CAPACITY)

    def record(self, ts: float, bw: float) -> None:
        if self.entries and ts <= self.entries[-1][0]:
            return  # keep timestamps strictly increasing
        self.entries.append((ts, bw))

    def latest_at_or_before(self, ts: float) -> tuple[float, float] | None:
        for entry in reversed(self.entries):
            if entry[0] <= ts:
                return entry
        return None

    def select(self, now: float, fi: float, fnum: int, wired_nd: float
               ) -> list[float]:
        """Governing feedback rate for each of the fnum in-flight frames.

        Frame k was encoded under the latest entry stamped at or before
        now - fi * (k - 1) - 2 * wired_nd. Frames with no such entry are
        skipped.
        """
        rates: list[float] = []
        for k in range(1, fnum + 1):
            entry = self.latest_at_or_before(
                now - fi * (k - 1) - 2.0 * wired_nd)
            if entry is not None:
                rates.append(entry[1])
        return rates


class QueuePrediction(NamedTuple):
    """Prediction made at time ts, as read by ACK stamping and the event log."""

    ts: float
    fi: float
    mean_bw: float
    pred_q: float
    guidance: float


class FlowPredictor:
    """Per-flow prediction state machine driven by the TTI loop; it reads
    bw_ring, which the flow's ``FlowEstimator`` fills once per TTI."""

    def __init__(self, tti_ms: float, wired_nd: float,
                 bw_ring: deque[float]):
        self.tti_ms = tti_ms
        self.wired_nd = wired_nd
        self.pattern = FramePatternState()
        self.history = FeedbackHistory()
        self.bw_ring = bw_ring
        self.last_prediction: QueuePrediction | None = None

    def on_enqueue(self, ts: float, nbytes: int) -> None:
        """Feed one wire arrival into frame detection and error correction."""
        p = self.pattern
        if p.last_pkt_ts is None:
            p.frame_head_ts = ts
            p.frame_bytes = float(nbytes)
        elif detect_frame_boundary(p.last_pkt_ts, ts):
            fi_n = ts - p.frame_head_ts
            if fi_n > 0 and p.frame_bytes > 0:
                self._note_completed_frame(p.frame_head_ts, fi_n, p.frame_bytes)
            p.fi_est = update_frame_interval(p.fi_est, fi_n)
            p.frame_head_ts = ts
            p.frame_bytes = float(nbytes)
        else:
            p.frame_bytes += nbytes
        p.last_pkt_ts = ts

    def _note_completed_frame(self, head_ts: float, fi_n: float,
                              frame_bytes: float) -> None:
        # Pair the finished frame with the feedback the sender was acting on
        # when it was encoded: stamped roughly one wired round trip earlier.
        entry = self.history.latest_at_or_before(
            head_ts - 2.0 * self.wired_nd)
        if entry is None:
            return
        actual_rate = frame_bytes / fi_n
        self.history.err_est = update_error_correction(
            self.history.err_est, entry[1], actual_rate)

    def compute(self, now: float, queue_samples) -> QueuePrediction:
        """Recompute the guidance at now from current windows."""
        fi_est = self.pattern.fi_est
        fi = fi_est if fi_est else FRAME_INTERVAL_MS  # until one is seen
        n_tti = max(1, round(fi / self.tti_ms))
        mean_bw = mean_alloc_bw(self.bw_ring, n_tti)
        rlc_q_min = min_rlc_queue(queue_samples, fi, now)
        fnum = inflight_frame_count(self.wired_nd, fi)
        t_horizon = decision_horizon(self.tti_ms, fi, fnum)
        # until the cadence is learned only the queue itself is drained
        hist = (self.history.select(now, fi, fnum, self.wired_nd)
                if fi_est else [])
        pred_q = predict_queue(hist, self.history.err_est, fi, rlc_q_min,
                               mean_bw, t_horizon) if hist else rlc_q_min
        guidance = guidance_bw(mean_bw, pred_q / fi)
        pred = QueuePrediction(ts=now, fi=fi, mean_bw=mean_bw, pred_q=pred_q,
                               guidance=guidance)
        self.last_prediction = pred
        return pred

    def record_stamp(self, ts: float, guidance: float) -> None:
        """Remember a guidance value actually placed on an uplink ACK."""
        self.history.record(ts, guidance)
