"""Run metrics: frame delays, tail percentiles, bitrate and fairness."""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from .eventlog import EventRecord
from .sender import VideoFrame

WARMUP_EXCLUDE_MS = 2000.0


def frame_delay(frame: VideoFrame) -> float:
    """Encode-to-decode latency in ms; the frame must be fully delivered."""
    if frame.decode_ts is None:
        raise ValueError(f"frame {frame.frame_id} was never delivered")
    return frame.decode_ts - frame.encode_ts


def nearest_rank_percentile(values, pct: float) -> float:
    """Nearest-rank percentile on the full series (no interpolation)."""
    if not values:
        raise ValueError("empty series")
    if not 0 < pct <= 100:
        raise ValueError("pct must lie in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(0, rank - 1)]


def jain_index(values) -> float:
    """(sum x)^2 / (n * sum x^2); an all-zero list counts as perfectly fair."""
    vals = list(values)
    if not vals:
        raise ValueError("empty list")
    if any(v < 0 for v in vals):
        raise ValueError("values must be nonnegative")
    total = sum(vals)
    sum_sq = sum(v * v for v in vals)
    if total == 0 or sum_sq == 0:  # all-zero, or squares underflowed
        return 1.0
    return total * total / (len(vals) * sum_sq)


@dataclass(frozen=True)
class FlowMetrics:
    flow_id: int
    frames: int
    undelivered: int
    avg_delay_ms: float
    p95_ms: float
    p999_ms: float
    avg_mbps: float
    delays_ms: tuple[float, ...] = field(repr=False, default=())


@dataclass(frozen=True)
class RunMetrics:
    flows: dict[int, FlowMetrics]
    jain: float
    duration_ms: float
    warmup_ms: float

    def flow(self, flow_id: int) -> FlowMetrics:
        return self.flows[flow_id]


def compute_metrics(frames_by_flow: dict[int, list[VideoFrame]],
                    duration_ms: float,
                    warmup_ms: float = WARMUP_EXCLUDE_MS) -> RunMetrics:
    """Aggregate per-flow frame records into run metrics.

    Frames encoded during the warm-up window are excluded; frames never
    delivered by run end are excluded from delays and counted separately.
    """
    flows: dict[int, FlowMetrics] = {}
    span_ms = max(duration_ms - warmup_ms, 1e-9)
    for flow_id, frames in sorted(frames_by_flow.items()):
        delays: list[float] = []
        bits = 0.0
        undelivered = 0
        for fr in frames:
            if fr.encode_ts < warmup_ms:
                continue
            if fr.decode_ts is None:
                undelivered += 1
                continue
            delays.append(frame_delay(fr))
            bits += fr.nbytes * 8.0
        if delays:
            avg = sum(delays) / len(delays)
            p95 = nearest_rank_percentile(delays, 95.0)
            p999 = nearest_rank_percentile(delays, 99.9)
        else:
            avg = p95 = p999 = float("nan")
        flows[flow_id] = FlowMetrics(
            flow_id=flow_id, frames=len(delays), undelivered=undelivered,
            avg_delay_ms=avg, p95_ms=p95, p999_ms=p999,
            avg_mbps=bits / (span_ms / 1000.0) / 1e6,
            delays_ms=tuple(delays))
    rates = [m.avg_mbps for m in flows.values()]
    fairness = jain_index(rates) if rates else 1.0
    return RunMetrics(flows=flows, jain=fairness, duration_ms=duration_ms,
                      warmup_ms=warmup_ms)


def metrics_from_event_records(records: Iterable[EventRecord],
                               warmup_ms: float = WARMUP_EXCLUDE_MS
                               ) -> RunMetrics:
    """Recompute RunMetrics purely from a persisted event log, reading the
    records once, so a generator such as parse_event_log works.

    Raises ValueError when no run_info record gives the run's duration, as
    in the partial log of a run that failed.
    """
    frames: dict[tuple[int, int], VideoFrame] = {}
    duration_ms = None
    for rec in records:
        if rec.event == "frame_encode":
            fid = int(_detail_field(rec.detail, "frame"))
            frames[(rec.flow_id, fid)] = VideoFrame(
                frame_id=fid, encode_ts=rec.time_ms, nbytes=rec.nbytes,
                target_bps=float(_detail_field(rec.detail, "target")),
                actual_bps=float(_detail_field(rec.detail, "actual")))
        elif rec.event == "frame_done":
            fid = int(_detail_field(rec.detail, "frame"))
            key = (rec.flow_id, fid)
            if key in frames:
                frames[key].decode_ts = rec.time_ms
        elif rec.event == "run_info":
            duration_ms = float(_detail_field(rec.detail, "duration_ms"))
    if duration_ms is None:
        raise ValueError("no run_info record: the run did not finish")
    by_flow: dict[int, list[VideoFrame]] = {}
    for (flow_id, _), frame in sorted(frames.items()):
        by_flow.setdefault(flow_id, []).append(frame)
    return compute_metrics(by_flow, duration_ms, warmup_ms)


def _detail_field(detail: str, key: str) -> str:
    for part in detail.split(";"):
        k, _, v = part.partition("=")
        if k == key:
            return v
    raise ValueError(f"{key!r} not in detail {detail!r}")
