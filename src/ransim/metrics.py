"""Run metrics: frame delays, tail percentiles, bitrate and fairness."""
from __future__ import annotations

import math
from array import array
from collections.abc import Iterable
from typing import NamedTuple

WARMUP_EXCLUDE_MS = 2000.0

# one flow's frames as three columns indexed by frame id: encode ms, decode
# ms (NaN until the frame's last byte is delivered) and bytes
FrameColumns = tuple[array, array, array]


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


class FlowMetrics(NamedTuple):
    avg_delay_ms: float
    p95_ms: float
    p999_ms: float
    avg_mbps: float


class RunMetrics(NamedTuple):
    flows: dict[int, FlowMetrics]
    jain: float


def compute_metrics(frames_by_flow: dict[int, FrameColumns],
                    duration_ms: float,
                    warmup_ms: float = WARMUP_EXCLUDE_MS) -> RunMetrics:
    """Aggregate per-flow frame columns into run metrics.

    Frames encoded during the warm-up window are excluded, and so are
    frames never delivered by run end.
    """
    flows: dict[int, FlowMetrics] = {}
    span_ms = max(duration_ms - warmup_ms, 1e-9)
    isnan = math.isnan
    for flow_id, (encode, decode, sizes) in sorted(frames_by_flow.items()):
        delays: list[float] = []
        bits = 0.0
        for enc, dec, nbytes in zip(encode, decode, sizes):
            if enc < warmup_ms or isnan(dec):
                continue
            delays.append(dec - enc)
            bits += nbytes * 8.0
        if delays:
            avg = sum(delays) / len(delays)
            p95 = nearest_rank_percentile(delays, 95.0)
            p999 = nearest_rank_percentile(delays, 99.9)
        else:
            avg = p95 = p999 = float("nan")
        flows[flow_id] = FlowMetrics(avg, p95, p999,
                                     bits / (span_ms / 1000.0) / 1e6)
    rates = [m.avg_mbps for m in flows.values()]
    return RunMetrics(flows, jain_index(rates) if rates else 1.0)


def metrics_from_event_records(records: Iterable[tuple],
                               warmup_ms: float = WARMUP_EXCLUDE_MS
                               ) -> RunMetrics:
    """Recompute RunMetrics purely from a persisted event log, reading the
    records once, so a generator such as parse_event_log works.

    A flow's frame_encode records fill its frame columns in frame-id order,
    as the world logs them; a frame_done without its frame_encode is
    ignored. Raises ValueError for a frame encoded out of order, and when
    no run_info record gives the run's duration, as in the partial log of a
    run that failed.
    """
    by_flow: dict[int, FrameColumns] = {}
    duration_ms = None
    for time_ms, event, flow_id, nbytes, detail in records:
        if event == "frame_encode":
            cols = by_flow.get(flow_id)
            if cols is None:
                cols = by_flow[flow_id] = (array("d"), array("d"), array("q"))
            encode, decode, sizes = cols
            fid = _frame_id(detail)
            if fid != len(encode):
                raise ValueError(f"flow {flow_id}: frame {fid} encoded "
                                 f"as its frame {len(encode)}")
            encode.append(time_ms)
            decode.append(math.nan)
            sizes.append(nbytes)
        elif event == "frame_done":
            fid = _frame_id(detail)
            cols = by_flow.get(flow_id)
            if cols is not None and 0 <= fid < len(cols[1]):
                cols[1][fid] = time_ms
        elif event == "run_info":
            duration_ms = float(_detail_field(detail, "duration_ms"))
    if duration_ms is None:
        raise ValueError("no run_info record: the run did not finish")
    return compute_metrics(by_flow, duration_ms, warmup_ms)


def _frame_id(detail: str) -> int:
    # the world writes frame= first, which spares splitting the whole detail
    if detail.startswith("frame="):
        return int(detail.split(";", 1)[0][6:])
    return int(_detail_field(detail, "frame"))


def _detail_field(detail: str, key: str) -> str:
    for part in detail.split(";"):
        k, _, v = part.partition("=")
        if k == key:
            return v
    raise ValueError(f"{key!r} not in detail {detail!r}")
