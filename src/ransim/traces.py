"""Capacity traces: per-TTI bytes/PRB schedules, CSV ingestion and synthetic shapes.

Trace CSV format (normative): a header row ``tti_index,bytes_per_prb``
followed by rows with strictly increasing integer TTI indices. Values are
step-interpolated: a row's value holds from its TTI until the next row, and
the last value extends to the end of the run.
"""
from __future__ import annotations

import csv
import math
import random


# the most one PRB carries in a TTI: 8 layers x 168 resource elements x
# 8 bits (256-QAM) x code rate 948/1024 / 8 bits per byte = 1244.25 B
MAX_BYTES_PER_PRB = 1244


class TraceError(ValueError):
    """Malformed or unusable capacity trace."""


class CapacitySchedule:
    """Step function tti_index -> bytes per PRB per full downlink TTI."""

    def __init__(self, breakpoints: tuple[tuple[int, float], ...]):
        self.breakpoints = breakpoints
        if not self.breakpoints:
            raise TraceError("capacity schedule is empty")
        last = -1
        for tti, bpp in self.breakpoints:
            if not tti > last:  # NaN fails too
                raise TraceError(f"non-monotonic tti_index {tti}")
            if not 0 <= bpp <= MAX_BYTES_PER_PRB:
                raise TraceError(f"bytes_per_prb at tti {tti} must lie in "
                                 f"[0, {MAX_BYTES_PER_PRB}], got {bpp!r}")
            last = tti
        if self.breakpoints[0][0] != 0:
            raise TraceError("schedule must start at tti_index 0")

    def materialize(self, n_ttis: int) -> list[float]:
        """Expand to a dense per-TTI list of bytes per PRB."""
        out: list[float] = []
        value = self.breakpoints[0][1]
        bi = 0
        bps = self.breakpoints
        for i in range(n_ttis):
            while bi < len(bps) and bps[bi][0] <= i:
                value = bps[bi][1]
                bi += 1
            out.append(value)
        return out


def constant_trace(bytes_per_prb: float) -> CapacitySchedule:
    return CapacitySchedule(((0, float(bytes_per_prb)),))


def step_trace(before: float, after: float, step_tti: int) -> CapacitySchedule:
    if step_tti <= 0:
        raise TraceError("step_tti must be positive")
    return CapacitySchedule(((0, float(before)), (step_tti, float(after))))


def square_trace(high: float, low: float, period_ttis: int,
                 n_periods: int = 64) -> CapacitySchedule:
    """Square wave alternating high/low every half period."""
    if period_ttis < 2:
        raise TraceError("period_ttis must be at least 2")
    half = period_ttis // 2
    points: list[tuple[int, float]] = []
    for k in range(n_periods):
        points.append((k * period_ttis, float(high)))
        points.append((k * period_ttis + half, float(low)))
    return CapacitySchedule(tuple(points))


def random_walk_trace(low: float, high: float, seed: int,
                      step_fraction: float = 0.08,
                      interval_ttis: int = 200,
                      n_steps: int = 512) -> CapacitySchedule:
    """Bounded random walk, re-drawn every ``interval_ttis`` TTIs."""
    if not 0 < low < high:
        raise TraceError("need 0 < low < high")
    if interval_ttis < 1:
        raise TraceError("interval_ttis must be at least 1")
    rng = random.Random(seed)
    value = (low + high) / 2.0
    points = []
    for k in range(n_steps):
        points.append((k * interval_ttis, value))
        value += (high - low) * step_fraction * (2.0 * rng.random() - 1.0)
        value = min(high, max(low, value))
    return CapacitySchedule(tuple(points))


def load_trace(path) -> CapacitySchedule:
    """Parse a trace CSV, validating header, ordering and values."""
    rows: list[tuple[int, float]] = []
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise TraceError(f"cannot open trace file {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceError(f"{path}: empty trace file") from None
        if [h.strip() for h in header] != ["tti_index", "bytes_per_prb"]:
            raise TraceError(
                f"{path}:1: header must be 'tti_index,bytes_per_prb'")
        last = -1
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            where = f"{path}:{reader.line_num}"
            if len(row) != 2:
                raise TraceError(f"{where}: expected 2 columns")
            try:
                tti = int(row[0])
                bpp = float(row[1])
            except ValueError as exc:
                raise TraceError(f"{where}: {exc}") from exc
            if not math.isfinite(bpp):
                raise TraceError(f"{where}: bytes_per_prb must be "
                                 f"finite, got {row[1].strip()!r}")
            if tti <= last:
                raise TraceError(f"{where}: tti_index {tti} out of order")
            last = tti
            rows.append((tti, bpp))
    if not rows:
        raise TraceError(f"{path}: trace has no data rows")
    if rows[0][0] != 0:
        rows.insert(0, (0, rows[0][1]))
    try:
        return CapacitySchedule(tuple(rows))
    except TraceError as exc:
        raise TraceError(f"{path}: {exc}") from exc
