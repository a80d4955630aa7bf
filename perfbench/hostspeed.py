"""Host speed, measured with a fixed reference workload.

The shared host this benchmark runs on changes speed by up to a factor of
two, for seconds to minutes at a time, and ransim's run and report times
rise and fall with it. Each untraced worker therefore times
``reference()`` alongside what it times (see worker.Probe), and run.py
scales every time by ``NOMINAL_REF_S`` over the reference's mean call time
in the same process: the time the work would have taken on a host where
one reference call takes ``NOMINAL_REF_S``. Over 50 ``mixed_full``
repetitions, the log of a repetition's run time correlated 0.97 with the
log of the mean reference call made during its simulation.

The reference is a fixed mix of the interpreter work ransim does: small
objects, float arithmetic, dicts, a heap, and CSV-like formatting and
parsing. It never imports ransim, so a change to ransim cannot move it.
"""
from __future__ import annotations

import gc
import heapq
import random
import time

NOMINAL_REF_S = 0.020   # about one call on this benchmark's 2-vCPU VM


class _Packet:
    __slots__ = ("flow", "size", "t", "sent")

    def __init__(self, flow: int, size: int, t: float):
        self.flow = flow
        self.size = size
        self.t = t
        self.sent = 0.0


def reference(rounds: int = 200) -> float:
    """One reference call: about 20 ms of fixed work."""
    rng = random.Random(7)
    acc = 0.0
    lines: list[str] = []
    for r in range(rounds):
        queues: dict[int, list[_Packet]] = {f: [] for f in range(8)}
        heap: list = []
        for i in range(60):
            p = _Packet(i % 8, 1000 + (i * 37) % 400, r + i * 0.001)
            queues[p.flow].append(p)
            heapq.heappush(heap, (p.t + rng.random(), i, p))
        while heap:
            t, i, p = heapq.heappop(heap)
            p.sent = t
            acc += (t - p.t) * p.size / 8.0
            if i % 4 == 0:
                lines.append(f"{t:.6f},{p.flow},{p.size},{acc:.3f}")
        for line in lines[-15:]:
            parts = line.split(",")
            acc += float(parts[0]) * 1e-6 + int(parts[2]) * 1e-9
        del lines[:-20]
    return acc


def sample(min_s: float) -> list[float]:
    """Time reference calls until min_s is spent, at least one.

    The collector is off while they run: the reference makes no cycles,
    and a collection would scan whatever heap the caller left, so the
    call time would depend on the caller.
    """
    calls: list[float] = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        while sum(calls) < min_s or not calls:
            t0 = time.perf_counter()
            reference()
            calls.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return calls


def scale(seconds: float, ref_s: float) -> float:
    """A time taken while one reference call took ref_s, at nominal speed."""
    return seconds * NOMINAL_REF_S / ref_s
