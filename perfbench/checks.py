"""Output checks computed apart from the simulator.

Each check reads the files one run wrote (``metrics.csv``, ``frames.csv``,
``events.log``) plus the scenario dict, and recomputes what it verifies with
its own code: nothing here imports ransim or compares against a stored copy
of earlier output. The model facts the checks rest on (60 fps cadence, the
TDD slot weights, the MAC framing constants, the 2 s warm-up, the synthetic
trace shapes) are restated below rather than taken from ransim.
"""
from __future__ import annotations

import math
import random

FRAME_INTERVAL_MS = 16.6
WARMUP_MS = 2000.0
SLOT_FACTOR = {"D": 1.0, "S": 0.5, "U": 0.0}
# MAC/RLC framing per transport block and payload per paced packet
OVERHEAD_FIXED = 8
OVERHEAD_PER_SEGMENT = 5
MTU_PAYLOAD = 1400

METRICS_HEADER = "flow_id,avg_delay_ms,p95_ms,p999_ms,avg_mbps,jain"
CSV_TOL = 1.5e-6        # two roundings to 6 decimals
RATE_RTOL = 1e-9        # same formula, same float operations


class RunFiles:
    """Parsed outputs of one run."""

    def __init__(self, run_dir, cfg: dict):
        self.cfg = cfg
        ran = cfg["ran"]
        self.tti_ms = float(ran.get("tti_ms", 0.5))
        self.n_ttis = int(round(float(cfg["duration_s"]) * 1000.0
                                / self.tti_ms))
        self.duration_ms = self.n_ttis * self.tti_ms
        self.metrics_text = (run_dir / "metrics.csv").read_text()
        self.metrics = {}
        for line in self.metrics_text.splitlines()[1:]:
            fid, *vals = line.split(",")
            self.metrics[int(fid)] = [float(v) for v in vals]
        # flow_id -> list of (encode_ms, decode_ms|None, delay_ms|None, bytes)
        self.frames: dict[int, list] = {}
        with open(run_dir / "frames.csv") as fh:
            fh.readline()
            for line in fh:
                fid, _, enc, dec, delay, nbytes = line.rstrip("\n").split(",")
                self.frames.setdefault(int(fid), []).append(
                    (float(enc), float(dec) if dec else None,
                     float(delay) if delay else None, int(nbytes)))
        self.events_path = run_dir / "events.log"

    def flow_cfgs(self) -> dict[int, dict]:
        return {int(f.get("flow_id", i)): f
                for i, f in enumerate(self.cfg["flows"])}

    def encoder_targets(self, flow_ids) -> dict[int, list]:
        """flow_id -> [(encode_ms, target_bps)] from frame_encode records."""
        out: dict[int, list] = {fid: [] for fid in flow_ids}
        with open(self.events_path) as fh:
            fh.readline()
            for line in fh:
                if ",frame_encode," not in line:
                    continue
                time_s, _, fid_s, _, detail = line.rstrip("\n").split(",", 4)
                fid = int(fid_s)
                if fid in out:
                    fields = dict(p.split("=", 1) for p in detail.split(";"))
                    out[fid].append((float(time_s), float(fields["target"])))
        return out


# -- model restated -----------------------------------------------------------

def capacity_trace(cfg: dict, n_ttis: int) -> list[float]:
    """Bytes per PRB for each TTI, from the scenario's synthetic trace spec."""
    spec = cfg["ran"]["trace"]
    kind = spec["kind"]
    if kind == "constant":
        return [float(spec["bytes_per_prb"])] * n_ttis
    if kind == "square":
        period = int(spec["period_ttis"])
        half = period // 2
        n_periods = int(spec.get("n_periods", 64))
        out = []
        for i in range(n_ttis):
            if i >= n_periods * period:
                i = n_periods * period - 1  # last level holds to the end
            out.append(float(spec["high"] if i % period < half
                             else spec["low"]))
        return out
    if kind == "random_walk":
        low, high = float(spec["low"]), float(spec["high"])
        rng = random.Random(int(spec.get("seed", cfg.get("seed", 0))))
        step = (high - low) * float(spec.get("step_fraction", 0.08))
        interval = int(spec.get("interval_ttis", 200))
        value = (low + high) / 2.0
        levels = []
        for _ in range(512):
            levels.append(value)
            value = min(high, max(low, value + step
                                  * (2.0 * rng.random() - 1.0)))
        return [levels[min(i // interval, len(levels) - 1)]
                for i in range(n_ttis)]
    raise ValueError(f"no restatement for trace kind {kind!r}")


def tdd_pattern(ran: dict) -> str:
    return ran.get("tdd_pattern", "DDDSU").upper()


def flow_window_ms(flow: dict) -> tuple[float, float]:
    start = float(flow.get("start_s", 0.0)) * 1000.0
    stop = flow.get("stop_s")
    return start, (math.inf if stop is None else float(stop) * 1000.0)


def tick_count(start_ms: float, end_ms: float) -> int:
    """Number of 60 fps ticks start + k * 16.6 that fall before end_ms."""
    k = 0
    while start_ms + k * FRAME_INTERVAL_MS < end_ms:
        k += 1
    return k


def nearest_rank(ordered: list[float], pct: float) -> float:
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(0, rank - 1)]


# -- checks -------------------------------------------------------------------

def check_metrics_recomputed(run: RunFiles) -> str | None:
    """Per-flow mean, p95, p99.9 and goodput plus Jain, from frames.csv."""
    span_s = (run.duration_ms - WARMUP_MS) / 1000.0
    mine: dict[int, list[float]] = {}
    for fid, frames in sorted(run.frames.items()):
        delays = sorted(d for enc, dec, d, _ in frames
                        if enc >= WARMUP_MS and dec is not None)
        bits = sum(8 * b for enc, dec, _, b in frames
                   if enc >= WARMUP_MS and dec is not None)
        if delays:
            mine[fid] = [sum(delays) / len(delays), nearest_rank(delays, 95.0),
                         nearest_rank(delays, 99.9), bits / span_s / 1e6]
        else:  # a flow gone before the warm-up ends
            mine[fid] = [math.nan, math.nan, math.nan, 0.0]
    rates = [m[3] for m in mine.values()]
    jain = sum(rates) ** 2 / (len(rates) * sum(r * r for r in rates))
    if sorted(mine) != sorted(run.metrics):
        return f"flows {sorted(mine)} != metrics.csv {sorted(run.metrics)}"
    for fid, vals in mine.items():
        for name, a, b in zip(("avg", "p95", "p999", "mbps", "jain"),
                              vals + [jain], run.metrics[fid]):
            if not (abs(a - b) <= CSV_TOL
                    or math.isnan(a) and math.isnan(b)):
                return f"flow {fid} {name}: recomputed {a!r}, csv {b!r}"
    return None


def check_report_matches(run: RunFiles, report) -> str | None:
    """ransim report's metrics, formatted as metrics.csv, equal the file."""
    lines = [METRICS_HEADER]
    for fid, m in sorted(report.flows.items()):
        lines.append(f"{fid},{m.avg_delay_ms:.6f},{m.p95_ms:.6f},"
                     f"{m.p999_ms:.6f},{m.avg_mbps:.6f},{report.jain:.6f}")
    text = "\n".join(lines) + "\n"
    if text != run.metrics_text:
        return "report_run_dir output differs from metrics.csv"
    return None


def check_frame_counts(run: RunFiles) -> str | None:
    """One frame per 16.6 ms tick in [start, min(stop, duration))."""
    for fid, flow in run.flow_cfgs().items():
        start, stop = flow_window_ms(flow)
        want = tick_count(start, min(stop, run.duration_ms))
        got = len(run.frames.get(fid, ()))
        if got != want:
            return f"flow {fid}: {got} frames, {want} ticks"
    return None


def check_delay_floor(run: RunFiles) -> str | None:
    """A frame cannot arrive sooner than the wired delay plus one TTI."""
    for fid, flow in run.flow_cfgs().items():
        floor = float(flow.get("wired_nd_ms", 10.0)) + run.tti_ms
        for enc, dec, delay, _ in run.frames.get(fid, ()):
            if delay is not None and delay < floor - 1e-6:
                return f"flow {fid} frame at {enc}: delay {delay} < {floor}"
    return None


def check_capacity_bound(run: RunFiles) -> str | None:
    """Total goodput stays under the cell's downlink capacity after warm-up."""
    ran = run.cfg["ran"]
    bpp = capacity_trace(run.cfg, run.n_ttis)
    pattern = tdd_pattern(ran)
    prbs = int(ran.get("prb_total", 100))
    first = int(math.ceil(WARMUP_MS / run.tti_ms))
    cap_bytes = sum(prbs * bpp[i] * SLOT_FACTOR[pattern[i % len(pattern)]]
                    for i in range(first, run.n_ttis))
    span_s = (run.duration_ms - WARMUP_MS) / 1000.0
    bound_mbps = cap_bytes * 8.0 / span_s / 1e6
    total = sum(m[3] for m in run.metrics.values())
    if not 0.0 < total <= bound_mbps:
        return f"goodput {total} Mbps outside (0, {bound_mbps}]"
    return None


def true_flow_rate(ran: dict, bpp: float, n_present: int) -> float:
    """Per-flow payload drain capacity in bytes/ms with n flows present."""
    grant = int(ran.get("prb_total", 100)) / max(1, n_present) * bpp
    if grant <= OVERHEAD_FIXED + OVERHEAD_PER_SEGMENT + 1:
        return 0.0
    nseg = max(1, math.ceil(grant / MTU_PAYLOAD))
    gamma = 1.0 - (OVERHEAD_FIXED + OVERHEAD_PER_SEGMENT * nseg) / grant
    pattern = tdd_pattern(ran)
    duty = sum(SLOT_FACTOR[s] for s in pattern) / len(pattern)
    return (grant * gamma * duty * (1.0 - float(ran.get("bler", 0.0)))
            / float(ran.get("tti_ms", 0.5)))


def check_oracle_truth(run: RunFiles) -> str | None:
    """Oracle encoder targets equal the ground-truth per-flow capacity.

    A flow is present from its start until its stop, and leaves at its
    stop once its last frame has been delivered. Frames encoded within one
    TTI of a join, or between a stop and that last delivery, are skipped:
    there the number of flows present is a matter of definition.
    """
    ran = run.cfg["ran"]
    flows = run.flow_cfgs()
    oracles = [fid for fid, f in flows.items()
               if f.get("controller", "choir") == "oracle"]
    if not oracles:
        return "no oracle flow"
    bpp = capacity_trace(run.cfg, run.n_ttis)
    windows = {fid: flow_window_ms(f) for fid, f in flows.items()}
    blur = []
    for fid, (start, stop) in windows.items():
        blur.append((start - run.tti_ms, start + run.tti_ms))
        if stop < run.duration_ms:
            last = max((dec for _, dec, _, _ in run.frames.get(fid, ())
                        if dec is not None), default=stop)
            blur.append((stop, max(stop, last) + run.tti_ms))
    checked = 0
    for fid, targets in run.encoder_targets(oracles).items():
        for enc, target in targets:
            if any(lo <= enc <= hi for lo, hi in blur):
                continue
            tti = int(enc // run.tti_ms)
            now = tti * run.tti_ms
            n = sum(1 for start, stop in windows.values()
                    if start <= now < stop)
            want = true_flow_rate(ran, bpp[tti], n) * 8000.0
            checked += 1
            if not math.isclose(target, want, rel_tol=RATE_RTOL):
                return (f"flow {fid} at {enc} ms: target {target:.1f} bps, "
                        f"truth {want:.1f} bps with {n} flows present")
    if not checked:
        return "no oracle frame away from joins and leaves"
    return None


def check_jain(run: RunFiles, floor: float = 0.99) -> str | None:
    jain = next(iter(run.metrics.values()))[4]
    if jain < floor:
        return f"jain {jain} < {floor}"
    return None
