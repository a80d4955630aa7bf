"""Scenario configuration, experiment execution and CSV emission.

Scenario files are JSON:

    {
      "duration_s": 10.0,
      "seed": 7,
      "ran": {
        "prb_total": 100, "tti_ms": 0.5, "tdd_pattern": "DDDSU",
        "bler": 0.0, "harq_rtx_delay_ms": 5.5, "harq_max_rtx": 3,
        "trace": {"kind": "constant", "bytes_per_prb": 30.0}
      },
      "trace_path": null,
      "flows": [
        {"controller": "choir", "wired_nd_ms": 10.0, "ack_per_frames": 1,
         "epsilon": 1, "start_s": 0.0, "stop_s": null,
         "encoder": "instant", "initial_bitrate_mbps": 5.0}
      ]
    }

``trace`` kinds: constant, step, square, random_walk (see traces module for
their parameters). An explicit ``trace_path`` CSV overrides ``ran.trace``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TextIO

from . import traces
from .eventlog import parse_event_log
from .metrics import (WARMUP_EXCLUDE_MS, RunMetrics, compute_metrics,
                      metrics_from_event_records)
from .ran import RanConfig
from .traces import CapacitySchedule, TraceError
from .world import CONTROLLERS, FlowConfig, SimWorld

METRICS_CSV = "metrics.csv"
FRAMES_CSV = "frames.csv"
EVENTS_LOG = "events.log"


class ScenarioError(ValueError):
    """Configuration that fails validation."""


@dataclass
class Scenario:
    ran: RanConfig
    flows: list[FlowConfig]
    duration_s: float
    seed: int = 0
    warmup_ms: float = WARMUP_EXCLUDE_MS
    log_level: str = "full"
    name: str = "scenario"

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ScenarioError("duration_s must be positive")
        if not self.flows:
            raise ScenarioError("scenario needs at least one flow")


SCENARIO_KEYS = frozenset({"duration_s", "seed", "ran", "trace_path", "flows",
                           "log_level"})
RAN_KEYS = frozenset({"prb_total", "tti_ms", "tdd_pattern", "bler",
                      "harq_rtx_delay_ms", "harq_max_rtx", "trace"})
FLOW_KEYS = frozenset({"flow_id", "controller", "wired_nd_ms", "ack_per_frames",
                       "epsilon", "encoder", "start_s", "stop_s",
                       "initial_bitrate_mbps"})
TRACE_KEYS = {
    "constant": frozenset({"kind", "bytes_per_prb"}),
    "step": frozenset({"kind", "before", "after", "step_tti"}),
    "square": frozenset({"kind", "high", "low", "period_ttis", "n_periods"}),
    "random_walk": frozenset({"kind", "low", "high", "seed", "step_fraction",
                              "interval_ttis"}),
}
_REQUIRED = object()


def _require(mapping: dict, key: str, ctx: str):
    if key not in mapping:
        raise ScenarioError(f"{ctx}: missing required key {key!r}")
    return mapping[key]


def _check_keys(mapping, allowed: frozenset, ctx: str) -> None:
    """Reject a non-object or a key the loader would silently ignore."""
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{ctx} must be a JSON object")
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ScenarioError(f"{ctx}: unknown key {unknown[0]!r}; "
                            f"expected one of {sorted(allowed)}")


def _number(mapping: dict, key: str, ctx: str, default=_REQUIRED,
            kind=float):
    """mapping[key] (or default when absent) as a finite float or int;
    a string, a boolean or a fraction for an int is an error."""
    raw = (_require(mapping, key, ctx) if default is _REQUIRED
           else mapping.get(key, default))
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ScenarioError(f"{ctx}: {key} must be a number, got {raw!r}")
    try:
        value = kind(raw)
        finite = math.isfinite(value)
    except (ValueError, OverflowError):  # NaN or beyond the float range
        finite = False
    if not finite:
        raise ScenarioError(f"{ctx}: {key} must be a finite number, "
                            f"got {raw!r}")
    if value != raw:
        raise ScenarioError(f"{ctx}: {key} must be an integer, got {raw!r}")
    return value


def _build_trace(spec: dict, seed: int) -> CapacitySchedule:
    ctx = "ran.trace"
    if not isinstance(spec, dict):
        raise ScenarioError(f"{ctx} must be a JSON object")
    kind = _require(spec, "kind", ctx)
    if kind not in TRACE_KEYS:
        raise ScenarioError(f"{ctx}: unknown kind {kind!r}")
    _check_keys(spec, TRACE_KEYS[kind], ctx)
    try:
        if kind == "constant":
            return traces.constant_trace(_number(spec, "bytes_per_prb", ctx))
        if kind == "step":
            return traces.step_trace(_number(spec, "before", ctx),
                                     _number(spec, "after", ctx),
                                     _number(spec, "step_tti", ctx, kind=int))
        if kind == "square":
            return traces.square_trace(
                _number(spec, "high", ctx), _number(spec, "low", ctx),
                _number(spec, "period_ttis", ctx, kind=int),
                n_periods=_number(spec, "n_periods", ctx, 64, int))
        return traces.random_walk_trace(
            _number(spec, "low", ctx), _number(spec, "high", ctx),
            seed=_number(spec, "seed", ctx, seed, int),
            step_fraction=_number(spec, "step_fraction", ctx, 0.08),
            interval_ttis=_number(spec, "interval_ttis", ctx, 200, int))
    except TraceError as exc:
        raise ScenarioError(f"{ctx}: {exc}") from exc


def scenario_from_dict(cfg: dict, name: str = "scenario") -> Scenario:
    """Validate a scenario dict; unknown keys and non-finite numbers are
    rejected with the offending key path."""
    if not isinstance(cfg, dict):
        raise ScenarioError("scenario root must be a JSON object")
    _check_keys(cfg, SCENARIO_KEYS, "scenario")
    duration_s = _number(cfg, "duration_s", "scenario")
    seed = _number(cfg, "seed", "scenario", 0, int)
    ran_cfg = _require(cfg, "ran", "scenario")
    _check_keys(ran_cfg, RAN_KEYS, "ran")
    trace_path = cfg.get("trace_path")
    if trace_path is not None and not isinstance(trace_path, str):
        raise ScenarioError(f"scenario: trace_path must be a string, "
                            f"got {trace_path!r}")
    if trace_path:
        try:
            schedule = traces.load_trace(trace_path)
        except TraceError as exc:
            raise ScenarioError(str(exc)) from exc
    else:
        schedule = _build_trace(_require(ran_cfg, "trace", "ran"), seed)
    try:
        ran = RanConfig(
            prb_total=_number(ran_cfg, "prb_total", "ran", 100, int),
            tti_ms=_number(ran_cfg, "tti_ms", "ran", 0.5),
            tdd_pattern=ran_cfg.get("tdd_pattern", "DDDSU"),
            bler=_number(ran_cfg, "bler", "ran", 0.0),
            harq_rtx_delay_ms=_number(ran_cfg, "harq_rtx_delay_ms", "ran",
                                      5.5),
            harq_max_rtx=_number(ran_cfg, "harq_max_rtx", "ran", 3, int),
            schedule=schedule)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"ran: {exc}") from exc
    flow_specs = _require(cfg, "flows", "scenario")
    if not isinstance(flow_specs, list) or not flow_specs:
        raise ScenarioError("flows must be a non-empty list")
    flows = []
    for i, spec in enumerate(flow_specs):
        ctx = f"flows[{i}]"
        _check_keys(spec, FLOW_KEYS, ctx)
        mbps = _number(spec, "initial_bitrate_mbps", ctx, 5.0)
        if mbps <= 0:
            raise ScenarioError(f"{ctx}: initial_bitrate_mbps must be "
                                f"positive, got {mbps!r}")
        controller = spec.get("controller", "choir")
        if controller not in CONTROLLERS:
            raise ScenarioError(
                f"{ctx}: unknown controller {controller!r}; "
                f"expected one of {sorted(CONTROLLERS)}")
        try:
            flows.append(FlowConfig(
                flow_id=_number(spec, "flow_id", ctx, i, int),
                controller=controller,
                wired_nd_ms=_number(spec, "wired_nd_ms", ctx, 10.0),
                ack_per_frames=_number(spec, "ack_per_frames", ctx, 1, int),
                epsilon=_number(spec, "epsilon", ctx, 1, int),
                encoder_mode=spec.get("encoder", "instant"),
                start_s=_number(spec, "start_s", ctx, 0.0),
                stop_s=(None if spec.get("stop_s") is None
                        else _number(spec, "stop_s", ctx)),
                initial_bitrate_bps=mbps * 1e6))
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"{ctx}: {exc}") from exc
    ids = [f.flow_id for f in flows]
    if len(set(ids)) != len(ids):
        raise ScenarioError("duplicate flow_id in flows")
    log_level = cfg.get("log_level", "full")
    if log_level not in ("frames", "full"):
        raise ScenarioError(f"log_level must be 'frames' or 'full', "
                            f"got {log_level!r}")
    try:
        return Scenario(ran=ran, flows=flows, duration_s=duration_s,
                        seed=seed, log_level=log_level, name=name)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def load_scenario(path) -> Scenario:
    p = Path(path)
    try:
        cfg = json.loads(p.read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    return scenario_from_dict(cfg, name=p.stem)


def build_world(scn: Scenario, seed: int | None = None,
                log_sink: TextIO | None = None) -> SimWorld:
    world = SimWorld(ran=scn.ran, seed=scn.seed if seed is None else seed,
                     log_level=scn.log_level, log_sink=log_sink)
    for flow in scn.flows:
        world.add_flow(flow)
    return world


def run_scenario(scn: Scenario, out_dir=None, seed: int | None = None
                 ) -> RunMetrics:
    """Run one scenario to completion and optionally persist its outputs.

    With out_dir, events.log is written while the run proceeds. A run that
    fails leaves the lines logged until then, without the closing run_info.
    Without out_dir the world keeps no event log.
    """
    if out_dir is None:
        world = build_world(scn, seed)
        world.run(scn.duration_s)
    else:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / EVENTS_LOG, "w") as sink:
            world = build_world(scn, seed, sink)
            world.run(scn.duration_s)
    metrics = compute_metrics(world.frames_by_flow(), world.duration_ms,
                              scn.warmup_ms)
    if out_dir is not None:
        write_metrics_csv(out / METRICS_CSV, metrics)
        write_frames_csv(out / FRAMES_CSV, world)
    return metrics


def write_metrics_csv(path, metrics: RunMetrics) -> None:
    with open(path, "w") as fh:
        fh.write("flow_id,avg_delay_ms,p95_ms,p999_ms,avg_mbps,jain\n")
        for fid, m in sorted(metrics.flows.items()):
            fh.write(f"{fid},{m.avg_delay_ms:.6f},{m.p95_ms:.6f},"
                     f"{m.p999_ms:.6f},{m.avg_mbps:.6f},{metrics.jain:.6f}\n")


def write_frames_csv(path, world: SimWorld) -> None:
    with open(path, "w") as fh:
        fh.write("flow_id,frame_id,encode_ms,decode_ms,delay_ms,frame_bytes\n")
        for fid, frames in sorted(world.frames_by_flow().items()):
            for fr in frames:
                decode = "" if fr.decode_ts is None else f"{fr.decode_ts:.6f}"
                delay = "" if fr.delay_ms is None else f"{fr.delay_ms:.6f}"
                fh.write(f"{fid},{fr.frame_id},{fr.encode_ts:.6f},"
                         f"{decode},{delay},{fr.nbytes}\n")


SWEEPABLE = {"wired_nd_ms", "ack_per_frames", "epsilon"}


def parse_vary(text: str) -> tuple[str, list[float]]:
    key, _, values = text.partition("=")
    key = key.strip()
    alias = {"wired_nd": "wired_nd_ms"}
    key = alias.get(key, key)
    if key not in SWEEPABLE:
        raise ScenarioError(
            f"--vary key must be one of {sorted(SWEEPABLE)} (got {key!r})")
    if not values:
        raise ScenarioError("--vary needs key=v1,v2,...")
    try:
        parsed = [float(v) for v in values.split(",")]
    except ValueError as exc:
        raise ScenarioError(f"--vary values: {exc}") from exc
    return key, parsed


def sweep_scenario(scn: Scenario, key: str, values: list[float],
                   out_dir=None) -> dict[float, RunMetrics]:
    """Re-run the scenario once per value, applying the key to every flow.

    Every value is checked as the scenario loader checks the key, and
    must name its own run, before the first run starts.
    """
    kind = int if key in ("ack_per_frames", "epsilon") else float
    subs: dict[str, tuple[float, Scenario]] = {}
    for value in values:
        typed = _number({key: value}, key, "--vary", kind=kind)
        label = f"{key}={value:g}"
        if label in subs:
            raise ScenarioError(f"--vary: {label} is given twice")
        try:
            flows = [replace(f, **{key: typed}) for f in scn.flows]
        except ValueError as exc:
            raise ScenarioError(f"--vary {label}: {exc}") from exc
        subs[label] = value, replace(scn, flows=flows,
                                     name=f"{scn.name}_{label}")
    results: dict[float, RunMetrics] = {}
    for label, (value, sub) in subs.items():
        sub_out = None if out_dir is None else Path(out_dir) / label
        results[value] = run_scenario(sub, sub_out)
    return results


def report_run_dir(run_dir, warmup_ms: float = WARMUP_EXCLUDE_MS
                   ) -> RunMetrics:
    """Recompute metrics for one persisted run purely from its event log.

    The log is read once, and only its frame events become records. A
    malformed log, or one without run_info such as a failed run leaves,
    raises ScenarioError.
    """
    log_path = Path(run_dir) / EVENTS_LOG
    if not log_path.exists():
        raise ScenarioError(f"{run_dir}: no {EVENTS_LOG} found")
    records = parse_event_log(log_path)
    try:
        return metrics_from_event_records(records, warmup_ms)
    except ValueError as exc:
        raise ScenarioError(f"{log_path}: {exc}") from exc
    finally:
        records.close()  # also when a bad record stops the read early


def find_run_dirs(root) -> list[Path]:
    root = Path(root)
    if (root / EVENTS_LOG).exists():
        return [root]
    return sorted(p.parent for p in root.glob(f"**/{EVENTS_LOG}"))
