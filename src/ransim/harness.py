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
from dataclasses import dataclass, replace
from pathlib import Path

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


def _require(mapping: dict, key: str, ctx: str):
    if key not in mapping:
        raise ScenarioError(f"{ctx}: missing required key {key!r}")
    return mapping[key]


def _build_trace(spec: dict, seed: int) -> CapacitySchedule:
    kind = _require(spec, "kind", "ran.trace")
    try:
        if kind == "constant":
            return traces.constant_trace(_require(spec, "bytes_per_prb",
                                                  "constant trace"))
        if kind == "step":
            return traces.step_trace(_require(spec, "before", "step trace"),
                                     _require(spec, "after", "step trace"),
                                     int(_require(spec, "step_tti",
                                                  "step trace")))
        if kind == "square":
            return traces.square_trace(
                _require(spec, "high", "square trace"),
                _require(spec, "low", "square trace"),
                int(_require(spec, "period_ttis", "square trace")),
                n_periods=int(spec.get("n_periods", 64)))
        if kind == "random_walk":
            return traces.random_walk_trace(
                _require(spec, "low", "random_walk trace"),
                _require(spec, "high", "random_walk trace"),
                seed=int(spec.get("seed", seed)),
                step_fraction=float(spec.get("step_fraction", 0.08)),
                interval_ttis=int(spec.get("interval_ttis", 200)))
    except TraceError as exc:
        raise ScenarioError(str(exc)) from exc
    raise ScenarioError(f"ran.trace: unknown kind {kind!r}")


def scenario_from_dict(cfg: dict, name: str = "scenario") -> Scenario:
    if not isinstance(cfg, dict):
        raise ScenarioError("scenario root must be a JSON object")
    duration_s = float(_require(cfg, "duration_s", "scenario"))
    seed = int(cfg.get("seed", 0))
    ran_cfg = _require(cfg, "ran", "scenario")
    trace_path = cfg.get("trace_path")
    if trace_path:
        try:
            schedule = traces.load_trace(trace_path)
        except TraceError as exc:
            raise ScenarioError(str(exc)) from exc
    else:
        schedule = _build_trace(_require(ran_cfg, "trace", "ran"), seed)
    try:
        ran = RanConfig(
            prb_total=int(ran_cfg.get("prb_total", 100)),
            tti_ms=float(ran_cfg.get("tti_ms", 0.5)),
            tdd_pattern=ran_cfg.get("tdd_pattern", "DDDSU"),
            bler=float(ran_cfg.get("bler", 0.0)),
            harq_rtx_delay_ms=float(ran_cfg.get("harq_rtx_delay_ms", 5.5)),
            harq_max_rtx=int(ran_cfg.get("harq_max_rtx", 3)),
            schedule=schedule)
    except ValueError as exc:
        raise ScenarioError(f"ran: {exc}") from exc
    flow_specs = _require(cfg, "flows", "scenario")
    if not isinstance(flow_specs, list) or not flow_specs:
        raise ScenarioError("flows must be a non-empty list")
    flows = []
    for i, spec in enumerate(flow_specs):
        controller = spec.get("controller", "choir")
        if controller not in CONTROLLERS:
            raise ScenarioError(
                f"flows[{i}]: unknown controller {controller!r}; "
                f"expected one of {sorted(CONTROLLERS)}")
        try:
            flows.append(FlowConfig(
                flow_id=int(spec.get("flow_id", i)),
                controller=controller,
                wired_nd_ms=float(spec.get("wired_nd_ms", 10.0)),
                ack_per_frames=int(spec.get("ack_per_frames", 1)),
                epsilon=int(spec.get("epsilon", 1)),
                encoder_mode=spec.get("encoder", "instant"),
                start_s=float(spec.get("start_s", 0.0)),
                stop_s=(None if spec.get("stop_s") is None
                        else float(spec["stop_s"])),
                initial_bitrate_bps=float(
                    spec.get("initial_bitrate_mbps", 5.0)) * 1e6))
        except ValueError as exc:
            raise ScenarioError(f"flows[{i}]: {exc}") from exc
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


def build_world(scn: Scenario, seed: int | None = None) -> SimWorld:
    world = SimWorld(ran=scn.ran, seed=scn.seed if seed is None else seed,
                     log_level=scn.log_level)
    for flow in scn.flows:
        world.add_flow(flow)
    return world


def run_scenario(scn: Scenario, out_dir=None, seed: int | None = None
                 ) -> RunMetrics:
    """Run one scenario to completion and optionally persist its outputs."""
    world = build_world(scn, seed)
    world.run(scn.duration_s)
    metrics = compute_metrics(world.frames_by_flow(), world.duration_ms,
                              scn.warmup_ms)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        world.log.write(out / EVENTS_LOG)
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
    """Re-run the scenario once per value, applying the key to every flow."""
    results: dict[float, RunMetrics] = {}
    for value in values:
        typed = int(value) if key in ("ack_per_frames", "epsilon") else value
        sub = replace(scn, flows=[replace(f, **{key: typed})
                                  for f in scn.flows],
                      name=f"{scn.name}_{key}={value:g}")
        sub_out = None
        if out_dir is not None:
            sub_out = Path(out_dir) / f"{key}={value:g}"
        results[value] = run_scenario(sub, sub_out)
    return results


def report_run_dir(run_dir, warmup_ms: float = WARMUP_EXCLUDE_MS
                   ) -> RunMetrics:
    """Recompute metrics for one persisted run purely from its event log."""
    log_path = Path(run_dir) / EVENTS_LOG
    if not log_path.exists():
        raise ScenarioError(f"{run_dir}: no {EVENTS_LOG} found")
    records = parse_event_log(log_path)
    return metrics_from_event_records(records, warmup_ms)


def find_run_dirs(root) -> list[Path]:
    root = Path(root)
    if (root / EVENTS_LOG).exists():
        return [root]
    return sorted(p.parent for p in root.glob(f"**/{EVENTS_LOG}"))
