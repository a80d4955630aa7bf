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

``trace`` kinds: constant, step, square, random_walk (the traces module's
builders). A key left out takes the default of the class or builder its
section fills. An explicit ``trace_path`` CSV overrides ``ran.trace``.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from contextlib import nullcontext, suppress
from pathlib import Path
from typing import TextIO

from . import traces
from .eventlog import LEVEL_FRAMES, LEVEL_FULL, parse_event_log
from .metrics import (WARMUP_EXCLUDE_MS, RunMetrics, compute_metrics,
                      metrics_from_event_records)
from .ran import RanConfig
from .traces import CapacitySchedule, TraceError
from .world import FlowConfig, SimWorld, check_initial_bitrate

METRICS_CSV = "metrics.csv"
FRAMES_CSV = "frames.csv"
EVENTS_LOG = "events.log"
SCENARIO_NAME = "scenario"  # the defaults of Scenario's name and seed
SCENARIO_SEED = 0


class ScenarioError(ValueError):
    """Configuration that fails validation."""


class Scenario:
    def __init__(self, ran: RanConfig, flows: list[FlowConfig],
                 duration_s: float, seed: int = SCENARIO_SEED,
                 log_level: str = LEVEL_FULL, name: str = SCENARIO_NAME):
        self.ran = ran
        self.flows = flows
        self.duration_s = duration_s
        self.seed = seed
        self.log_level = log_level
        self.name = name
        if not 0 < self.duration_s < math.inf:  # NaN fails too
            raise ScenarioError("duration_s must be positive and finite")
        if not self.flows:
            raise ScenarioError("flows must be a non-empty list")
        for i, flow in enumerate(self.flows):
            if flow.start_s >= self.duration_s:
                raise ScenarioError(f"flows[{i}]: start_s must be before "
                                    f"duration_s, got {flow.start_s!r}")
            try:
                check_initial_bitrate(self.ran, flow.initial_bitrate_mbps)
            except ValueError as exc:
                raise ScenarioError(f"flows[{i}].{exc}") from None
        if len({f.flow_id for f in self.flows}) != len(self.flows):
            raise ScenarioError("duplicate flow_id in flows")
        if self.log_level not in (LEVEL_FRAMES, LEVEL_FULL):
            raise ScenarioError(f"log_level must be 'frames' or 'full', "
                                f"got {self.log_level!r}")


# Each section's keys and their number types, None for a value passed as it
# stands; the class or builder a section fills holds defaults and ranges.
SCENARIO_KEYS = {"duration_s": float, "seed": int, "log_level": None,
                 "ran": None, "trace_path": None, "flows": None}
RAN_KEYS = {"prb_total": int, "tti_ms": float, "tdd_pattern": None,
            "bler": float, "harq_rtx_delay_ms": float, "harq_max_rtx": int,
            "trace": None}
TRACES = {  # kind: (builder, keys besides kind)
    "constant": (traces.constant_trace, {"bytes_per_prb": float}),
    "step": (traces.step_trace,
             {"before": float, "after": float, "step_tti": int}),
    "square": (traces.square_trace, {"high": float, "low": float,
                                     "period_ttis": int, "n_periods": int}),
    "random_walk": (traces.random_walk_trace,
                    {"low": float, "high": float, "seed": int,
                     "step_fraction": float, "interval_ttis": int}),
}
FLOW_KEYS = {"flow_id": int, "controller": None, "wired_nd_ms": float,
             "ack_per_frames": int, "epsilon": int, "encoder": None,
             "start_s": float, "stop_s": float,
             "initial_bitrate_mbps": float}


def _require(mapping: dict, key: str, ctx: str):
    if key not in mapping:
        raise ScenarioError(f"{ctx}: missing required key {key!r}")
    return mapping[key]


def _number(raw, key: str, ctx: str, kind=float):
    """raw as a finite float or int; a string, a boolean or a fraction for
    an int is an error."""
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


@functools.cache
def _params(target) -> tuple[tuple[str, ...], frozenset[str]]:
    """target's parameters without a default, and those defaulting to None;
    a class's are those of its __init__ after self."""
    is_class = isinstance(target, type)
    fn = target.__init__ if is_class else target
    names = fn.__code__.co_varnames[is_class:fn.__code__.co_argcount]
    defaults = dict(zip(reversed(names), reversed(fn.__defaults__ or ())))
    return (tuple(n for n in names if n not in defaults),
            frozenset(n for n, d in defaults.items() if d is None))


def _fields(spec, keys: dict, ctx: str, target, **given) -> dict:
    """target's keyword arguments: given, updated with spec's keys, each
    number read by _number and null only where target's default is None. A
    key not in keys, or one target requires and neither gives, is an error."""
    if not isinstance(spec, dict):
        raise ScenarioError(f"{ctx} must be a JSON object")
    unknown = sorted(set(spec) - set(keys))
    if unknown:
        raise ScenarioError(f"{ctx}: unknown key {unknown[0]!r}; "
                            f"expected one of {sorted(keys)}")
    required, nullable = _params(target)
    for key in required:
        if key not in spec and key not in given:
            raise ScenarioError(f"{ctx}: missing required key {key!r}")
    for key, raw in spec.items():
        kind = keys[key]
        given[key] = (raw if kind is None or raw is None and key in nullable
                      else _number(raw, key, ctx, kind))
    return given


def _build(target, kwargs: dict, ctx: str):
    """target(**kwargs), a ValueError it raises prefixed with ctx."""
    try:
        return target(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{ctx}: {exc}") from exc


def _build_trace(spec, seed: int) -> CapacitySchedule:
    ctx = "ran.trace"
    if not isinstance(spec, dict):
        raise ScenarioError(f"{ctx} must be a JSON object")
    kind = _require(spec, "kind", ctx)
    if not isinstance(kind, str) or kind not in TRACES:
        raise ScenarioError(f"{ctx}: unknown kind {kind!r}")
    builder, keys = TRACES[kind]
    given = {"seed": seed} if "seed" in keys else {}  # the scenario's seed
    kwargs = _fields(spec, {"kind": None, **keys}, ctx, builder, **given)
    del kwargs["kind"]
    return _build(builder, kwargs, ctx)


def scenario_from_dict(cfg: dict, name: str = SCENARIO_NAME) -> Scenario:
    """Validate a scenario dict; unknown keys and non-finite numbers are
    rejected with the offending key path."""
    if not isinstance(cfg, dict):
        raise ScenarioError("scenario root must be a JSON object")
    fields = _fields(cfg, SCENARIO_KEYS, "scenario", Scenario, name=name)
    ran = _fields(fields["ran"], RAN_KEYS, "ran", RanConfig)
    trace_path = fields.pop("trace_path", None)
    if trace_path is not None and not isinstance(trace_path, str):
        raise ScenarioError(f"scenario: trace_path must be a string, "
                            f"got {trace_path!r}")
    if trace_path == "":
        raise ScenarioError("scenario: trace_path must be null or a "
                            "non-empty path, got ''")
    if trace_path is not None:
        try:
            schedule = traces.load_trace(trace_path)
        except TraceError as exc:
            raise ScenarioError(str(exc)) from exc
    else:
        schedule = _build_trace(_require(ran, "trace", "ran"),
                                fields.get("seed", SCENARIO_SEED))
    ran.pop("trace", None)
    fields["ran"] = _build(RanConfig, {**ran, "schedule": schedule}, "ran")
    specs = fields["flows"]
    if not isinstance(specs, list):
        raise ScenarioError(f"scenario: flows must be a list, got {specs!r}")
    fields["flows"] = []
    for i, spec in enumerate(specs):
        ctx = f"flows[{i}]"
        kwargs = _fields(spec, FLOW_KEYS, ctx, FlowConfig, flow_id=i)
        fields["flows"].append(_build(FlowConfig, kwargs, ctx))
    return Scenario(**fields)


def read_scenario(path):
    """The JSON value of the scenario file at path."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        # JSON text is UTF-8 (RFC 8259)
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc


def load_scenario(path, seed: int | None = None) -> Scenario:
    """The scenario file at path, its seed replaced by a seed given."""
    cfg = read_scenario(path)
    if seed is not None and isinstance(cfg, dict):
        cfg["seed"] = seed
    return scenario_from_dict(cfg, name=Path(path).stem)


def build_world(scn: Scenario, log_sink: TextIO | None = None) -> SimWorld:
    world = SimWorld(scn.ran, scn.seed, log_sink=log_sink,
                     full_log=scn.log_level == LEVEL_FULL)
    for flow in scn.flows:
        world.add_flow(flow)
    return world


def run_scenario(scn: Scenario, out_dir=None) -> RunMetrics:
    """Run one scenario to completion and optionally persist its outputs.

    With out_dir, each events.log line is written to the file as it is
    logged. A run that fails leaves the lines logged until then, without
    the closing run_info. Without out_dir the world keeps no event log.
    """
    if out_dir is None:
        opened = nullcontext()  # enters as None: no sink, no log
    else:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        opened = open(out / EVENTS_LOG, "w", encoding="utf-8")
    with opened as sink:
        world = build_world(scn, sink)
        world.run(scn.duration_s)
    metrics = compute_metrics(world.frames_by_flow(), world.now_ms)
    if out_dir is not None:
        write_metrics_csv(out / METRICS_CSV, metrics)
        write_frames_csv(out / FRAMES_CSV, world)
    return metrics


def metrics_csv_text(metrics: RunMetrics) -> str:
    """The text of metrics.csv, which the CLI also prints."""
    return "flow_id,avg_delay_ms,p95_ms,p999_ms,avg_mbps,jain\n" + "".join(
        f"{fid},{m.avg_delay_ms:.6f},{m.p95_ms:.6f},{m.p999_ms:.6f},"
        f"{m.avg_mbps:.6f},{metrics.jain:.6f}\n"
        for fid, m in sorted(metrics.flows.items()))


def write_metrics_csv(path, metrics: RunMetrics) -> None:
    Path(path).write_text(metrics_csv_text(metrics), encoding="utf-8")


def write_frames_csv(path, world: SimWorld) -> None:
    """One row per encoded frame; a frame not decoded by the end of the
    run, its decode time NaN, leaves decode_ms and delay_ms empty."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("flow_id,frame_id,encode_ms,decode_ms,delay_ms,frame_bytes\n")
        for fid, (encode, decode, sizes) in world.frames_by_flow().items():
            for k, (enc, dec, nbytes) in enumerate(zip(encode, decode, sizes)):
                done = "," if math.isnan(dec) else f"{dec:.6f},{dec - enc:.6f}"
                fh.write(f"{fid},{k},{enc:.6f},{done},{nbytes}\n")


def parse_vary(text: str) -> tuple[str, list]:
    """PATH=v1,v2,...: each value a float where float() reads it, else text."""
    path, _, values = text.partition("=")
    parsed = values.split(",")
    for i, value in enumerate(parsed):
        with suppress(ValueError):
            parsed[i] = float(value)
    return path.strip(), parsed


def sweep_scenario(cfg: dict, vary: list[tuple[str, list]], out_dir=None,
                   name: str = SCENARIO_NAME) -> dict[str, RunMetrics]:
    """Run the scenario dict cfg once per point of vary's cross-product, by
    its label path=value/...; all are built before the first run starts."""
    import copy  # here, so that a run does not pay for its import
    for i, (path, _) in enumerate(vary):
        if path in (p for p, _ in vary[:i]):
            raise ScenarioError(f"--vary: {path} is given in two arguments")
    points: dict[str, Scenario] = {}
    for combo in itertools.product(*[[(p, v) for v in vs] for p, vs in vary]):
        label = "/".join(f"{p}={v:g}" if isinstance(v, float) else f"{p}={v}"
                         for p, v in combo)
        if label in points:
            raise ScenarioError(f"--vary: {label} is given twice")
        point = copy.deepcopy(cfg)
        try:  # each value at its dotted path, or in every flow for a flow key
            for path, value in combo:
                *parents, key = path.split(".")
                node = point
                for part in parents:
                    node = node.setdefault(part, {})
                for node in point["flows"] if path in FLOW_KEYS else [node]:
                    node[key] = value
        except (AttributeError, TypeError):  # a step of the path is no object
            raise ScenarioError(f"--vary {label}: {path} is not a key path of "
                                f"JSON objects") from None
        try:
            points[label] = scenario_from_dict(point, f"{name}_{label}")
        except ScenarioError as exc:
            raise ScenarioError(f"--vary {label}: {exc}") from exc
    return {label: run_scenario(scn, None if out_dir is None
                                else Path(out_dir) / label)
            for label, scn in points.items()}


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
