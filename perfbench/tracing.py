"""Span tracing of ransim's layers, wrapped from outside the package.

``instrument()`` patches each layer's public functions and methods where
their callers look them up (a name imported with ``from .x import f`` is
patched in the importing module), records one span per call and restores
everything on exit. The ``SimWorld`` phase methods are wrapped on the
instance that ``build_world`` returns. Spans (name, parent, start, end) are
kept in flat integer arrays in memory and written out once at the end; the
self time of a span is its duration minus the durations of its children.
A span is named after the function it wraps, ``module.qualname``.
"""
from __future__ import annotations

import importlib
import json
import time
from array import array
from contextlib import contextmanager

# functions patched in the module that calls them
MODULE_FUNCS = [
    ("ransim.harness", "scenario_from_dict"),
    ("ransim.harness", "build_world"),
    ("ransim.harness", "run_scenario"),
    ("ransim.harness", "write_metrics_csv"),
    ("ransim.harness", "write_frames_csv"),
    ("ransim.harness", "report_run_dir"),
    ("ransim.harness", "parse_event_log"),
    ("ransim.harness", "compute_metrics"),
    ("ransim.metrics", "compute_metrics"),
    ("ransim.harness", "metrics_from_event_records"),
    ("ransim.world", "schedule_prbs"),
    ("ransim.world", "assemble_block"),
    ("ransim.world", "sample_rlc_queue"),
    ("ransim.world", "encode_rate"),
    ("ransim.world", "decode_rate"),
    ("ransim.world", "encode_scone"),
    ("ransim.world", "decode_scone"),
    ("ransim.sender", "decode_rate"),
    ("ransim.baselines", "encode_rate"),
    ("ransim.baselines", "decode_rate"),
]
# methods patched on their class
CLASS_METHODS = [
    ("ransim.world", "SimWorld", "run"),
    ("ransim.predictor", "FlowPredictor", "compute"),
    ("ransim.predictor", "FlowPredictor", "on_enqueue"),
    ("ransim.capacity", "FlowEstimator", "compute"),
    ("ransim.capacity", "FlowEstimator", "note_grant"),
    ("ransim.capacity", "FlowEstimator", "note_block"),
    ("ransim.capacity", "CellWindows", "close_tti"),
    ("ransim.sender", "BaseSender", "encode_frame"),
    ("ransim.sender", "BaseSender", "packet_release_offsets"),
    ("ransim.sender", "BaseSender", "on_ack_bytes"),
    ("ransim.sender", "ChoirSender", "on_feedback"),
    ("ransim.baselines", "SconeSender", "on_feedback"),
    ("ransim.baselines", "OracleSender", "on_feedback"),
    ("ransim.codec", "GuidanceFeedback", "from_bytes"),
    ("ransim.codec", "GuidanceFeedback", "to_bytes"),
    ("ransim.eventlog", "EventLog", "add"),
    ("ransim.eventlog", "EventLog", "write"),
    ("ransim.traces", "CapacitySchedule", "materialize"),
]
# SimWorld methods wrapped on the instance
WORLD_PHASES = ["step", "_process_arrivals", "_estimate_and_predict",
                "_downlink", "_uplink", "_process_sender_events"]
ROOT = "perfbench.iteration"

_W = "ransim.world.SimWorld."
# layer metric -> spans whose self times it sums; together they cover every
# span, so the self times add up to the root span's wall time
LAYER_TIMES = {
    "predictor.compute_s": ["ransim.predictor.FlowPredictor.compute"],
    "predictor.enqueue_s": ["ransim.predictor.FlowPredictor.on_enqueue"],
    "capacity.compute_s": ["ransim.capacity.FlowEstimator.compute"],
    "capacity.update_s": ["ransim.capacity.FlowEstimator.note_grant",
                          "ransim.capacity.FlowEstimator.note_block",
                          "ransim.capacity.CellWindows.close_tti"],
    "world.run_self_s": [_W + "run"],
    "world.step_self_s": [_W + "step"],
    "world.arrivals_s": [_W + "_process_arrivals"],
    "world.estimate_predict_self_s": [_W + "_estimate_and_predict"],
    "world.downlink_self_s": [_W + "_downlink"],
    "world.uplink_s": [_W + "_uplink"],
    "world.sender_events_self_s": [_W + "_process_sender_events"],
    "ran.schedule_s": ["ransim.ran.schedule_prbs"],
    "ran.assemble_s": ["ransim.ran.assemble_block"],
    "ran.sample_s": ["ransim.ran.sample_rlc_queue"],
    "sender.encode_s": ["ransim.sender.BaseSender.encode_frame",
                        "ransim.sender.BaseSender.packet_release_offsets"],
    "sender.feedback_s": ["ransim.sender.BaseSender.on_ack_bytes",
                          "ransim.sender.ChoirSender.on_feedback",
                          "ransim.baselines.SconeSender.on_feedback",
                          "ransim.baselines.OracleSender.on_feedback"],
    "codec.s": ["ransim.codec.encode_rate", "ransim.codec.decode_rate",
                "ransim.codec.GuidanceFeedback.from_bytes",
                "ransim.codec.GuidanceFeedback.to_bytes",
                "ransim.baselines.encode_scone",
                "ransim.baselines.decode_scone"],
    "eventlog.add_s": ["ransim.eventlog.EventLog.add"],
    "eventlog.write_s": ["ransim.eventlog.EventLog.write"],
    "eventlog.parse_s": ["ransim.eventlog.parse_event_log"],
    "metrics.compute_s": ["ransim.metrics.compute_metrics"],
    "metrics.from_records_s": ["ransim.metrics.metrics_from_event_records"],
    "harness.load_s": ["ransim.harness.scenario_from_dict"],
    "harness.build_s": ["ransim.harness.build_world"],
    "harness.run_self_s": ["ransim.harness.run_scenario"],
    "harness.report_self_s": ["ransim.harness.report_run_dir"],
    "harness.csv_s": ["ransim.harness.write_metrics_csv",
                      "ransim.harness.write_frames_csv"],
    "traces.materialize_s": ["ransim.traces.CapacitySchedule.materialize"],
    "trace.unattributed_s": [ROOT],
}
# layer metric -> spans whose call counts it sums
LAYER_CALLS = {
    "predictor.compute_calls": ["ransim.predictor.FlowPredictor.compute"],
    "capacity.compute_calls": ["ransim.capacity.FlowEstimator.compute"],
    "ran.schedule_calls": ["ransim.ran.schedule_prbs"],
    "sender.frames_encoded": ["ransim.sender.BaseSender.encode_frame"],
    "codec.calls": LAYER_TIMES["codec.s"],
    "eventlog.add_calls": ["ransim.eventlog.EventLog.add"],
}
# counters kept by count-only wrappers (no span)
COUNTERS = ["predictor.stamps", "ran.tx_blocks", "ran.harq_retx",
            "ran.rlc_requeues"]


def span_name(fn) -> str:
    fn = getattr(fn, "__func__", fn)
    return f"{fn.__module__}.{fn.__qualname__}"


class Tracer:
    """Flat in-memory span store; one span per wrapped call."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts = {name: 0 for name in COUNTERS}

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str | None = None):
        """fn wrapped to record a span per call."""
        nid = self._intern(name or span_name(fn))
        clock = time.perf_counter_ns
        stack = self.stack
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)

        def traced(*args, **kwargs):
            sid = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def count(self, name: str, fn, when=None):
        """fn wrapped to count its calls, or those where when(*args) holds."""
        counts = self.counts

        def counted(*args, **kwargs):
            if when is None or when(*args):
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def write(self, path) -> None:
        """Spans as four int64 arrays in a row, names in a JSON sidecar."""
        with open(path, "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
        with open(f"{path}.json", "w") as fh:
            json.dump({"names": self.names, "n": len(self.name_id),
                       "counts": self.counts}, fh)


def layer_metrics(path) -> dict[str, float]:
    """Per-layer metrics from spans written by Tracer.write.

    Returns every LAYER_TIMES, LAYER_CALLS and COUNTERS metric, plus
    ``trace.wall_s``, the duration of the root span.
    """
    with open(f"{path}.json") as fh:
        meta = json.load(fh)
    n = meta["n"]
    name_id, parent, start, end = (array("q") for _ in range(4))
    with open(path, "rb") as fh:
        for arr in (name_id, parent, start, end):
            arr.fromfile(fh, n)
    child = [0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += end[i] - start[i]
    names = meta["names"]
    self_ns = [0] * len(names)
    calls = [0] * len(names)
    wall_ns = 0
    for i in range(n):
        dur = end[i] - start[i]
        self_ns[name_id[i]] += dur - child[i]
        calls[name_id[i]] += 1
        if parent[i] < 0:
            wall_ns += dur
    by_name = dict(zip(names, zip(self_ns, calls)))
    mapped = {s for spans in LAYER_TIMES.values() for s in spans}
    unmapped = set(names) - mapped
    if unmapped:
        raise ValueError(f"spans without a layer metric: {sorted(unmapped)}")
    out: dict[str, float] = {}
    for metric, spans in LAYER_TIMES.items():
        out[metric] = sum(by_name.get(s, (0, 0))[0] for s in spans) / 1e9
    for metric, spans in LAYER_CALLS.items():
        out[metric] = sum(by_name.get(s, (0, 0))[1] for s in spans)
    out.update(meta["counts"])
    out["trace.wall_s"] = wall_ns / 1e9
    return out


@contextmanager
def instrument(tracer: Tracer):
    """Patch ransim's layers to record into tracer; restore on exit."""
    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    try:
        for mod, attr in MODULE_FUNCS:
            module = importlib.import_module(mod)
            patch(module, attr, tracer.wrap(module.__dict__[attr]))
        for mod, cls_name, attr in CLASS_METHODS:
            cls = getattr(importlib.import_module(mod), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                patch(cls, attr, classmethod(tracer.wrap(raw.__func__)))
            else:
                patch(cls, attr, tracer.wrap(raw))
        predictor = importlib.import_module("ransim.predictor")
        ran = importlib.import_module("ransim.ran")
        harness = importlib.import_module("ransim.harness")
        patch(predictor.FlowPredictor, "record_stamp", tracer.count(
            "predictor.stamps", predictor.FlowPredictor.record_stamp))
        patch(ran.FlowQueueState, "requeue_tail", tracer.count(
            "ran.rlc_requeues", ran.FlowQueueState.requeue_tail))
        build_traced = harness.build_world

        def build_world(*args, **kwargs):
            world = build_traced(*args, **kwargs)
            for attr in WORLD_PHASES:
                setattr(world, attr, tracer.wrap(getattr(world, attr)))
            world._transmit = tracer.count("ran.tx_blocks", tracer.count(
                "ran.harq_retx", world._transmit,
                when=lambda fr, block, is_retx, *rest: is_retx))
            return world

        patch(harness, "build_world", build_world)
        yield tracer
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)
