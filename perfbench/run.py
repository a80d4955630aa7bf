"""ransim benchmark: host cost of simulating one cell, end to end and per layer.

    python3 perfbench/run.py --workload fair7 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run from the root of a ransim checkout; ransim is imported from its
``src``. Each workload's scenario is built from the seed (see
workloads.py) and handed to fresh worker processes (see worker.py), which
run the path of ``ransim run --out`` followed by ``ransim report`` and
check every output. The last line printed is one JSON object with the
operations attempted and failed and the metrics: the end-to-end ones with
``--trace 0``, the per-layer ones with ``--trace 1``. ``--workload all``
runs every workload both ways and prints one such object per workload,
then a last line mapping each workload to its two objects.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_PROBES = 11
CHILD_TIMEOUT_S = 120
# failing checks that are faults of the program, not of the benchmark:
# FlowRuntime.started() ignores stop_s, so the oracle keeps counting flows
# that have left and encodes at a share of too many flows
KNOWN_FAULTS = {("churn48", "oracle_truth")}

END_TO_END = {"setup_s": "s", "tti_per_s": "TTI/s", "run_s": "s",
              "report_s": "s", "peak_rss_mb": "MB"}


def unit_of(layer_metric: str) -> str:
    if layer_metric.endswith("_s") or layer_metric == "codec.s":
        return "s"
    if layer_metric == "eventlog.log_bytes":
        return "bytes"
    if layer_metric == "predictor.stamps_per_compute":
        return "ratio"
    return "count"


def child(args: list[str]) -> dict:
    """Run worker.py with args; return the JSON object it prints last."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def repetitions(workload: str, seed: int, seconds: int, trace: bool,
                work: Path) -> list[dict]:
    """Fresh-process repetitions until the next one would end after
    seconds; at least one. Traced, each is an untraced and a traced pass."""
    scenario = work / "scenario.json"
    scenario.write_text(json.dumps(workloads.build(workload, seed, ROOT)))
    passes = (False, True) if trace else (False,)
    reps = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for traced in passes:
            reps.append(child(["rep", str(scenario), workload,
                               str(int(traced)), str(work)]))
        now = time.perf_counter()
        if now + (now - t0) > start + seconds:
            return reps


def tally(reps: list[dict]) -> tuple[int, dict, dict]:
    """Operations attempted, failures per check and each check's first
    problem. Besides the worker's checks, each repetition is one
    `deterministic` operation: its digests, and when traced its layer
    counts, equal those of the first repetition (the first traced one)."""
    attempted = 0
    failures: dict[str, int] = {}
    problems: dict[str, str] = {}
    first_counts = next(
        (counted(r["layers"]) for r in reps if r["traced"]), None)
    for r in reps:
        results = dict(r["checks"])
        same = r["digests"] == reps[0]["digests"] and (
            not r["traced"] or counted(r["layers"]) == first_counts)
        results["deterministic"] = None if same else (
            "outputs or layer counts differ between repetitions")
        for name, problem in results.items():
            attempted += 1
            if problem:
                failures[name] = failures.get(name, 0) + 1
                problems.setdefault(name, problem)
    return attempted, failures, problems


def counted(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if unit_of(k) != "s"}


def end_to_end(reps: list[dict], setups: list[dict], scaled: bool = True
               ) -> dict:
    """Times are scaled to nominal host speed (hostspeed.py) by the
    reference timed in the same processes: the simulation and run times by
    the mean over the reference calls made during the repetitions'
    simulations, each report call by the reference timed just before and
    after it, and each setup by the one after it. scaled=False gives them
    as measured. They are means
    over the repetitions, not medians: with 3 to 6 repetitions a median
    jumps between the host's speed modes where a mean moves by the share
    of time spent in each."""
    ref_s = statistics.mean(r["ref_s"] for r in reps)

    def s(seconds: float, ref: float) -> float:
        return hostspeed.scale(seconds, ref) if scaled else seconds

    return {
        "setup_s": statistics.median(s(p["setup_s"], p["ref_s"])
                                     for p in setups),
        "tti_per_s": (sum(r["ttis"] for r in reps)
                      / s(sum(r["sim_s"] for r in reps), ref_s)),
        "run_s": s(statistics.mean(r["run_s"] for r in reps), ref_s),
        "report_s": statistics.mean(
            statistics.median(s(call, ref) for call, ref in r["report_calls"])
            for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(reps: list[dict]) -> dict:
    traced = [r for r in reps if r["traced"]]
    layers = [r["layers"] for r in traced]
    out = {}
    for name, value in layers[0].items():
        if unit_of(name) == "s":
            out[name] = statistics.median(lay[name] for lay in layers)
        else:
            out[name] = value
    out["predictor.stamps_per_compute"] = (
        out["predictor.stamps"] / out["predictor.compute_calls"])
    out["eventlog.records"] = traced[0]["records"]
    out["eventlog.log_bytes"] = traced[0]["log_bytes"]
    out["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in reps if not r["traced"]))
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: bool
                 ) -> dict:
    work = WORK / f"{workload}-{seed}-{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        reps = repetitions(workload, seed, seconds, trace, work)
        if trace:
            metrics = per_layer(reps)
        else:
            setups = [child(["setup", str(work / "scenario.json"),
                             workload])
                      for _ in range(SETUP_PROBES)]
            metrics = end_to_end(reps, setups)
            measured = end_to_end(reps, setups, scaled=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failures, problems = tally(reps)
    failed = sum(failures.values())
    print(f"== {workload} seed={seed} trace={int(trace)}: "
          f"{len(reps)} repetitions")
    for name, sha in reps[0]["digests"].items():
        print(f"sha256 {name} {sha}")
    for name, n in sorted(failures.items()):
        known = " (known fault)" if (workload, name) in KNOWN_FAULTS else ""
        print(f"check {name} failed {n} times{known}: {problems[name]}")
    units = {k: END_TO_END[k] if not trace else unit_of(k) for k in metrics}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if not trace:
        ref_ms = [round(1000 * r["ref_s"], 1) for r in reps]
        print(f"reference call ms per repetition: {ref_ms} "
              f"(nominal {1000 * hostspeed.NOMINAL_REF_S:g})")
        print("as measured: " + ", ".join(
            f"{name} = {value:.6g}" for name, value in measured.items()))
    if trace:
        layer_sum = sum(v for k, v in metrics.items() if units[k] == "s"
                        and k not in ("trace.wall_s", "trace.overhead_s"))
        print(f"layer self times sum to {layer_sum:.6g} s "
              f"of trace.wall_s {metrics['trace.wall_s']:.6g} s")
    print(f"operations attempted={attempted} failed={failed}")
    return {
        "correct": all((workload, name) in KNOWN_FAULTS for name in failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally: subprocess.run kills the running worker
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    missing = [p for p in ("src/ransim/__init__.py", "scenarios")
               if not (ROOT / p).exists()]
    if missing:
        print(f"not a ransim checkout: {ROOT} lacks {', '.join(missing)}",
              file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
            print(json.dumps(result))
            return 0
        combined = {}
        for workload in workloads.WORKLOADS:
            combined[workload] = {}
            for trace in (False, True):
                result = run_workload(workload, args.seed, args.seconds,
                                      trace)
                print(json.dumps(result))
                combined[workload][f"trace{int(trace)}"] = result
        print(json.dumps(combined))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
