"""One benchmark process: times ransim on one workload and checks its output.

    python3 perfbench/worker.py setup SCENARIO.json NAME
    python3 perfbench/worker.py rep SCENARIO.json NAME TRACE WORKDIR

``setup`` times importing ransim, ``scenario_from_dict`` and ``build_world``
in this fresh process. ``rep`` runs one repetition of the path of
``ransim run --out`` followed by ``ransim report`` into WORKDIR/out, traced
when TRACE is 1, and then checks the output. Untraced, both also time the
host-speed reference (see hostspeed.py) next to what they time. Either
prints one JSON object as its last line. ransim must be importable (run.py puts the checkout's
``src`` on PYTHONPATH); it is imported only after the setup timer starts.
"""
from __future__ import annotations

import functools
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import hostspeed
import tracing

OUTPUTS = ("metrics.csv", "frames.csv", "events.log")
REPORT_MIN_S = 1.0   # untraced: repeat report_run_dir until this much is spent
REF_EVERY_S = 0.25   # one reference call this often during the simulation
REF_BLOCK_S = 0.2    # reference time after the run and each report call, at most
SETUP_REF_S = 0.1    # reference time after a setup


def setup(cfg: dict, name: str) -> dict:
    t0 = time.perf_counter()
    from ransim import harness
    scn = harness.scenario_from_dict(cfg, name=name)
    harness.build_world(scn)
    setup_s = time.perf_counter() - t0
    return {"setup_s": setup_s,
            "ref_s": statistics.mean(hostspeed.sample(SETUP_REF_S))}


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Probe:
    """The host-speed reference (hostspeed.py), timed next to the work of
    one untraced repetition.

    Once every REF_EVERY_S of the simulation, SimWorld.step makes one
    reference call after its TTI, so that the calls sample the host over
    the whole simulation. Their time goes into paused_s, which the run's
    timers leave out. ref_s is their mean call, or, when the simulation
    made none, that of the blocks timed after it.
    """

    def __init__(self):
        from ransim.world import SimWorld
        self.sim_refs: list[float] = []
        self.block_refs: list[float] = []
        self.paused_s = 0.0
        step = SimWorld.step
        due = time.perf_counter() + REF_EVERY_S

        @functools.wraps(step)
        def probed_step(world):
            nonlocal due
            step(world)
            now = time.perf_counter()
            if now >= due:
                self.sim_refs.extend(hostspeed.sample(0.0))
                due = time.perf_counter()
                self.paused_s += due - now
                due += REF_EVERY_S

        SimWorld.step = probed_step

    def block(self, min_s: float) -> float:
        """Mean reference call over at least min_s."""
        calls = hostspeed.sample(min_s)
        self.block_refs.extend(calls)
        return statistics.mean(calls)

    def ref_s(self) -> float:
        return statistics.mean(self.sim_refs or self.block_refs)


def time_sim_runs(sims: list, probe: Probe | None) -> None:
    """Wrap SimWorld.run to time it and keep what the checks need.

    No reference to the world survives the call, so report_run_dir runs
    without it in memory, as in a separate ``ransim report``.
    """
    from ransim.world import SimWorld
    run = SimWorld.run

    @functools.wraps(run)
    def timed_run(world, duration_s):
        paused = probe.paused_s if probe else 0.0
        t0 = time.perf_counter()
        run(world, duration_s)
        wall = time.perf_counter() - t0
        if probe:
            wall -= probe.paused_s - paused
        try:
            world.assert_conservation()
            conservation = None
        except AssertionError as exc:
            conservation = str(exc)
        sims.append({"sim_s": wall, "ttis": world.tti_index,
                     "records": len(world.log.records),
                     "conservation": conservation})

    SimWorld.run = timed_run


def body(cfg: dict, name: str, out: Path, report_min_s: float,
         probe: Probe | None = None) -> dict:
    """ransim run --out, then ransim report on the same directory.

    report_run_dir runs until report_min_s is spent, at least once, and
    report_s is the median call. With a probe, run_s leaves out the
    reference calls made during the simulation, and the reference is also
    timed after the run and after each report call, for as long as that
    call took, up to REF_BLOCK_S. report_calls pairs each call with the
    mean of the reference timed just before and just after it.
    """
    from ransim import harness
    paused = probe.paused_s if probe else 0.0
    t0 = time.perf_counter()
    scn = harness.scenario_from_dict(cfg, name=name)
    harness.run_scenario(scn, out)
    run_s = time.perf_counter() - t0
    if probe:
        run_s -= probe.paused_s - paused
        ref = probe.block(REF_BLOCK_S)
    calls = []
    while sum(c for c, _ in calls) < report_min_s or not calls:
        t1 = time.perf_counter()
        report = harness.report_run_dir(out)
        call = time.perf_counter() - t1
        if probe:
            before, ref = ref, probe.block(min(call, REF_BLOCK_S))
            calls.append((call, (before + ref) / 2))
        else:
            calls.append((call, None))
    return {"run_s": run_s,
            "report_s": statistics.median(c for c, _ in calls),
            "ref_s": probe.ref_s() if probe else None,
            "report_calls": calls, "report": report}


def verify(run: checks.RunFiles, name: str, sim: dict, report
           ) -> dict[str, str | None]:
    """Every output check on one repetition: name -> problem or None."""
    todo = {
        "conservation": lambda: sim["conservation"],
        "metrics_recomputed": lambda: checks.check_metrics_recomputed(run),
        "report_matches": lambda: checks.check_report_matches(run, report),
        "frame_counts": lambda: checks.check_frame_counts(run),
        "delay_floor": lambda: checks.check_delay_floor(run),
        "capacity_bound": lambda: checks.check_capacity_bound(run),
    }
    if name == "fair7":
        todo["jain"] = lambda: checks.check_jain(run)
    else:
        todo["oracle_truth"] = lambda: checks.check_oracle_truth(run)
    results = {}
    for check, fn in todo.items():
        try:
            results[check] = fn()
        except Exception as exc:  # noqa: BLE001 - a check that raises fails
            results[check] = f"{type(exc).__name__}: {exc}"
    return results


def rep(cfg: dict, name: str, trace: bool, workdir: Path) -> dict:
    sims: list = []
    probe = None if trace else Probe()
    time_sim_runs(sims, probe)
    out = workdir / "out"
    layers = None
    if trace:
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            result = tracer.wrap(body, tracing.ROOT)(cfg, name, out, 0.0)
        spans = workdir / "spans.bin"
        tracer.write(spans)
        layers = tracing.layer_metrics(spans)
        wall = layers["trace.wall_s"]
    else:
        result = body(cfg, name, out, REPORT_MIN_S, probe)
        wall = result["run_s"] + result["report_s"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sim = sims.pop()
    run = checks.RunFiles(out, cfg)
    return {
        "traced": trace, "wall_s": wall, "sim_s": sim["sim_s"],
        "ttis": sim["ttis"], "run_s": result["run_s"],
        "report_s": result["report_s"], "peak_rss_mb": peak_rss_mb,
        "ref_s": result["ref_s"], "report_calls": result["report_calls"],
        "records": sim["records"],
        "log_bytes": (out / "events.log").stat().st_size,
        "digests": {f: digest(out / f) for f in OUTPUTS},
        "checks": verify(run, name, sim, result["report"]),
        "layers": layers,
    }


def main(argv: list[str]) -> int:
    mode, cfg_path, name = argv[:3]
    cfg = json.loads(Path(cfg_path).read_text())
    if mode == "setup":
        print(json.dumps(setup(cfg, name)))
    else:
        trace, workdir = argv[3:5]
        print(json.dumps(rep(cfg, name, trace == "1", Path(workdir))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
