"""Scenario dicts for the benchmark workloads, built from a workload seed.

Only ``ransim.harness.scenario_from_dict`` sees what these functions return.
The shipped scenario files are read as JSON and changed in two keys: the
log level, and the block-error PRNG seed, which is taken from the workload
seed so that a held-back seed gives fresh inputs to every workload.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("fair7", "mixed_full", "churn48")

CHURN_FLOWS = 48
CHURN_DURATION_S = 10.0
CHURN_CONTROLLERS = ("choir", "scone", "oracle")
CHURN_DELAYS_MS = (1.0, 5.0, 10.0, 20.0)
CHURN_JOIN_GAP_S = 0.2
# Time each flow stays, cycled over the flows in start order. With a join
# every 200 ms this keeps 12 to 17 of the 48 flows in the cell from 3 s on,
# while flows keep joining and leaving until the end of the run.
CHURN_STAY_S = (1.5, 2.5, 4.0, 5.5, 2.0, 3.0)


def _shipped(root: Path, name: str, log_level: str, seed: int) -> dict:
    cfg = json.loads((root / "scenarios" / f"{name}.json").read_text())
    cfg["log_level"] = log_level
    cfg["seed"] = seed
    return cfg


def churn48(seed: int) -> dict:
    """48 flows joining 200 ms apart and leaving after staggered stays.

    The seed permutes controllers within each group of three consecutive
    flows (so every group has one choir, one scone and one oracle flow),
    permutes the wired delays over all flows, and seeds both the capacity
    random walk and the block-error PRNG. Join and leave times are the
    same for every seed, so the amount of work barely depends on it.
    """
    rng = random.Random(seed)
    delays = [CHURN_DELAYS_MS[i % len(CHURN_DELAYS_MS)]
              for i in range(CHURN_FLOWS)]
    rng.shuffle(delays)
    flows = []
    for group in range(CHURN_FLOWS // len(CHURN_CONTROLLERS)):
        controllers = list(CHURN_CONTROLLERS)
        rng.shuffle(controllers)
        for j, controller in enumerate(controllers):
            k = group * len(CHURN_CONTROLLERS) + j
            start_s = round(k * CHURN_JOIN_GAP_S, 1)
            stop_s = round(start_s + CHURN_STAY_S[k % len(CHURN_STAY_S)], 1)
            flows.append({
                "flow_id": k, "controller": controller,
                "wired_nd_ms": delays[k], "start_s": start_s,
                # a stay past the end of the run keeps the flow to the end
                "stop_s": stop_s if stop_s < CHURN_DURATION_S else None,
            })
    return {
        "duration_s": CHURN_DURATION_S,
        "seed": seed,
        "log_level": "frames",
        "ran": {
            "prb_total": 100, "tti_ms": 1.0, "tdd_pattern": "DDSU",
            "bler": 0.1,
            "trace": {"kind": "random_walk", "low": 40.0, "high": 80.0,
                      "seed": seed, "step_fraction": 0.08,
                      "interval_ttis": 200},
        },
        "flows": flows,
    }


def build(workload: str, seed: int, root: Path) -> dict:
    """Scenario dict for one workload; root is the checkout holding
    ``scenarios/``."""
    if workload == "fair7":
        return _shipped(root, "multi_flow_fairness", "frames", seed)
    if workload == "mixed_full":
        return _shipped(root, "fluctuating_baselines", "full", seed)
    if workload == "churn48":
        return churn48(seed)
    raise ValueError(f"unknown workload {workload!r}; "
                     f"expected one of {', '.join(WORKLOADS)}")
