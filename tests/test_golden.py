"""Golden output digests of every shipped scenario at both log levels.

A scenario plus its seed must reproduce these sha256 digests byte for byte,
so a refactor that changes behaviour fails here. A digest changes only
together with a CHANGES.md entry that says why.
"""
import dataclasses
import hashlib
from pathlib import Path

import pytest

from ransim.harness import (EVENTS_LOG, FRAMES_CSV, METRICS_CSV,
                            load_scenario, run_scenario)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    ("fluctuating_baselines", "frames"): {
        "metrics.csv":
            "5970f3f04b735b0e084d19c7639855c1039ebd302f564c0cbf0a9925dda380e0",
        "frames.csv":
            "d724c071412667fa5746dc9ada2cb4b37861d979dfb4abd119883d945776121c",
        "events.log":
            "f31e23da98399013575c955fc44157fa94810866d0404f7298be1610b7a24c03",
    },
    ("fluctuating_baselines", "full"): {
        "metrics.csv":
            "5970f3f04b735b0e084d19c7639855c1039ebd302f564c0cbf0a9925dda380e0",
        "frames.csv":
            "d724c071412667fa5746dc9ada2cb4b37861d979dfb4abd119883d945776121c",
        "events.log":
            "b8c21d85d98582b87de3d21bb87a8fd1e7bde78885fb5af2b5fb5312a50a0578",
    },
    ("multi_flow_fairness", "frames"): {
        "metrics.csv":
            "558b3df3ed1f6646be0fb14401297d3a1a0b5e3e37425ceddce4972f4a2e864c",
        "frames.csv":
            "6fc60c9da8067d6a4714e0fd0e27f3f4d4289a753d8c3b00b1c6215a2cd4ebb9",
        "events.log":
            "1e0a92584e4876731e1cdee34eb8297213245bd8327253aa3cb710082ed86f2c",
    },
    ("multi_flow_fairness", "full"): {
        "metrics.csv":
            "558b3df3ed1f6646be0fb14401297d3a1a0b5e3e37425ceddce4972f4a2e864c",
        "frames.csv":
            "6fc60c9da8067d6a4714e0fd0e27f3f4d4289a753d8c3b00b1c6215a2cd4ebb9",
        "events.log":
            "e932832f768ca58acaeb23d6b40d344866de9df7d75308bf4584ba6992dd9bc1",
    },
    ("single_flow", "frames"): {
        "metrics.csv":
            "ddd87da782df94a159d26efc4e7314bc563d660e2578defd50c0499d2d66813a",
        "frames.csv":
            "65c5921189592b6c1caa373d1056eeab6276e302037c5eaa3c0cba132ad016bd",
        "events.log":
            "055deb2855ca22e77b5ad6a6ec71ac421e527fddd97ed06556a1c1e9738a3e92",
    },
    ("single_flow", "full"): {
        "metrics.csv":
            "ddd87da782df94a159d26efc4e7314bc563d660e2578defd50c0499d2d66813a",
        "frames.csv":
            "65c5921189592b6c1caa373d1056eeab6276e302037c5eaa3c0cba132ad016bd",
        "events.log":
            "ada620f8136adc1c133c68b4626f4143d9975fac234d7615a61c25f975a02a4c",
    },
    ("step_drop", "frames"): {
        "metrics.csv":
            "7e8931b9a1215a019bfcedefefd6089a73057b762b333bfaf29e5fb1d030cb96",
        "frames.csv":
            "9a8586051c7dcb84ce49573731b6f1ace995c57fc3d7af65a53461a549cd9425",
        "events.log":
            "537f4970966981abffe7ac3ea6170d08f43999a045ead24c9251bb0dfaa5f64e",
    },
    ("step_drop", "full"): {
        "metrics.csv":
            "7e8931b9a1215a019bfcedefefd6089a73057b762b333bfaf29e5fb1d030cb96",
        "frames.csv":
            "9a8586051c7dcb84ce49573731b6f1ace995c57fc3d7af65a53461a549cd9425",
        "events.log":
            "6042d7594c48c842d91c4f22493dc1dbf230bc84f3b539d571af4b6630789616",
    },
}


def test_every_scenario_is_pinned():
    stems = {p.stem for p in SCENARIOS.glob("*.json")}
    for level in ("frames", "full"):
        assert {name for name, lv in GOLDEN if lv == level} == stems


@pytest.mark.parametrize("name,level", sorted(GOLDEN))
def test_output_digests(name, level, tmp_path):
    scn = dataclasses.replace(load_scenario(SCENARIOS / f"{name}.json"),
                              log_level=level)
    run_scenario(scn, tmp_path)
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
           for f in (METRICS_CSV, FRAMES_CSV, EVENTS_LOG)}
    assert got == GOLDEN[(name, level)]
