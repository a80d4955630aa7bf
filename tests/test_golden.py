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
            "a53f37cdc522b4bf5e54b15958f1e8d5d4882d57d2510b8acc01a1b3b17c5d5c",
    },
    ("join_leave", "frames"): {
        "metrics.csv":
            "a9d8a0e612fd5b9e88de3261b5053bf051957fbce71a3f255b5349673d28361d",
        "frames.csv":
            "82f7bc4eba94091ff4387ec1089de0c201b8500228f7dc42cf83e6528db0162c",
        "events.log":
            "4166312e493d5b815e9cb35cd3422bcb3306c655a979c99db630a17aa3a947e3",
    },
    ("join_leave", "full"): {
        "metrics.csv":
            "a9d8a0e612fd5b9e88de3261b5053bf051957fbce71a3f255b5349673d28361d",
        "frames.csv":
            "82f7bc4eba94091ff4387ec1089de0c201b8500228f7dc42cf83e6528db0162c",
        "events.log":
            "a40242d57b63ff05c2577825cdf46aa1ca9f2e1d19470dc3106343ba9278a7fd",
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
            "3345d797ccc2558b761a8d0115b319d69168a97513250118b9cda140b688712f",
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
            "4000f0d6614ab078fbd3260854fcb6dd23898c13455c5a1c851c322eb0d59efe",
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
            "d8e30c7f2cefa1ecaa088d9f177e95d8465cbb2ef68aeaf48eeb97054c3eb1e3",
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
