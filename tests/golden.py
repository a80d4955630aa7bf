"""The runs whose output digests tests/golden.sha256 records.

Each shipped scenario runs at both log levels, and each of its three output
files is pinned by a `scenario level file digest` line. test_golden.py
checks the recorded lines against these runs, and tools/record_outputs.py
rewrites the file from them.
"""
import hashlib
from pathlib import Path

from ransim.harness import (EVENTS_LOG, FRAMES_CSV, METRICS_CSV, Scenario,
                            load_scenario, run_scenario)

GOLDEN = Path(__file__).with_name("golden.sha256")
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
LEVELS = ("frames", "full")
FILES = (METRICS_CSV, FRAMES_CSV, EVENTS_LOG)
PAIRS = sorted((p.stem, level) for p in SCENARIOS.glob("*.json")
               for level in LEVELS)


def output_digests(name: str, level: str, out_dir) -> dict[str, str]:
    """The sha256 of each output file of scenario name run at level."""
    scn = load_scenario(SCENARIOS / f"{name}.json")
    run_scenario(Scenario(**{**vars(scn), "log_level": level}), out_dir)
    return {f: hashlib.sha256((Path(out_dir) / f).read_bytes()).hexdigest()
            for f in FILES}
