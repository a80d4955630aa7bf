"""The CI workflow runs the steps of ci/tier1.sh, each once and in order."""
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_workflow_runs_install_then_every_check_in_order():
    script = (ROOT / "ci" / "tier1.sh").read_text()
    checks = re.search(r"^CHECKS=\(([^)]*)\)", script, re.M).group(1).split()
    steps = ["install", *checks]
    for step in steps:  # each step is a function of the script
        assert re.search(rf"^{re.escape(step)}\(\) \{{$", script, re.M), step
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    runs = re.findall(r"^\s*run:\s*(.*?)\s*$", workflow, re.M)
    assert runs == [f"bash ci/tier1.sh {step}" for step in steps]
