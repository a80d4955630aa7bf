"""Golden output digests of every shipped scenario at both log levels.

A scenario plus its seed must reproduce the sha256 digests in golden.sha256
byte for byte, so a refactor that changes behaviour fails here; and
`ransim report` must rebuild each run's metrics.csv from its events.log,
byte for byte. A digest changes only together with a CHANGES.md entry that
says why; tools/record_outputs.py re-records the file and prints what moved.
"""
import re

import pytest

from golden import FILES, GOLDEN, LEVELS, PAIRS, output_digests
from ransim.harness import METRICS_CSV, metrics_csv_text, report_run_dir

DIGEST = re.compile(r"[0-9a-f]{64}")


def read_golden() -> dict[tuple[str, str, str], str]:
    """golden.sha256 by (scenario, level, file). A line that is not those
    three and a digest, one space apart, fails, as does a second line for
    one file: no later line overrides an earlier one."""
    golden = {}
    for n, line in enumerate(GOLDEN.read_text(encoding="utf-8").splitlines(),
                             start=1):
        fields = line.split(" ")
        if not (len(fields) == 4 and fields[1] in LEVELS
                and fields[2] in FILES and DIGEST.fullmatch(fields[3])):
            pytest.fail(f"{GOLDEN.name}:{n}: malformed line {line!r}")
        *key, digest = fields
        if tuple(key) in golden:
            pytest.fail(f"{GOLDEN.name}:{n}: {' '.join(key)} is recorded "
                        f"twice")
        golden[tuple(key)] = digest
    return golden


def test_every_scenario_is_pinned():
    assert set(read_golden()) == {(name, level, f) for name, level in PAIRS
                                  for f in FILES}


@pytest.mark.parametrize("name,level", PAIRS)
def test_output_digests(name, level, tmp_path):
    golden = read_golden()
    moved = [f"{name} {level} {f}: recorded {golden.get((name, level, f))}, "
             f"got {digest}"
             for f, digest in output_digests(name, level, tmp_path).items()
             if golden.get((name, level, f)) != digest]
    assert not moved, "\n".join(moved)
    # report rebuilds the same metrics.csv from events.log alone
    assert metrics_csv_text(report_run_dir(tmp_path)) == \
        (tmp_path / METRICS_CSV).read_text(encoding="utf-8")
