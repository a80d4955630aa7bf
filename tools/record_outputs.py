#!/usr/bin/env python3
"""Re-record the recorded outputs: ``python3 tools/record_outputs.py``.

Recomputes the three files that pin the program's outputs:

- ``tests/golden.sha256``: the digest of each output file of every shipped
  scenario at both log levels, by the runs that test_golden.py checks;
- ``tests/accept_lines.txt``: the ``[ACCEPT-NN]`` lines that
  ``pytest -q -s tests/test_acceptance.py`` prints;
- ``ci/perfbench_seed1.sha256``: the ``sha256`` lines of ``python3
  perfbench/run.py --workload all --seed 1 --seconds 1``, which CI's bench
  step prints and compares.

It rewrites each file whose lines changed and prints a unified diff of every
line that moved; git holds the earlier values. A change that moves a
recorded output pastes that diff into CHANGES.md with the reason for each
move. Running the tool is the request to write: no test or CI step runs it,
and it takes no arguments. Standard library only.
"""
from __future__ import annotations

import difflib
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from golden import GOLDEN, PAIRS, output_digests  # noqa: E402

ACCEPT_LINES = ROOT / "tests" / "accept_lines.txt"
PERFBENCH_HASHES = ROOT / "ci" / "perfbench_seed1.sha256"
ACCEPT = re.compile(r"\[ACCEPT-\d\d\] .*")


def golden_lines() -> list[str]:
    lines = []
    for name, level in PAIRS:
        with tempfile.TemporaryDirectory() as out:
            lines += [f"{name} {level} {f} {digest}" for f, digest
                      in output_digests(name, level, out).items()]
    return sorted(lines)


def _stdout(*args: str, ok: tuple[int, ...]) -> str:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, text=True,
                          stdout=subprocess.PIPE)
    if proc.returncode not in ok:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}; "
                 f"nothing was written")
    return proc.stdout


def accept_lines() -> list[str]:
    # exit 1 is a failed criterion, whose line still prints; with --tb=no no
    # traceback quotes _report's source among the lines
    return ACCEPT.findall(_stdout(
        "-m", "pytest", "-q", "-s", "--tb=no", "-p", "no:cacheprovider",
        "tests/test_acceptance.py", ok=(0, 1)))


def perfbench_lines() -> list[str]:
    return [line for line in _stdout(
        "perfbench/run.py", "--workload", "all", "--seed", "1", "--seconds",
        "1", ok=(0,)).splitlines() if line.startswith("sha256 ")]


def main(argv: list[str]) -> int:
    if argv:
        print("usage: python3 tools/record_outputs.py (no arguments)",
              file=sys.stderr)
        return 2
    # every file is computed before any is written
    recorded = {GOLDEN: golden_lines(), ACCEPT_LINES: accept_lines(),
                PERFBENCH_HASHES: perfbench_lines()}
    for path, lines in recorded.items():
        if not lines:
            sys.exit(f"no lines for {path.relative_to(ROOT)}; "
                     f"nothing was written")
    for path, lines in recorded.items():
        rel = path.relative_to(ROOT).as_posix()
        old = path.read_text(encoding="utf-8").splitlines()
        if old == lines:
            print(f"{rel}: unchanged")
            continue
        for line in difflib.unified_diff(old, lines, f"a/{rel}", f"b/{rel}",
                                         n=0, lineterm=""):
            print(line)
        path.write_text("".join(f"{line}\n" for line in lines),
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
