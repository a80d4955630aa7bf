#!/usr/bin/env bash
# The tier-1 CI steps, one function each; .github/workflows/tier1.yml runs
# them one by one. Run from the repo root:
#
#   ci/tier1.sh <step>   one step
#   ci/tier1.sh all      every check in order, stopping at the first failure
#
# `install` sets up the environment and is not part of `all`. Output files go
# to $RUNNER_TEMP, a new temporary directory when it is unset. Every other
# check, from the golden digests to the memory bounds, is a test of the suite
# that `tests` runs.
set -eo pipefail

RUNNER_TEMP=${RUNNER_TEMP:-$(mktemp -d)}
CHECKS=(tests round-trip bench)

install() {
  python -m pip install --upgrade pip setuptools
  pip install -e .[test] --no-build-isolation
}

tests() {
  # pyproject.toml makes ResourceWarning and unraisable exceptions errors,
  # so a file left open, such as parse_event_log's, fails its test; the
  # suite also checks the golden digests and the twelve ACCEPT lines
  PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors
}

round-trip() {
  # the installed console script: run prints the metrics.csv it writes, and
  # report rebuilds the same file from events.log. The suite calls
  # ransim.cli.main in its own process, and checks report's rebuild for
  # every scenario at both log levels
  out="$RUNNER_TEMP/single_flow"
  ransim run scenarios/single_flow.json --out "$out" > "$RUNNER_TEMP/stdout.csv"
  cmp "$RUNNER_TEMP/stdout.csv" "$out/metrics.csv"
  ransim report "$out"
  cmp "$RUNNER_TEMP/stdout.csv" "$out/metrics.csv"
}

bench() {
  # one short repetition of every workload, untraced (trace0) and traced
  # (trace1): each must pass its output checks and fail nothing, and the
  # seed-1 output hashes move only with a CHANGES.md entry;
  # tools/record_outputs.py re-records them
  python3 perfbench/run.py --workload all --seed 1 --seconds 1 | tee "$RUNNER_TEMP/bench.txt"
  tail -n 1 "$RUNNER_TEMP/bench.txt" | python3 -c '
import json, sys
runs = json.load(sys.stdin)
bad = [f"{name}/{t}" for name, by_trace in runs.items()
       for t in ("trace0", "trace1")
       if not (by_trace.get(t, {}).get("correct") is True
               and by_trace[t].get("failed") == 0)]
if not runs or bad:
    sys.exit("benchmark smoke run failed: "
             + (", ".join(bad) or "no workloads"))
print("benchmark smoke run passed:", ", ".join(runs))
'
  grep '^sha256 ' "$RUNNER_TEMP/bench.txt" | diff ci/perfbench_seed1.sha256 -
}

step=${1:-}
if [ "$step" = all ]; then
  for step in "${CHECKS[@]}"; do
    echo "== $step"
    "$step"
  done
elif [ -n "$step" ] && [[ " install ${CHECKS[*]} " == *" $step "* ]]; then
  "$step"
else
  echo "usage: ci/tier1.sh all|<step>; steps: install ${CHECKS[*]}" >&2
  exit 2
fi
