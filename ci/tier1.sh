#!/usr/bin/env bash
# The tier-1 CI steps, one function each; .github/workflows/tier1.yml runs
# them one by one. Run from the repo root:
#
#   ci/tier1.sh <step>   one step
#   ci/tier1.sh all      every check in order, stopping at the first failure
#
# `install` sets up the environment and is not part of `all`. Output files go
# to $RUNNER_TEMP, a new temporary directory when it is unset; bench-outputs
# reads the bench.txt that bench-smoke leaves there.
set -eo pipefail

RUNNER_TEMP=${RUNNER_TEMP:-$(mktemp -d)}
CHECKS=(tests eventlog-closed accept-lines round-trip hash-seed sweep-bad-value
        no-out-memory bench-smoke bench-outputs)

install() {
  python -m pip install --upgrade pip setuptools
  pip install -e .[test] --no-build-isolation
}

tests() {
  PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors
}

eventlog-closed() {
  # parse_event_log yields records while its file is open; a file left open
  # warns when it is freed, which pytest reports as an unraisable exception,
  # so both warnings are errors here
  PYTHONPATH=src python -m pytest -q -W error::ResourceWarning -W error::pytest.PytestUnraisableExceptionWarning tests/test_eventlog.py tests/test_harness.py
}

accept-lines() {
  # the twelve acceptance values move only with a CHANGES.md entry
  PYTHONPATH=src python -m pytest -q -s tests/test_acceptance.py | grep -o '\[ACCEPT-.*' > "$RUNNER_TEMP/accept.txt"
  diff tests/accept_lines.txt "$RUNNER_TEMP/accept.txt"
}

round-trip() {
  # events.log is streamed during the run; report must rebuild the same
  # metrics.csv from it
  ransim run scenarios/single_flow.json --out "$RUNNER_TEMP/run"
  cp "$RUNNER_TEMP/run/metrics.csv" "$RUNNER_TEMP/run-metrics.csv"
  ransim report "$RUNNER_TEMP/run"
  cmp "$RUNNER_TEMP/run-metrics.csv" "$RUNNER_TEMP/run/metrics.csv"
}

hash-seed() {
  # string hashing must not reach the outputs: two hash seeds give
  # byte-identical files for the scenario whose flows join and leave
  for seed in 1 2; do
    PYTHONHASHSEED=$seed ransim run scenarios/join_leave.json --out "$RUNNER_TEMP/hash$seed"
  done
  for f in metrics.csv frames.csv events.log; do
    cmp "$RUNNER_TEMP/hash1/$f" "$RUNNER_TEMP/hash2/$f"
  done
}

sweep-bad-value() {
  # a fraction for an integer key is a configuration error (exit 2)
  rc=0
  ransim sweep scenarios/single_flow.json --vary ack_per_frames=1.5 || rc=$?
  test "$rc" -eq 2
}

no-out-memory() {
  # a run without --out keeps no event log, so it peaks no more than 10%
  # above the same run with --out; each run is the only child of a fresh
  # process, whose RUSAGE_CHILDREN peak is then that run's own
  peak() {
    PYTHONPATH=src python -c '
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
' python -m ransim.cli run scenarios/multi_flow_fairness.json "$@"
  }
  with_out=$(peak --out "$RUNNER_TEMP/mem")
  without=$(peak)
  echo "peak RSS: ${with_out} KiB with --out, ${without} KiB without"
  test $((without * 10)) -le $((with_out * 11))
}

bench-smoke() {
  # one short repetition of every workload, untraced (trace0) and traced
  # (trace1): each must pass its output checks and fail nothing
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
}

bench-outputs() {
  # the seed-1 output hashes of every workload, untraced and traced, move
  # only with a CHANGES.md entry and this file updated
  grep '^sha256 ' "$RUNNER_TEMP/bench.txt" > "$RUNNER_TEMP/bench.sha256"
  diff ci/perfbench_seed1.sha256 "$RUNNER_TEMP/bench.sha256"
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
