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
CHECKS=(tests round-trip hash-seed sweep-bad-value sweep-matrix
        run-bad-config no-out-memory churn-memory bench-smoke bench-outputs)

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
  # events.log is streamed during the run; report must rebuild the same
  # metrics.csv from it, also for join_leave, whose leavers, HARQ failures,
  # undelivered frames and all-nan flow exercise every row report writes,
  # and for a copy of it logged at the frames level, as perfbench's fair7
  # and churn48 are; run prints the metrics.csv it writes
  python -c '
import json
cfg = json.load(open("scenarios/join_leave.json"))
cfg["log_level"] = "frames"
print(json.dumps(cfg))
' > "$RUNNER_TEMP/join_leave_frames.json"
  for path in scenarios/single_flow.json scenarios/join_leave.json \
      "$RUNNER_TEMP/join_leave_frames.json"; do
    scn=$(basename "$path" .json)
    ransim run "$path" --out "$RUNNER_TEMP/$scn" \
      > "$RUNNER_TEMP/$scn-stdout.csv"
    cmp "$RUNNER_TEMP/$scn-stdout.csv" "$RUNNER_TEMP/$scn/metrics.csv"
    cp "$RUNNER_TEMP/$scn/metrics.csv" "$RUNNER_TEMP/$scn-metrics.csv"
    ransim report "$RUNNER_TEMP/$scn"
    cmp "$RUNNER_TEMP/$scn-metrics.csv" "$RUNNER_TEMP/$scn/metrics.csv"
  done
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

sweep-matrix() {
  # two --vary arguments sweep their cross-product: one directory per point,
  # nested in --vary order, and report finds each point and rewrites its
  # metrics.csv byte for byte
  out="$RUNNER_TEMP/matrix"
  ransim sweep scenarios/single_flow.json --vary ran.bler=0,0.1 \
    --vary wired_nd_ms=1,10 --out "$out"
  points=()
  for bler in 0 0.1; do
    for nd in 1 10; do
      points+=("ran.bler=$bler/wired_nd_ms=$nd")
    done
  done
  test "$(find "$out" -name events.log | wc -l)" -eq ${#points[@]}
  for point in "${points[@]}"; do
    test -d "$out/$point"
    mkdir -p "$RUNNER_TEMP/matrix-copy/$point"
    cp "$out/$point/metrics.csv" "$RUNNER_TEMP/matrix-copy/$point/"
  done
  ransim report "$out"
  for point in "${points[@]}"; do
    cmp "$RUNNER_TEMP/matrix-copy/$point/metrics.csv" \
      "$out/$point/metrics.csv"
  done
}

run-bad-config() {
  # each bad edit of single_flow is a configuration error (exit 2) at load
  # time: a flow that never starts, a null number, a random walk that never
  # steps, a cell beyond NR's bytes per PRB or PRBs per carrier, a sender
  # blending more than 600 frames' bitrates, and a byte that is not UTF-8
  for edit in never-starts null-delay zero-interval huge-bpp huge-prbs \
      huge-epsilon not-utf8; do
    python -c '
import json, sys
cfg = json.load(open("scenarios/single_flow.json"))
flow, ran = cfg["flows"][0], cfg["ran"]
if sys.argv[1] == "never-starts":
    flow["start_s"] = cfg["duration_s"]
elif sys.argv[1] == "null-delay":
    flow["wired_nd_ms"] = None
elif sys.argv[1] == "huge-bpp":
    ran["trace"]["bytes_per_prb"] = 1e7
elif sys.argv[1] == "huge-prbs":
    ran["prb_total"] = 1e7
elif sys.argv[1] == "huge-epsilon":
    flow["epsilon"] = 1e9
elif sys.argv[1] == "zero-interval":
    ran["trace"] = {"kind": "random_walk", "low": 20.0, "high": 40.0,
                    "interval_ttis": 0}
text = json.dumps(cfg).encode()
if sys.argv[1] == "not-utf8":
    text = text.replace(b"choir", b"ch\xffir")
sys.stdout.buffer.write(text + b"\n")
' "$edit" > "$RUNNER_TEMP/$edit.json"
    rc=0
    ransim run "$RUNNER_TEMP/$edit.json" || rc=$?
    test "$rc" -eq 2
  done
}

peak() {
  # peak RSS in KiB of `ransim run "$@"`, run as the only child of a fresh
  # process, whose RUSAGE_CHILDREN peak is then that run's own
  PYTHONPATH=src python -c '
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
' python -m ransim.cli run "$@"
}

no-out-memory() {
  # a run without --out keeps no event log, so it peaks no more than 10%
  # above the same run with --out; a run with --out writes each line to
  # events.log as it is logged and holds none, so it peaks no more than 2%
  # above the run without
  with_out=$(peak scenarios/multi_flow_fairness.json --out "$RUNNER_TEMP/mem")
  without=$(peak scenarios/multi_flow_fairness.json)
  echo "peak RSS: ${with_out} KiB with --out, ${without} KiB without"
  test $((without * 10)) -le $((with_out * 11))
  test $((with_out * 100)) -le $((without * 102))
}

churn-memory() {
  # a retired flow frees its base-station state, so 64 choir flows staying
  # 1 s each peak no more than 10% above 8 staying 8 s: both run 8 flows at
  # a time for 64 flow-seconds
  for stay in 1 8; do
    python -c '
import json, sys
stay = float(sys.argv[1])
flows = [{"start_s": i // 8 * stay, "stop_s": (i // 8 + 1) * stay}
         for i in range(int(64 / stay))]
ran = {"trace": {"kind": "constant", "bytes_per_prb": 30.0}}
print(json.dumps({"duration_s": 8.0, "seed": 1, "ran": ran, "flows": flows}))
' "$stay" > "$RUNNER_TEMP/stay$stay.json"
  done
  long=$(peak "$RUNNER_TEMP/stay8.json")
  short=$(peak "$RUNNER_TEMP/stay1.json")
  echo "peak RSS: ${long} KiB for 8 flows staying 8 s, ${short} KiB for 64 staying 1 s"
  test $((short * 10)) -le $((long * 11))
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
  # only with a CHANGES.md entry; tools/record_outputs.py re-records them
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
