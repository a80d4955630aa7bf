"""Command line entry points: run, sweep and report.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import (METRICS_CSV, ScenarioError, find_run_dirs,
                      load_scenario, metrics_csv_text, parse_vary,
                      report_run_dir, run_scenario, sweep_scenario,
                      write_metrics_csv)
from .traces import TraceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ransim",
        description="Trace-driven 5G downlink simulator with "
                    "base-station-guided rate control")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    run_p.add_argument("scenario", help="scenario JSON file")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    run_p.add_argument("--out", default=None,
                       help="directory for metrics/frames/event log")

    sweep_p = sub.add_parser("sweep", help="run a scenario over a parameter")
    sweep_p.add_argument("scenario", help="scenario JSON file")
    sweep_p.add_argument("--vary", required=True,
                         help="key=v1,v2,... (wired_nd, ack_per_frames, "
                              "epsilon)")
    sweep_p.add_argument("--out", default=None,
                         help="root directory for per-value run outputs")

    report_p = sub.add_parser("report",
                              help="recompute metrics from persisted runs")
    report_p.add_argument("out_dir", help="run directory or sweep root")
    return parser


def _print_metrics(metrics, label: str = "") -> None:
    if label:
        print(f"== {label} ==")
    print(metrics_csv_text(metrics), end="")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            scn = load_scenario(args.scenario, seed=args.seed)
            metrics = run_scenario(scn, out_dir=args.out)
            _print_metrics(metrics)
        elif args.command == "sweep":
            scn = load_scenario(args.scenario)
            key, values = parse_vary(args.vary)
            results = sweep_scenario(scn, key, values, out_dir=args.out)
            for value, metrics in results.items():
                _print_metrics(metrics, label=f"{key}={value:g}")
        elif args.command == "report":
            run_dirs = find_run_dirs(args.out_dir)
            if not run_dirs:
                raise ScenarioError(f"{args.out_dir}: no runs found")
            for run_dir in run_dirs:
                metrics = report_run_dir(run_dir)
                _print_metrics(metrics, label=str(run_dir))
                write_metrics_csv(Path(run_dir) / METRICS_CSV, metrics)
    except (ScenarioError, TraceError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        # a MemoryError() has an empty str(); its type still names the fault
        print(f"runtime error: {str(exc) or type(exc).__name__}",
              file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
