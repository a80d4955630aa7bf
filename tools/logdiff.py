#!/usr/bin/env python3
"""Explain how two runs' outputs differ: ``python3 tools/logdiff.py A B``.

A and B are two run dirs (each file present in either is compared) or two
files. For an ``events.log`` the lines of each event kind are paired in
order, so one extra line shifts only its own kind. For each file that
differs this prints the count of differing lines by event kind (for a CSV,
of rows), the first differing pair, and the largest relative difference of
each numeric field: the log's ``time_ms`` and ``bytes`` and each ``key=value``
of its detail, named ``kind.key``, or each CSV column. Exit status: 0 when
everything is identical, 1 when something differs, 2 on bad arguments.
Standard library only.
"""
from __future__ import annotations

import math
import sys
from itertools import zip_longest
from pathlib import Path

LOG_HEADER = "time_ms,event,flow_id,bytes,detail"


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _log_fields(line: str) -> tuple[str, dict[str, str]]:
    """(event kind, numeric candidates) of one event-log line."""
    time_ms, kind, _, nbytes, detail = (line.split(",", 4) + [""] * 5)[:5]
    fields = {"time_ms": time_ms, "bytes": nbytes}
    for item in detail.split(";"):
        key, sep, value = item.partition("=")
        if sep:
            fields[f"{kind}.{key}"] = value
    return kind, fields


def compare(a: list[str], b: list[str]) -> list[str] | None:
    """Report lines for two files' lines, or None when they are equal."""
    if a == b:
        return None
    is_log = a[:1] == [LOG_HEADER]
    header = a[0].split(",") if a else []

    def fields(line):
        if is_log:
            return _log_fields(line)
        return "rows", dict(zip(header, line.split(",")))
    groups: dict[str, tuple[list[str], list[str]]] = {}
    for side, lines in enumerate((a[1:], b[1:])):
        for line in lines:
            groups.setdefault(fields(line)[0], ([], []))[side].append(line)
    out = [f"  {len(a)} against {len(b)} lines; differing lines"
           + (" by event kind:" if is_log else ":")]
    worst: dict[str, float] = {}
    for kind, (la, lb) in sorted(groups.items()):
        pairs = [(x, y) for x, y in zip_longest(la, lb) if x != y]
        if pairs:
            out.append(f"    {kind:<16} {len(pairs)}")
        for x, y in pairs:
            if x is None or y is None:
                continue
            fx, fy = fields(x)[1], fields(y)[1]
            for name in fx.keys() & fy.keys():
                nx, ny = _number(fx[name]), _number(fy[name])
                if nx is not None and ny is not None:
                    worst[name] = max(worst.get(name, 0.0), _relative(nx, ny))
    first = next(i for i, (x, y) in enumerate(zip_longest(a, b)) if x != y)
    out.append(f"  first difference, line {first + 1}:")
    for mark, lines in (("-", a), ("+", b)):
        out.append(f"  {mark} "
                   + (lines[first] if first < len(lines) else "(none)"))
    if worst:
        out.append("  largest relative difference by "
                   + ("field:" if is_log else "column:"))
        out.extend(f"    {name:<24} {value:.3g}"
                   for name, value in sorted(worst.items()))
    return out


def _read(path: Path) -> list[str]:
    return path.read_text().splitlines() if path.exists() else []


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    a, b = Path(argv[0]), Path(argv[1])
    if a.is_dir() and b.is_dir():
        names = sorted({p.name for d in (a, b) for p in d.iterdir()
                        if p.is_file()})
        pairs = [(name, a / name, b / name) for name in names]
    elif a.is_file() and b.is_file():
        pairs = [(f"{a} {b}", a, b)]
    else:
        print(f"logdiff: need two run dirs or two files: {a} {b}",
              file=sys.stderr)
        return 2
    status = 0
    for name, pa, pb in pairs:
        report = compare(_read(pa), _read(pb))
        if report is None:
            print(f"{name}: identical")
        else:
            status = 1
            print(f"{name}: differs")
            print("\n".join(report))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
