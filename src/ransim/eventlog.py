"""Line-delimited event log: ``time_ms,event,flow_id,bytes,detail``.

The log is the ground truth for post-hoc analysis: run metrics are a pure
function of the frame events recorded here.

Each event is formatted into its line when it is added. The lines stay in
memory until ``write``, unless the log streams to a file (``stream_to``):
then every ``CHUNK_LINES`` lines are written out, so a run of any length
holds at most one chunk.
"""
from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Iterator, Sequence
from contextlib import contextmanager

LEVEL_FRAMES = "frames"
LEVEL_FULL = "full"
HEADER = "time_ms,event,flow_id,bytes,detail\n"
CHUNK_LINES = 4096

# events kept at the compact "frames" level; the metrics read only these
FRAME_EVENTS = frozenset({"frame_encode", "frame_done", "run_info"})


class EventRecord(namedtuple("EventRecord",
                             "time_ms event flow_id nbytes detail")):
    """One log line: time_ms (float), event, flow_id and nbytes (int) and
    detail. A tuple, so building one is cheap where report builds many."""
    __slots__ = ()

    def line(self) -> str:
        # repr keeps the full float so metrics recomputed from the log are
        # bit-identical to the in-memory ones
        return (f"{self.time_ms!r},{self.event},{self.flow_id},"
                f"{self.nbytes},{self.detail}")


class _HeldRecords(Sequence):
    """Live view of the lines a log holds, parsed into records on access."""

    def __init__(self, lines: list[str]):
        self._lines = lines

    def __len__(self) -> int:
        return len(self._lines)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [_parse_line(line) for line in self._lines[index]]
        return _parse_line(self._lines[index])


def _parse_line(line: str) -> EventRecord:
    time_s, event, flow_s, bytes_s, detail = line.rstrip("\n").split(",", 4)
    return EventRecord(float(time_s), event, int(flow_s), int(bytes_s), detail)


class EventLog:
    """Append-only log of formatted lines, held in memory or streamed."""

    def __init__(self, level: str = LEVEL_FULL):
        if level not in (LEVEL_FRAMES, LEVEL_FULL):
            raise ValueError(f"unknown log level {level!r}")
        self.level = level
        self._lines: list[str] = []
        self._sink = None
        self._flush_at = sys.maxsize   # held lines that trigger a flush

    @property
    def records(self) -> Sequence[EventRecord]:
        """The lines still in memory; empty after streaming to a file."""
        return _HeldRecords(self._lines)

    def add(self, time_ms: float, event: str, flow_id: int, nbytes: int,
            detail: str = "") -> None:
        if self.level == LEVEL_FRAMES and event not in FRAME_EVENTS:
            return
        lines = self._lines  # the text of EventRecord.line
        lines.append(f"{time_ms!r},{event},{flow_id},{nbytes},{detail}\n")
        if len(lines) >= self._flush_at:
            self.flush()

    def flush(self) -> None:
        """Write the held lines out when streaming; otherwise keep them."""
        if self._sink is not None:
            self._sink.write("".join(self._lines))
            self._lines.clear()

    @contextmanager
    def stream_to(self, path):
        """Write the log to a new file at path, while the block runs.

        The held lines go out every CHUNK_LINES and on exit, also when the
        block raises.
        """
        with open(path, "w") as fh:
            fh.write(HEADER)
            self._sink, self._flush_at = fh, CHUNK_LINES
            try:
                yield
            finally:
                self.flush()
                self._sink, self._flush_at = None, sys.maxsize

    def write(self, path) -> None:
        """Write the lines held in memory to a new file at path."""
        with open(path, "w") as fh:
            fh.write(HEADER)
            fh.writelines(self._lines)


def parse_event_log(path) -> Iterator[EventRecord]:
    """The frame-level records (FRAME_EVENTS) of the log at path, yielded
    one at a time while the file is read; the metrics read nothing else, so
    other lines are split but not kept. A malformed log raises ValueError
    while the records are iterated."""
    with open(path) as fh:
        header = fh.readline()
        if header.strip() != HEADER.strip():
            raise ValueError(f"not an event log: header {header.rstrip()!r}")
        for line in fh:
            if line == "\n":
                continue
            # a split line ends in its last field, so only a kept detail
            # needs the newline stripped
            time_s, event, flow_s, bytes_s, detail = line.split(",", 4)
            if event in FRAME_EVENTS:
                yield EventRecord(float(time_s), event, int(flow_s),
                                  int(bytes_s), detail.rstrip("\n"))
