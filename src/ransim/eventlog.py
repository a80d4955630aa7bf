"""Line-delimited event log: ``time_ms,event,flow_id,bytes,detail``.

The log is the ground truth for post-hoc analysis: run metrics are a pure
function of the frame events recorded here.

A log writes to a sink, a text file or an ``io.StringIO``, given when the
world is built: the header at once, then each event formatted into its line
when it is added, every ``CHUNK_LINES`` lines and at the end of the run. So
a run of any length holds at most one chunk. A world built without a sink
has no log and formats no line; which events it logs (its level) the world
decides.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from typing import TextIO

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


class EventLog:
    """Append-only log of formatted lines, written to its sink in chunks."""

    def __init__(self, sink: TextIO):
        self._sink = sink
        self._lines: list[str] = []
        sink.write(HEADER)

    @property
    def records(self) -> list[str]:
        """The lines not yet written; empty after SimWorld.run. Kept only for
        perfbench/worker.py, which reads its len() after each run; ROADMAP
        item 2 drops that read and this property."""
        return self._lines

    def add(self, time_ms: float, event: str, flow_id: int, nbytes: int,
            detail: str = "") -> None:
        lines = self._lines
        # repr keeps the full float, so metrics recomputed from the log are
        # bit-identical to the in-memory ones
        lines.append(f"{time_ms!r},{event},{flow_id},{nbytes},{detail}\n")
        if len(lines) >= CHUNK_LINES:
            self.write()

    def write(self) -> None:
        """Write the held lines to the sink."""
        self._sink.write("".join(self._lines))
        self._lines.clear()


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
