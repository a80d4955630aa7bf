"""Line-delimited event log: ``time_ms,event,flow_id,bytes,detail``.

The log is the ground truth for post-hoc analysis: run metrics are a pure
function of the frame events recorded here.

A log writes to a sink, a text file or an ``io.StringIO``, given when the
world is built: the header at once, then each event formatted into its line
and written when it is added. The log holds no text; the sink's own buffer
batches the writes. A world built without a sink has no log and formats no
line; which events it logs (its level) the world decides.
"""
from __future__ import annotations

from collections.abc import Iterator
from typing import TextIO

LEVEL_FRAMES = "frames"
LEVEL_FULL = "full"
HEADER = "time_ms,event,flow_id,bytes,detail\n"

# events kept at the compact "frames" level; the metrics read only these
FRAME_EVENTS = frozenset({"frame_encode", "frame_done", "run_info"})


class EventLog:
    """Append-only log of formatted lines, each written to its sink when it
    is added."""

    def __init__(self, sink: TextIO):
        self._sink = sink
        sink.write(HEADER)

    @property
    def records(self) -> tuple:
        """Always empty, as the log holds no line. Kept only for
        perfbench/worker.py, which reads its len() after each run; ROADMAP
        item 5 drops that read and this property."""
        return ()

    def add(self, time_ms: float, event: str, flow_id: int, nbytes: int,
            detail: str = "") -> None:
        # repr keeps the full float, so metrics recomputed from the log are
        # bit-identical to the in-memory ones
        self._sink.write(f"{time_ms!r},{event},{flow_id},{nbytes},{detail}\n")

    def write(self) -> None:
        """Flush the sink, so every line added is in its file."""
        self._sink.flush()


def parse_event_log(path) -> Iterator[tuple[float, str, int, int, str]]:
    """The frame-level records (FRAME_EVENTS) of the log at path, each a
    plain tuple (time_ms, event, flow_id, nbytes, detail), yielded one at a
    time while the file is read; the metrics read nothing else, so other
    lines are split but not kept. A malformed log raises ValueError while
    the records are iterated."""
    with open(path, encoding="utf-8") as fh:
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
                yield (float(time_s), event, int(flow_s), int(bytes_s),
                       detail.rstrip("\n"))
