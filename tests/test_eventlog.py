"""The event log streamed to disk during a run, and read back by report."""
import re

import pytest

from ransim import SimWorld, compute_metrics, harness
from ransim.eventlog import CHUNK_LINES, FRAME_EVENTS, HEADER, EventLog
from ransim.harness import (ScenarioError, build_world, report_run_dir,
                            run_scenario, scenario_from_dict)

# full logging, heavy loss with HARQ failures that exhaust the one
# retransmission, and a flow that leaves at 1 s
MIXED_FULL = {
    "duration_s": 2.5, "seed": 3, "log_level": "full",
    "ran": {"bler": 0.3, "harq_max_rtx": 1,
            "trace": {"kind": "square", "high": 30.0, "low": 8.0,
                      "period_ttis": 400}},
    "flows": [{"controller": "choir"}, {"controller": "scone"},
              {"controller": "oracle"},
              {"controller": "choir", "stop_s": 1.0}],
}


class _PeakList(list):
    """A list that remembers the most items it ever held."""
    peak = 0

    def append(self, item):
        super().append(item)
        self.peak = max(self.peak, len(self))


@pytest.fixture
def built(monkeypatch):
    """Worlds built by run_scenario, each with a spy on its held lines."""
    worlds = []

    def spying_build_world(*args, **kwargs):
        world = build_world(*args, **kwargs)
        world.log._lines = _PeakList()
        worlds.append(world)
        return world

    monkeypatch.setattr(harness, "build_world", spying_build_world)
    return worlds


def _assert_same_metrics(got, expected):
    # a flow with no frame after the warm-up has NaN delays, so compare the
    # delay series rather than the NaN-valued fields
    assert (got.duration_ms, got.jain) == (expected.duration_ms, expected.jain)
    assert got.flows.keys() == expected.flows.keys()
    for fid, fm in expected.flows.items():
        gm = got.flow(fid)
        assert gm.delays_ms == fm.delays_ms
        assert (gm.frames, gm.undelivered, gm.avg_mbps) == \
            (fm.frames, fm.undelivered, fm.avg_mbps)


class TestStreamedLog:
    def test_equals_in_memory_write(self, tmp_path):
        scn = scenario_from_dict(MIXED_FULL)
        run_scenario(scn, tmp_path / "run")
        in_memory = build_world(scn)
        in_memory.run(scn.duration_s)
        in_memory.log.write(tmp_path / "memory.log")
        streamed = (tmp_path / "run" / "events.log").read_bytes()
        assert streamed == (tmp_path / "memory.log").read_bytes()
        # the scenario reaches the cases it is meant to cover
        assert b",harq_fail,3," in streamed
        assert b",rlc_requeue,3," in streamed
        assert streamed.count(b"\n") > 3 * CHUNK_LINES

    def test_held_lines_stay_within_one_chunk(self, tmp_path, built):
        run_scenario(scenario_from_dict(MIXED_FULL), tmp_path)
        lines = built[0].log._lines
        assert lines.peak == CHUNK_LINES
        written = (tmp_path / "events.log").read_text().count("\n")
        assert written > 3 * CHUNK_LINES

    def test_records_empty_after_streamed_run(self, tmp_path, built,
                                              monkeypatch):
        held = []
        run = SimWorld.run

        def run_then_look(world, duration_s):
            run(world, duration_s)
            held.append((len(world.log.records), list(world.log.records)))

        monkeypatch.setattr(SimWorld, "run", run_then_look)
        run_scenario(scenario_from_dict(MIXED_FULL), tmp_path)
        # as soon as the run returns, still inside the stream
        assert held == [(0, [])]
        assert len(built[0].log.records) == 0

    def test_failed_run_leaves_what_was_logged(self, tmp_path,
                                               monkeypatch):
        scn = scenario_from_dict(MIXED_FULL)
        step = SimWorld.step

        def failing_step(world):
            if world.tti_index == 2500:  # half way
                raise RuntimeError("fault injected mid-run")
            step(world)

        monkeypatch.setattr(SimWorld, "step", failing_step)
        with pytest.raises(RuntimeError, match="fault injected"):
            run_scenario(scn, tmp_path / "run")
        in_memory = build_world(scn)
        with pytest.raises(RuntimeError, match="fault injected"):
            in_memory.run(scn.duration_s)
        in_memory.log.write(tmp_path / "memory.log")
        partial = (tmp_path / "run" / "events.log").read_text()
        # every line logged before the fault; it falls inside a chunk (one
        # header line plus whole chunks would leave 1), so the tail comes
        # from the flush on the way out
        assert partial == (tmp_path / "memory.log").read_text()
        assert partial.count("\n") % CHUNK_LINES != 1
        assert partial.count("\n") > 3 * CHUNK_LINES
        assert ",run_info," not in partial
        assert not (tmp_path / "run" / "metrics.csv").exists()
        with pytest.raises(ScenarioError, match="no run_info record"):
            report_run_dir(tmp_path / "run")


class TestInMemoryLog:
    def test_records_parse_the_held_lines(self):
        log = EventLog()
        log.add(0.1 + 0.2, "tx_block", 2, 1200, "prbs=4;mcs=a,b")
        log.add(1.5, "frame_done", 0, 900, "frame=7")
        records = log.records
        assert len(records) == 2
        assert records[0].time_ms == 0.1 + 0.2
        assert records[0].detail == "prbs=4;mcs=a,b"
        assert records[-1].line() == "1.5,frame_done,0,900,frame=7"
        assert [r.event for r in records[1:]] == ["frame_done"]
        log.add(2.0, "run_info", -1, 0, "duration_ms=2.0;seed=0")
        assert len(records) == 3  # a live view

    def test_frames_level_keeps_frame_events(self):
        log = EventLog("frames")
        for event in ("tx_block", *sorted(FRAME_EVENTS)):
            log.add(1.0, event, 0, 0)
        assert {r.event for r in log.records} == FRAME_EVENTS


class TestReport:
    def test_full_log_equals_in_memory_metrics(self, tmp_path, built):
        scn = scenario_from_dict(MIXED_FULL)
        direct = run_scenario(scn, tmp_path)
        world = built[0]
        expected = compute_metrics(world.frames_by_flow(), world.duration_ms,
                                   scn.warmup_ms)
        _assert_same_metrics(direct, expected)
        _assert_same_metrics(report_run_dir(tmp_path), expected)
        assert any(fm.frames == 0 for fm in expected.flows.values())

    def test_bad_header_raises(self, tmp_path):
        (tmp_path / "events.log").write_text("time,event\n0.0,x,0,0,\n")
        with pytest.raises(ValueError, match="not an event log"):
            report_run_dir(tmp_path)

    def test_detail_with_commas_and_semicolons(self, tmp_path):
        (tmp_path / "events.log").write_text(
            HEADER +
            "0.5,frame_encode,0,1000,frame=0;target=8e5;actual=8e5;n=a,b\n"
            "1.0,predict,0,0,q=1,2,3;;x\n"
            "5.5,frame_done,0,1000,frame=0;note=x,y;;z\n"
            "\n"
            "10.0,run_info,-1,0,duration_ms=10.0;seed=0\n")
        records = list(harness.parse_event_log(tmp_path / "events.log"))
        assert [r.event for r in records] == \
            ["frame_encode", "frame_done", "run_info"]
        assert records[1].detail == "frame=0;note=x,y;;z"
        m = report_run_dir(tmp_path, warmup_ms=0.0)
        assert m.duration_ms == 10.0
        assert m.flow(0).delays_ms == (5.0,)
        assert m.flow(0).avg_mbps == 1000 * 8.0 / 0.01 / 1e6

    def test_truncated_log_is_rejected(self, tmp_path):
        scn = scenario_from_dict(dict(MIXED_FULL, log_level="frames",
                                      flows=[{"controller": "choir"}]))
        run_scenario(scn, tmp_path)
        log = tmp_path / "events.log"
        lines = log.read_text().splitlines(keepends=True)
        log.write_text("".join(lines[:len(lines) // 2]))
        with pytest.raises(ScenarioError,
                           match=re.escape(f"{log}: no run_info record")):
            report_run_dir(tmp_path)

    @pytest.mark.parametrize("tail", ["1250.5,frame_do", "1250.5,frame_done",
                                      "1250.5,frame_done,0,9",
                                      "16.6,frame_encode,0,9,frame=1;tar"])
    def test_log_cut_mid_line_is_rejected(self, tmp_path, tail):
        log = tmp_path / "events.log"
        log.write_text(HEADER + tail)
        with pytest.raises(ScenarioError, match=re.escape(f"{log}: ")):
            report_run_dir(tmp_path)
