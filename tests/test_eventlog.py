"""The event log written to its sink during a run, and read back by
report; a run without a sink formats no line."""
import dataclasses
import io
import re
from collections import Counter

import pytest

from conftest import events

import ransim.world
from ransim import (FlowPredictor, SimWorld, VideoFrame, compute_metrics,
                    harness, mean_alloc_bw)
from ransim.eventlog import CHUNK_LINES, FRAME_EVENTS, HEADER, EventLog
from ransim.harness import (ScenarioError, build_world, report_run_dir,
                            run_scenario, scenario_from_dict, sweep_scenario)

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
        # the file run_scenario writes holds what an io.StringIO sink holds
        scn = scenario_from_dict(MIXED_FULL)
        run_scenario(scn, tmp_path / "run")
        sink = io.StringIO()
        build_world(scn, log_sink=sink).run(scn.duration_s)
        streamed = (tmp_path / "run" / "events.log").read_bytes()
        assert streamed == sink.getvalue().encode()
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
        # as soon as the run returns, with events.log still open
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
        sink = io.StringIO()
        with pytest.raises(RuntimeError, match="fault injected"):
            build_world(scn, log_sink=sink).run(scn.duration_s)
        partial = (tmp_path / "run" / "events.log").read_text()
        # every line logged before the fault; it falls inside a chunk (one
        # header line plus whole chunks would leave 1), so the tail comes
        # from the write on the way out
        assert partial == sink.getvalue()
        assert partial.count("\n") % CHUNK_LINES != 1
        assert partial.count("\n") > 3 * CHUNK_LINES
        assert ",run_info," not in partial
        assert not (tmp_path / "run" / "metrics.csv").exists()
        with pytest.raises(ScenarioError, match="no run_info record"):
            report_run_dir(tmp_path / "run")


class TestEventLog:
    def test_lines_held_until_written(self):
        sink = io.StringIO()
        log = EventLog(sink)
        log.add(0.1 + 0.2, "tx_block", 2, 1200, "prbs=4;mcs=a,b")
        log.add(1.5, "frame_done", 0, 900, "frame=7")
        lines = ["0.30000000000000004,tx_block,2,1200,prbs=4;mcs=a,b\n",
                 "1.5,frame_done,0,900,frame=7\n"]
        assert sink.getvalue() == HEADER
        assert log.records == lines
        log.write()
        assert log.records == []
        assert sink.getvalue() == HEADER + "".join(lines)

    def test_frames_level_keeps_frame_events(self):
        logged = {}
        for level in ("frames", "full"):
            scn = scenario_from_dict(dict(MIXED_FULL, log_level=level,
                                          duration_s=0.5))
            world = build_world(scn, log_sink=io.StringIO())
            world.run(scn.duration_s)
            logged[level] = Counter(r.event for r in events(world))
        assert set(logged["frames"]) == FRAME_EVENTS
        assert set(logged["full"]) > FRAME_EVENTS
        for event in FRAME_EVENTS:
            assert logged["frames"][event] == logged["full"][event]


class _Formatted(float):
    """A float that counts, under its label, each time it is formatted with
    repr, as every float field of a log line is."""

    def __new__(cls, value, label, counts):
        obj = super().__new__(cls, value)
        obj.label, obj.counts = label, counts
        return obj

    def __repr__(self):
        self.counts[self.label] += 1
        return float.__repr__(self)


class TestWithoutSink:
    def test_run_and_sweep_format_no_line(self, tmp_path, monkeypatch):
        # EventLog.add is never called, and no line is built: the frame
        # fields, the prediction and the scone capacity the lines carry
        # become _Formatted floats, and none is formatted
        adds, formatted = [], Counter()
        monkeypatch.setattr(EventLog, "add",
                            lambda log, *args: adds.append(args))
        for field in ("target_bps", "actual_bps", "delay_ms"):
            raw = VideoFrame.__dict__[field]

            def read(frame, _raw=raw, _field=field):
                value = _raw.__get__(frame)
                return (value if value is None
                        else _Formatted(value, _field, formatted))
            monkeypatch.setattr(VideoFrame, field, property(
                read, getattr(raw, "__set__", None)))
        compute = FlowPredictor.compute

        def predict(predictor, now, samples):
            pred = compute(predictor, now, samples)
            return dataclasses.replace(pred, **{
                f: _Formatted(getattr(pred, f), f, formatted)
                for f in ("fi", "mean_bw", "pred_q", "guidance")})
        monkeypatch.setattr(FlowPredictor, "compute", predict)
        monkeypatch.setattr(ransim.world, "mean_alloc_bw", lambda *args:
                            _Formatted(mean_alloc_bw(*args), "capacity",
                                       formatted))
        scn = scenario_from_dict(MIXED_FULL)
        metrics = run_scenario(scn)
        sweep_scenario(scn, "wired_nd_ms", [1.0, 5.0])
        assert adds == [] and formatted == Counter()
        assert metrics.flow(0).frames > 0
        # the spies see the lines of a run that keeps its log
        run_scenario(scn, tmp_path)
        assert len(adds) > CHUNK_LINES
        assert set(formatted) == {"target_bps", "actual_bps", "delay_ms",
                                  "fi", "mean_bw", "pred_q", "guidance",
                                  "capacity"}


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
