"""The event log written to its sink during a run, and read back by
report; a run without a sink formats no line."""
import io
import math
import re
from array import array
from collections import Counter

import pytest

from conftest import EventRecord, decoded_delays, events

import ransim.world
from ransim import (FlowPredictor, SimWorld, VideoFrame, harness,
                    mean_alloc_bw)
from ransim.eventlog import FRAME_EVENTS, HEADER, EventLog
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


def _assert_same_columns(got, expected):
    # the (frame columns by flow, duration) each side passed to
    # compute_metrics, compared byte for byte, as an undecoded frame's NaN
    # is unequal to itself
    assert got[1] == expected[1]
    assert got[0].keys() == expected[0].keys()
    for fid, cols in expected[0].items():
        assert [(c.typecode, c.tobytes()) for c in got[0][fid]] == \
            [(c.typecode, c.tobytes()) for c in cols], f"flow {fid}"


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
        assert streamed.count(b"\n") > 20_000

    def test_log_holds_no_line(self, tmp_path, monkeypatch):
        # after every add the log keeps its sink and nothing else, so each
        # line is in the file object, none held back for a later write
        kept = []
        add = EventLog.add

        def add_then_look(log, *args):
            add(log, *args)
            kept.append((frozenset(vars(log)), len(log.records)))

        monkeypatch.setattr(EventLog, "add", add_then_look)
        run_scenario(scenario_from_dict(MIXED_FULL), tmp_path)
        assert len(kept) > 20_000
        assert set(kept) == {(frozenset({"_sink"}), 0)}
        written = (tmp_path / "events.log").read_text().count("\n")
        assert written == len(kept) + 1  # and the header

    def test_records_empty_after_streamed_run(self, tmp_path, monkeypatch):
        held = []
        run = SimWorld.run

        def run_then_look(world, duration_s):
            run(world, duration_s)
            held.append(world.log.records)

        monkeypatch.setattr(SimWorld, "run", run_then_look)
        run_scenario(scenario_from_dict(MIXED_FULL), tmp_path)
        # as soon as the run returns, with events.log still open
        assert held == [()]

    def test_failed_run_leaves_what_was_logged(self, tmp_path,
                                               monkeypatch):
        scn = scenario_from_dict(MIXED_FULL)
        step = SimWorld.step

        def failing_step(world):
            if world.tti_index == 2500:  # half way
                raise RuntimeError("fault injected mid-run")
            step(world)

        monkeypatch.setattr(SimWorld, "step", failing_step)
        sink = io.StringIO()
        with pytest.raises(RuntimeError, match="fault injected"):
            build_world(scn, log_sink=sink).run(scn.duration_s)
        partial = sink.getvalue()
        assert partial.count("\n") > 10_000
        assert ",run_info," not in partial
        # every line logged before the fault is on disk when run raises,
        # before the file is closed
        log = tmp_path / "open.log"
        with open(log, "w", encoding="utf-8") as fh:
            with pytest.raises(RuntimeError, match="fault injected"):
                build_world(scn, log_sink=fh).run(scn.duration_s)
            assert log.read_text(encoding="utf-8") == partial
        with pytest.raises(RuntimeError, match="fault injected"):
            run_scenario(scn, tmp_path / "run")
        assert (tmp_path / "run" / "events.log").read_text() == partial
        assert not (tmp_path / "run" / "metrics.csv").exists()
        with pytest.raises(ScenarioError, match="no run_info record"):
            report_run_dir(tmp_path / "run")


class TestEventLog:
    def test_sink_holds_each_line_when_added(self):
        sink = io.StringIO()
        log = EventLog(sink)
        assert sink.getvalue() == HEADER
        log.add(0.1 + 0.2, "tx_block", 2, 1200, "prbs=4;mcs=a,b")
        line = "0.30000000000000004,tx_block,2,1200,prbs=4;mcs=a,b\n"
        assert sink.getvalue() == HEADER + line
        log.add(1.5, "frame_done", 0, 900, "frame=7")
        line += "1.5,frame_done,0,900,frame=7\n"
        assert sink.getvalue() == HEADER + line
        log.write()
        assert sink.getvalue() == HEADER + line
        assert log.records == ()

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


class _EncodeColumn(array):
    """A flow's encode column whose entries, read by index as the
    frame_done line reads them, subtract into a _Formatted "delay"."""

    def __getitem__(self, i):
        return _Subtrahend(super().__getitem__(i), self.counts)


class _Subtrahend(float):
    def __new__(cls, value, counts):
        obj = super().__new__(cls, value)
        obj.counts = counts
        return obj

    def __rsub__(self, other):
        return _Formatted(other - float(self), "delay", self.counts)


class TestWithoutSink:
    def test_run_and_sweep_format_no_line(self, tmp_path, monkeypatch):
        # EventLog.add is never called, and no line is built: the frame
        # fields, the frame_done delay, the prediction and the scone
        # capacity the lines carry become _Formatted floats, and none is
        # formatted
        adds, formatted = [], Counter()
        monkeypatch.setattr(EventLog, "add",
                            lambda log, *args: adds.append(args))
        add_flow = SimWorld.add_flow

        def spied_add_flow(world, cfg):
            fr = add_flow(world, cfg)
            fr.encode_ms = _EncodeColumn("d", fr.encode_ms)
            fr.encode_ms.counts = formatted
            return fr
        monkeypatch.setattr(SimWorld, "add_flow", spied_add_flow)
        for field in ("target_bps", "actual_bps"):
            raw = VideoFrame.__dict__[field]

            def read(frame, _raw=raw, _field=field):
                return _Formatted(_raw.__get__(frame), _field, formatted)
            monkeypatch.setattr(VideoFrame, field, property(
                read, getattr(raw, "__set__", None)))
        compute = FlowPredictor.compute

        def predict(predictor, now, samples):
            pred = compute(predictor, now, samples)
            return pred._replace(**{
                f: _Formatted(getattr(pred, f), f, formatted)
                for f in ("fi", "mean_bw", "pred_q", "guidance")})
        monkeypatch.setattr(FlowPredictor, "compute", predict)
        monkeypatch.setattr(ransim.world, "mean_alloc_bw", lambda *args:
                            _Formatted(mean_alloc_bw(*args), "capacity",
                                       formatted))
        scn = scenario_from_dict(MIXED_FULL)
        metrics = run_scenario(scn)
        sweep_scenario(MIXED_FULL, [("wired_nd_ms", [1.0, 5.0])])
        assert adds == [] and formatted == Counter()
        assert metrics.flows[0].avg_mbps > 0
        # the spies see the lines of a run that keeps its log
        run_scenario(scn, tmp_path)
        assert len(adds) > 20_000
        assert set(formatted) == {"target_bps", "actual_bps", "delay",
                                  "fi", "mean_bw", "pred_q", "guidance",
                                  "capacity"}


class TestReport:
    def test_full_log_equals_in_memory_metrics(self, tmp_path,
                                               metrics_inputs):
        direct = run_scenario(scenario_from_dict(MIXED_FULL), tmp_path)
        reported = report_run_dir(tmp_path)
        run_in, report_in = metrics_inputs
        _assert_same_columns(report_in, run_in)
        assert harness.metrics_csv_text(reported) == \
            harness.metrics_csv_text(direct)
        # a flow with no frame after the warm-up, and undecoded frames
        assert any(not decoded_delays(cols) for cols in run_in[0].values())
        assert any(math.isnan(d) for _, decode, _ in run_in[0].values()
                   for d in decode)

    def test_bad_header_raises(self, tmp_path):
        (tmp_path / "events.log").write_text("time,event\n0.0,x,0,0,\n")
        with pytest.raises(ValueError, match="not an event log"):
            report_run_dir(tmp_path)

    def test_detail_with_commas_and_semicolons(self, tmp_path,
                                               metrics_inputs):
        (tmp_path / "events.log").write_text(
            HEADER +
            "0.5,frame_encode,0,1000,frame=0;target=8e5;actual=8e5;n=a,b\n"
            "1.0,predict,0,0,q=1,2,3;;x\n"
            "5.5,frame_done,0,1000,frame=0;note=x,y;;z\n"
            "\n"
            "10.0,run_info,-1,0,duration_ms=10.0;seed=0\n")
        records = [EventRecord(*r) for r in
                   harness.parse_event_log(tmp_path / "events.log")]
        assert [r.event for r in records] == \
            ["frame_encode", "frame_done", "run_info"]
        assert records[1].detail == "frame=0;note=x,y;;z"
        m = report_run_dir(tmp_path, warmup_ms=0.0)
        [(columns, duration_ms)] = metrics_inputs
        assert duration_ms == 10.0
        assert decoded_delays(columns[0], 0.0) == [5.0]
        assert m.flows[0].avg_mbps == 1000 * 8.0 / 0.01 / 1e6

    def test_parse_yields_plain_tuples(self, tmp_path):
        # the last line has no newline to strip
        (tmp_path / "events.log").write_text(
            HEADER +
            "0.5,frame_encode,0,1000,frame=0;target=8e5;actual=8e5\n"
            "1.0,predict,0,0,q=1\n"
            "10.0,run_info,-1,0,duration_ms=10.0;seed=0")
        records = list(harness.parse_event_log(tmp_path / "events.log"))
        assert records == [
            (0.5, "frame_encode", 0, 1000, "frame=0;target=8e5;actual=8e5"),
            (10.0, "run_info", -1, 0, "duration_ms=10.0;seed=0")]
        for rec in records:
            assert type(rec) is tuple
            assert [type(v) for v in rec] == [float, str, int, int, str]

    def test_frame_key_after_another_key_reads_the_same(self, tmp_path,
                                                        metrics_inputs):
        # the world writes frame= first; any other order takes the general
        # detail lookup and must give the same metrics
        scn = scenario_from_dict(dict(MIXED_FULL, log_level="frames"))
        run_scenario(scn, tmp_path / "usual")
        (tmp_path / "moved").mkdir()
        lines = (tmp_path / "usual" / "events.log").read_text().splitlines(
            keepends=True)
        moved = []
        for line in lines:
            head, sep, detail = line.rpartition(",")
            if detail.startswith("frame="):
                frame, _, rest = detail.rstrip("\n").partition(";")
                detail = f"{rest};{frame}\n"
            moved.append(head + sep + detail)
        frame_lines = sum(line.split(",")[1].startswith("frame_")
                          for line in lines)
        assert sum(";frame=" in line for line in moved) == frame_lines > 0
        (tmp_path / "moved" / "events.log").write_text("".join(moved))
        report_run_dir(tmp_path / "moved")
        report_run_dir(tmp_path / "usual")
        _assert_same_columns(metrics_inputs[-2], metrics_inputs[-1])

    def test_non_frame_line_cut_to_three_fields_is_rejected(self, tmp_path):
        # report keeps only frame lines, but splits every line into its five
        # fields
        run_scenario(scenario_from_dict(
            dict(MIXED_FULL, flows=[{"controller": "choir"}])), tmp_path)
        log = tmp_path / "events.log"
        lines = log.read_text().splitlines(keepends=True)
        mid = next(i for i in range(len(lines) // 2, len(lines))
                   if lines[i].split(",")[1] not in FRAME_EVENTS)
        lines[mid] = ",".join(lines[mid].split(",")[:3]) + "\n"
        log.write_text("".join(lines))
        with pytest.raises(ScenarioError, match=re.escape(f"{log}: ")):
            report_run_dir(tmp_path)

    def test_frame_done_without_its_encode_is_ignored(self, tmp_path,
                                                      metrics_inputs):
        # frame 1 of flow 0, and flow 1, have no frame_encode line
        (tmp_path / "events.log").write_text(
            HEADER +
            "0.5,frame_encode,0,1000,frame=0;target=8e5;actual=8e5\n"
            "4.0,frame_done,0,900,frame=1;delay=3.5\n"
            "4.5,frame_done,1,900,frame=0;delay=4.0\n"
            "5.5,frame_done,0,1000,frame=0;delay=5.0\n"
            "10.0,run_info,-1,0,duration_ms=10.0;seed=0\n")
        m = report_run_dir(tmp_path, warmup_ms=0.0)
        assert list(m.flows) == [0]
        [(columns, _)] = metrics_inputs
        assert [list(c) for c in columns[0]] == [[0.5], [5.5], [1000]]

    def test_flow_without_a_decoded_frame_reads_nan(self, tmp_path,
                                                    metrics_inputs):
        (tmp_path / "events.log").write_text(
            HEADER +
            "0.5,frame_encode,0,1000,frame=0;target=8e5;actual=8e5\n"
            "0.5,frame_encode,1,700,frame=0;target=8e5;actual=8e5\n"
            "5.5,frame_done,0,1000,frame=0;delay=5.0\n"
            "17.1,frame_encode,1,700,frame=1;target=8e5;actual=8e5\n"
            "20.0,run_info,-1,0,duration_ms=20.0;seed=0\n")
        m = report_run_dir(tmp_path, warmup_ms=0.0)
        f = m.flows[1]
        assert f.avg_mbps == 0.0
        [(columns, _)] = metrics_inputs
        assert [math.isnan(d) for d in columns[1][1]] == [True, True]
        assert all(math.isnan(v) for v in (f.avg_delay_ms, f.p95_ms,
                                            f.p999_ms))
        harness.write_metrics_csv(tmp_path / "metrics.csv", m)
        rows = (tmp_path / "metrics.csv").read_text().splitlines()
        assert rows[2] == "1,nan,nan,nan,0.000000,0.500000"

    def test_frame_encoded_out_of_order_is_rejected(self, tmp_path):
        # a flow's frame ids index its columns, so its encodes come in
        # frame-id order, as the world logs them
        log = tmp_path / "events.log"
        log.write_text(
            HEADER +
            "0.5,frame_encode,0,1000,frame=1;target=8e5;actual=8e5\n"
            "10.0,run_info,-1,0,duration_ms=10.0;seed=0\n")
        with pytest.raises(ScenarioError, match=re.escape(
                f"{log}: flow 0: frame 1 encoded as its frame 0")):
            report_run_dir(tmp_path)

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
