import gc
import json
import math
import re
import tracemalloc
import weakref
from pathlib import Path

import pytest

import ransim.cli
from ransim.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from ransim.harness import (Scenario, ScenarioError, build_world,
                            load_scenario, parse_vary, report_run_dir,
                            run_scenario, scenario_from_dict, sweep_scenario)
from ransim.world import SimWorld

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def base_config(**overrides):
    cfg = {
        "duration_s": 3.0,
        "seed": 5,
        "ran": {
            "prb_total": 100, "tti_ms": 0.5, "tdd_pattern": "DDDSU",
            "bler": 0.0,
            "trace": {"kind": "constant", "bytes_per_prb": 30.0},
        },
        "flows": [
            {"controller": "choir", "wired_nd_ms": 1.0}
        ],
    }
    cfg.update(overrides)
    return cfg


def write_scenario(tmp_path, cfg, name="scn.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


class TestScenarioValidation:
    def test_minimal_valid(self):
        scn = scenario_from_dict(base_config())
        assert scn.duration_s == 3.0
        assert scn.flows[0].controller == "choir"

    @pytest.mark.parametrize("duration_s", [math.nan, math.inf])
    def test_python_api_rejects_non_finite_duration(self, duration_s):
        scn = scenario_from_dict(base_config())
        with pytest.raises(ScenarioError, match="^duration_s must be "):
            Scenario(scn.ran, scn.flows, duration_s)

    def test_unknown_controller(self):
        cfg = base_config()
        cfg["flows"][0]["controller"] = "bbr"
        with pytest.raises(ScenarioError, match="unknown controller"):
            scenario_from_dict(cfg)

    def test_unknown_encoder(self):
        cfg = base_config()
        cfg["flows"].append({"controller": "scone", "encoder": "rmap"})
        with pytest.raises(ScenarioError, match=re.escape(
                "flows[1]: unknown encoder 'rmap'")):
            scenario_from_dict(cfg)

    def test_missing_duration(self):
        cfg = base_config()
        del cfg["duration_s"]
        with pytest.raises(ScenarioError, match="duration_s"):
            scenario_from_dict(cfg)

    def test_nonpositive_duration(self):
        with pytest.raises(ScenarioError, match="positive"):
            scenario_from_dict(base_config(duration_s=0))

    def test_empty_flows(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict(base_config(flows=[]))

    def test_duplicate_flow_ids(self):
        cfg = base_config()
        cfg["flows"] = [{"controller": "choir", "flow_id": 3},
                        {"controller": "scone", "flow_id": 3}]
        with pytest.raises(ScenarioError, match="duplicate"):
            scenario_from_dict(cfg)

    def test_unknown_trace_kind(self):
        cfg = base_config()
        cfg["ran"]["trace"] = {"kind": "sawtooth"}
        with pytest.raises(ScenarioError, match="unknown kind"):
            scenario_from_dict(cfg)

    def test_bad_ran_values(self):
        cfg = base_config()
        cfg["ran"]["bler"] = 1.5
        with pytest.raises(ScenarioError, match="ran"):
            scenario_from_dict(cfg)

    def test_missing_trace_file(self, tmp_path):
        cfg = base_config(trace_path=str(tmp_path / "absent.csv"))
        with pytest.raises(ScenarioError, match="cannot open"):
            scenario_from_dict(cfg)

    def test_trace_path_overrides_inline(self, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text("tti_index,bytes_per_prb\n0,12.5\n")
        cfg = base_config(trace_path=str(trace))
        scn = scenario_from_dict(cfg)
        assert scn.ran.schedule.materialize(1) == [12.5]

    def test_every_key_loads(self):
        cfg = base_config(log_level="frames", trace_path=None)
        cfg["ran"].update(harq_rtx_delay_ms=4.0, harq_max_rtx=2)
        cfg["ran"]["trace"] = {"kind": "random_walk", "low": 20.0,
                               "high": 40.0, "seed": 3, "step_fraction": 0.1,
                               "interval_ttis": 100}
        cfg["flows"] = [{"flow_id": 4, "controller": "scone",
                         "wired_nd_ms": 2.0, "ack_per_frames": 2,
                         "epsilon": 2, "encoder": "instant", "start_s": 0.5,
                         "stop_s": None, "initial_bitrate_mbps": 3.0}]
        scn = scenario_from_dict(cfg)
        assert scn.ran.harq_max_rtx == 2
        assert scn.flows[0].flow_id == 4 and scn.flows[0].stop_s is None

    @pytest.mark.parametrize("where,key", [
        ("scenario", "duraton_s"), ("ran", "blerr"),
        ("ran.trace", "bytes_per_prbs"), ("flows[0]", "wired_nd")])
    def test_unknown_key(self, where, key):
        cfg = base_config()
        target = {"scenario": cfg, "ran": cfg["ran"],
                  "ran.trace": cfg["ran"]["trace"],
                  "flows[0]": cfg["flows"][0]}[where]
        target[key] = 50
        with pytest.raises(ScenarioError,
                           match=re.escape(f"{where}: unknown key {key!r}")):
            scenario_from_dict(cfg)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("where,key", [
        ("scenario", "duration_s"), ("ran.trace", "bytes_per_prb"),
        ("flows[0]", "wired_nd_ms")])
    def test_non_finite_number(self, where, key, value):
        cfg = base_config()
        target = {"scenario": cfg, "ran.trace": cfg["ran"]["trace"],
                  "flows[0]": cfg["flows"][0]}[where]
        target[key] = value
        with pytest.raises(ScenarioError, match=re.escape(
                f"{where}: {key} must be a finite number")):
            scenario_from_dict(cfg)

    @pytest.mark.parametrize("where,key,value,message", [
        ("ran", "tdd_pattern", 5, "tdd_pattern must be a string"),
        ("scenario", "trace_path", 5, "trace_path must be a string"),
        ("ran", "prb_total", 100.9, "prb_total must be an integer"),
        ("flows[0]", "ack_per_frames", 1.5,
         "ack_per_frames must be an integer"),
        ("ran", "harq_max_rtx", True, "harq_max_rtx must be a number"),
        ("scenario", "duration_s", "10", "duration_s must be a number"),
        ("flows[0]", "initial_bitrate_mbps", -5,
         "initial_bitrate_mbps must be positive"),
        ("flows[0]", "initial_bitrate_mbps", 0,
         "initial_bitrate_mbps must be positive"),
        ("flows[0]", "start_s", -0.5, "start_s must be nonnegative"),
        # null is a value only for stop_s: here it is not the default 0.0
        ("flows[0]", "start_s", None, "start_s must be a number, got None"),
        # the cell is bounded by NR's physical limits, so no scenario asks
        # for unbounded work per TTI
        ("ran", "prb_total", 274, "prb_total must lie in [1, 273]"),
        ("ran", "prb_total", 1e7, "prb_total must lie in [1, 273]"),
        ("ran.trace", "bytes_per_prb", 1244.5,
         "bytes_per_prb at tti 0 must lie in [0, 1244]"),
        ("ran.trace", "bytes_per_prb", 1e7,
         "bytes_per_prb at tti 0 must lie in [0, 1244]")])
    def test_value_is_rejected_not_coerced(self, where, key, value, message):
        cfg = base_config()
        target = {"scenario": cfg, "ran": cfg["ran"],
                  "ran.trace": cfg["ran"]["trace"],
                  "flows[0]": cfg["flows"][0]}[where]
        target[key] = value
        with pytest.raises(ScenarioError,
                           match=re.escape(f"{where}: {message}")):
            scenario_from_dict(cfg)

    def test_largest_cell_loads(self):
        cfg = base_config()
        cfg["ran"]["prb_total"] = 273
        cfg["ran"]["trace"]["bytes_per_prb"] = 1244
        scn = scenario_from_dict(cfg)
        assert scn.ran.prb_total == 273
        assert scn.ran.schedule.breakpoints == ((0, 1244.0),)

    @pytest.mark.parametrize("edit,message", [
        (lambda cfg: [], "scenario root must be a JSON object"),
        (lambda cfg: cfg.update(ran=5), "ran must be a JSON object"),
        (lambda cfg: cfg["ran"].update(trace=5),
         "ran.trace must be a JSON object"),
        (lambda cfg: cfg.update(flows=[5]), "flows[0] must be a JSON object"),
        (lambda cfg: cfg["ran"]["trace"].pop("bytes_per_prb") and None,
         "ran.trace: missing required key 'bytes_per_prb'"),
        (lambda cfg: cfg["flows"][0].update(wired_nd_ms=None),
         "flows[0]: wired_nd_ms must be a number, got None"),
        (lambda cfg: cfg["flows"][0].update(controller=5),
         "flows[0]: unknown controller 5; "
         "expected one of ['choir', 'oracle', 'scone']"),
        (lambda cfg: cfg.update(log_level="x"),
         "log_level must be 'frames' or 'full', got 'x'"),
        (lambda cfg: cfg.update(flows=[{"flow_id": 3}, {"flow_id": 3}]),
         "duplicate flow_id in flows"),
        (lambda cfg: cfg.update(flows=[]), "flows must be a non-empty list"),
    ], ids=["root", "ran", "ran.trace", "flow", "missing", "null",
            "controller", "log_level", "duplicate_ids", "no_flows"])
    def test_message_of_each_rejection(self, edit, message):
        # an edit changes the config in place, or returns a new root
        cfg = base_config()
        edited = edit(cfg)
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(cfg if edited is None else edited)
        assert str(exc.value) == message

    @pytest.mark.parametrize("ran,cap", [
        ({}, 480.0),  # 100 PRBs of 30 B each 0.5 ms TTI: 48 Mbps peak
        ({"tti_ms": 1.0, "prb_total": 25}, 60.0),
        # the largest value of the trace sets the peak
        ({"trace": {"kind": "square", "high": 45.0, "low": 0.0,
                    "period_ttis": 40}}, 720.0),
    ])
    def test_initial_bitrate_capped_at_ten_times_peak_rate(self, ran, cap):
        cfg = base_config()
        cfg["ran"].update(ran)
        cfg["flows"].append({"initial_bitrate_mbps": cap})
        assert scenario_from_dict(cfg).flows[1].initial_bitrate_mbps == cap
        cfg["flows"][1]["initial_bitrate_mbps"] = cap * 1.001
        with pytest.raises(ScenarioError, match=re.escape(
                f"flows[1].initial_bitrate_mbps must be at most {cap:g}, "
                f"10 times the cell's peak rate, got {cap * 1.001!r}")):
            scenario_from_dict(cfg)

    def test_whole_float_loads_as_int(self):
        cfg = base_config()
        cfg["ran"]["prb_total"] = 100.0
        cfg["flows"][0]["ack_per_frames"] = 2.0
        scn = scenario_from_dict(cfg)
        assert scn.ran.prb_total == 100 and type(scn.ran.prb_total) is int
        assert type(scn.flows[0].ack_per_frames) is int

    def test_invalid_json_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(p)


class TestRunScenario:
    def test_run_produces_outputs(self, tmp_path):
        scn = scenario_from_dict(base_config())
        out = tmp_path / "run1"
        metrics = run_scenario(scn, out_dir=out)
        assert (out / "metrics.csv").exists()
        assert (out / "frames.csv").exists()
        assert (out / "events.log").exists()
        assert metrics.flows[0].avg_mbps > 0
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == "flow_id,avg_delay_ms,p95_ms,p999_ms,avg_mbps,jain"

    def test_frame_count_matches_cadence(self, metrics_inputs):
        run_scenario(scenario_from_dict(base_config(duration_s=3.0)))
        [(columns, _)] = metrics_inputs
        # 3 s at 60 fps minus the 2 s warm-up window
        expected = int(1000 / 16.6)
        measured = sum(enc >= 2000.0 for enc in columns[0][0])
        assert abs(measured - expected) <= 2

    def test_report_recomputes_identically(self, tmp_path):
        scn = scenario_from_dict(base_config())
        out = tmp_path / "run2"
        direct = run_scenario(scn, out_dir=out)
        again = report_run_dir(out)
        for fid in direct.flows:
            assert again.flows[fid].avg_delay_ms == \
                direct.flows[fid].avg_delay_ms
            assert again.flows[fid].avg_mbps == direct.flows[fid].avg_mbps

    def test_determinism_byte_identical_csvs(self, tmp_path):
        scn = scenario_from_dict(base_config(seed=9))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_scenario(scn, out_dir=out1)
        run_scenario(scn, out_dir=out2)
        for name in ("metrics.csv", "frames.csv", "events.log"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def _state(obj):
    """obj's attributes, each object among them read the same way, so that
    two equal configurations compare equal."""
    if isinstance(obj, list):
        return [_state(o) for o in obj]
    if hasattr(obj, "__dict__"):
        return {k: _state(v) for k, v in vars(obj).items()}
    return obj


class TestSweep:
    def test_parse_vary(self):
        assert parse_vary("wired_nd_ms=1,10,20") == \
            ("wired_nd_ms", [1.0, 10.0, 20.0])
        assert parse_vary("ran.trace.kind=step,1e3") == \
            ("ran.trace.kind", ["step", 1000.0])

    def test_parse_vary_rejects_unknown(self):
        with pytest.raises(ScenarioError, match="unknown key 'bler'"):
            sweep_scenario(base_config(), [parse_vary("bler=0.1,0.2")])

    def test_sweep_applies_value(self, tmp_path):
        results = sweep_scenario(base_config(), [("wired_nd_ms", [1.0, 5.0])],
                                 out_dir=tmp_path)
        assert list(results) == ["wired_nd_ms=1", "wired_nd_ms=5"]
        assert (tmp_path / "wired_nd_ms=1" / "metrics.csv").exists()
        assert results["wired_nd_ms=5"].flows[0].avg_delay_ms > \
            results["wired_nd_ms=1"].flows[0].avg_delay_ms

    def test_sweep_copies_every_other_attribute(self, monkeypatch):
        # each run's scenario and flows differ from the file's only in the
        # swept key and the name, whatever the other attributes hold, and
        # the file's dict is left as it was
        cfg = base_config(seed=9, log_level="frames")
        cfg["flows"] = [{"controller": "scone", "encoder": "ramp",
                         "start_s": 0.5, "stop_s": 2.5, "ack_per_frames": 2,
                         "initial_bitrate_mbps": 2.0, "wired_nd_ms": 3.0},
                        {"controller": "oracle", "epsilon": 2}]
        before = json.dumps(cfg)
        scn = _state(scenario_from_dict(cfg))
        subs = []
        monkeypatch.setattr(ransim.harness, "run_scenario",
                            lambda sub, out: subs.append(sub))
        sweep_scenario(cfg, [("epsilon", [3.0, 4.0])])
        assert json.dumps(cfg) == before
        for sub, value in zip(subs, (3, 4), strict=True):
            assert sub.name == f"scenario_epsilon={value}"
            sub = _state(sub)
            assert {**sub, "flows": None, "name": None} == \
                {**scn, "flows": None, "name": None}
            assert sub["flows"] == [{**f, "epsilon": value}
                                    for f in scn["flows"]]

    @pytest.mark.parametrize("vary, edited", [
        ("wired_nd_ms=5",
         {"flows": [{"controller": "choir", "wired_nd_ms": 5.0}]}),
        ("ran.bler=0.1", {"ran": {**base_config()["ran"], "bler": 0.1}}),
        ("controller=scone",
         {"flows": [{"controller": "scone", "wired_nd_ms": 1.0}]}),
    ])
    def test_each_point_is_what_the_loader_builds(self, tmp_path, vary,
                                                  edited):
        assert main(["sweep", str(write_scenario(tmp_path, base_config())),
                     "--vary", vary, "--out", str(tmp_path / "sweep")]) == \
            EXIT_OK
        run_scenario(scenario_from_dict(base_config(**edited)),
                     tmp_path / "direct")
        for name in ("metrics.csv", "frames.csv", "events.log"):
            assert (tmp_path / "sweep" / vary / name).read_bytes() == \
                (tmp_path / "direct" / name).read_bytes()


class TestCli:
    def test_run_ok(self, tmp_path, capsys):
        p = write_scenario(tmp_path, base_config())
        code = main(["run", str(p), "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "flow_id,avg_delay_ms" in out

    def test_run_prints_the_metrics_csv_it_writes(self, tmp_path, capsys):
        # a leaver and a flow that never delivers a frame after the warm-up
        # give a nan row as well as a full one
        cfg = base_config(flows=[
            {"controller": "choir", "wired_nd_ms": 1.0},
            {"controller": "scone", "start_s": 0.5, "stop_s": 1.5}])
        p = write_scenario(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "nan" in printed
        assert printed.encode() == (out / "metrics.csv").read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = base_config()
        cfg["flows"][0]["controller"] = "bbr"
        p = write_scenario(tmp_path, cfg)
        assert main(["run", str(p)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_misspelled_key_exit_code(self, tmp_path, capsys):
        cfg = base_config()
        cfg["ran"]["blerr"] = 0.3
        p = write_scenario(tmp_path, cfg)
        assert main(["run", str(p)]) == EXIT_CONFIG
        assert "ran: unknown key 'blerr'" in capsys.readouterr().err

    def test_unknown_encoder_exit_code(self, tmp_path, capsys):
        cfg = base_config()
        cfg["flows"][0]["encoder"] = "rmap"
        p = write_scenario(tmp_path, cfg)
        assert main(["run", str(p)]) == EXIT_CONFIG
        assert "flows[0]: unknown encoder 'rmap'" in capsys.readouterr().err

    def test_non_string_tdd_pattern_exit_code(self, tmp_path, capsys):
        cfg = base_config()
        cfg["ran"]["tdd_pattern"] = 5
        p = write_scenario(tmp_path, cfg)
        assert main(["run", str(p)]) == EXIT_CONFIG
        assert "ran: tdd_pattern must be a string" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["100,nan", "0,inf"])
    def test_non_finite_trace_value_exit_code(self, tmp_path, capsys, row):
        # rejected at load time, not as a runtime error half way through
        trace = tmp_path / "trace.csv"
        trace.write_text(f"tti_index,bytes_per_prb\n{row}\n")
        p = write_scenario(tmp_path, base_config(trace_path=str(trace)))
        assert main(["run", str(p)]) == EXIT_CONFIG
        assert f"{trace}:2: bytes_per_prb must be finite" in \
            capsys.readouterr().err

    def test_scenario_not_utf8_exit_code(self, tmp_path, capsys):
        # whatever the locale, a file ransim reads is UTF-8 or rejected
        p = write_scenario(tmp_path, base_config())
        p.write_bytes(p.read_bytes().replace(b"choir", b"ch\xffir"))
        assert main(["run", str(p)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"config error: {p}: invalid JSON: 'utf-8' codec can't decode "
            f"byte 0xff")

    def test_trace_not_utf8_exit_code(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_bytes(b"tti_index,bytes_per_prb\n0,30.0\n100,2\xff.0\n")
        p = write_scenario(tmp_path, base_config(trace_path=str(trace)))
        assert main(["run", str(p)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"config error: {trace}: not UTF-8: 'utf-8' codec can't decode "
            f"byte 0xff")

    @pytest.mark.parametrize("edit,message", [
        # a flow that never starts: run wrote an all-nan row for it, which
        # report, finding no line of it in the log, left out
        (lambda cfg: cfg["flows"].append({"start_s": 3.0}),
         "flows[1]: start_s must be before duration_s, got 3.0"),
        (lambda cfg: cfg["ran"].update(trace={
            "kind": "random_walk", "low": 20.0, "high": 40.0,
            "interval_ttis": 0}),
         "ran.trace: interval_ttis must be at least 1"),
        (lambda cfg: cfg["ran"]["trace"].update(kind=["constant"]),
         "ran.trace: unknown kind ['constant']"),
        (lambda cfg: cfg["flows"][0].update(controller=["choir"]),
         "flows[0]: unknown controller ['choir']; "
         "expected one of ['choir', 'oracle', 'scone']"),
        # the sender's deque(maxlen=epsilon - 1) would fail only at the start
        (lambda cfg: cfg["flows"][0].update(epsilon=0),
         "flows[0]: epsilon must be at least 1"),
        # the first frame would be split into about 1.5e9 packets
        (lambda cfg: cfg["flows"][0].update(initial_bitrate_mbps=1e9),
         "flows[0].initial_bitrate_mbps must be at most 480, 10 times the "
         "cell's peak rate, got 1000000000.0"),
    ], ids=["never_starts", "interval_ttis", "kind_list", "controller_list",
            "epsilon", "initial_bitrate"])
    def test_rejected_at_load_exit_code(self, tmp_path, capsys, edit,
                                        message):
        cfg = base_config()
        edit(cfg)
        p = write_scenario(tmp_path, cfg)
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == \
            EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_missing_scenario_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "none.json")]) == EXIT_CONFIG

    def test_seed_override_changes_nothing_without_loss(self, tmp_path):
        p = write_scenario(tmp_path, base_config())
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["run", str(p), "--seed", "1",
                     "--out", str(out1)]) == EXIT_OK
        assert main(["run", str(p), "--seed", "2",
                     "--out", str(out2)]) == EXIT_OK
        # bler = 0: the seed draws nothing, runs must coincide
        assert (out1 / "metrics.csv").read_bytes() == \
            (out2 / "metrics.csv").read_bytes()

    def test_seed_override_equals_the_seed_in_the_file(self, tmp_path):
        # join_leave loses blocks (bler 0.2), so the seed decides which
        src = SCENARIOS / "join_leave.json"
        p = write_scenario(tmp_path, dict(json.loads(src.read_text()), seed=5))
        runs = {"file5": [str(p)], "seed5": [str(src), "--seed", "5"],
                "seed6": [str(src), "--seed", "6"]}
        for label, args in runs.items():
            assert main(["run", *args, "--out", str(tmp_path / label)]) == \
                EXIT_OK

        def read(label, name):
            return (tmp_path / label / name).read_bytes()

        for name in ("metrics.csv", "frames.csv", "events.log"):
            assert read("seed5", name) == read("file5", name)
        assert read("seed6", "events.log") != read("seed5", "events.log")

    def test_seed_override_also_draws_the_trace(self, tmp_path):
        # a random walk without its own seed is drawn from the scenario's,
        # so --seed must reach it before the trace is built
        cfg = base_config(duration_s=1.0, ran={"trace": {
            "kind": "random_walk", "low": 20.0, "high": 40.0}})
        runs = {"file1": [str(write_scenario(tmp_path, dict(cfg, seed=1),
                                             "s1.json"))],
                "file5": [str(write_scenario(tmp_path, dict(cfg, seed=5),
                                             "s5.json"))]}
        runs["seed5"] = [runs["file1"][0], "--seed", "5"]
        for label, args in runs.items():
            assert main(["run", *args, "--out", str(tmp_path / label)]) == \
                EXIT_OK

        def read(label, name):
            return (tmp_path / label / name).read_bytes()

        for name in ("frames.csv", "events.log"):
            assert read("seed5", name) == read("file5", name)
        assert read("file1", "frames.csv") != read("file5", "frames.csv")

    def test_sweep_and_report(self, tmp_path, capsys):
        p = write_scenario(tmp_path, base_config())
        out = tmp_path / "sweep"
        assert main(["sweep", str(p), "--vary", "wired_nd_ms=1,5",
                     "--out", str(out)]) == EXIT_OK
        sweep = capsys.readouterr().out
        assert main(["report", str(out)]) == EXIT_OK
        report = capsys.readouterr().out
        assert "wired_nd_ms=1" in report
        assert "wired_nd_ms=5" in report
        # each run's metrics.csv under a label: the value swept, or the
        # run directory reported
        labels = ["wired_nd_ms=1", "wired_nd_ms=5"]
        csvs = [(out / label / "metrics.csv").read_text() for label in labels]
        assert sweep == "".join(f"== {label} ==\n{csv}"
                                for label, csv in zip(labels, csvs))
        assert report == "".join(f"== {out / label} ==\n{csv}"
                                 for label, csv in zip(labels, csvs))

    def test_sweep_cross_product_and_report(self, tmp_path, capsys):
        # the first --vary is the outer loop; each point writes to its
        # label's nested directory, where report finds it
        p = write_scenario(tmp_path, base_config(duration_s=2.5))
        out = tmp_path / "sweep"
        assert main(["sweep", str(p), "--vary", "ran.bler=0,0.1",
                     "--vary", "controller=choir,scone",
                     "--out", str(out)]) == EXIT_OK
        labels = [f"ran.bler={b}/controller={c}" for b in ("0", "0.1")
                  for c in ("choir", "scone")]
        assert re.findall("^== (.*) ==$", capsys.readouterr().out,
                          re.M) == labels
        assert main(["report", str(out)]) == EXIT_OK
        assert re.findall("^== (.*) ==$", capsys.readouterr().out,
                          re.M) == [str(out / label) for label in labels]

    def _sweep_rejects(self, tmp_path, capsys, vary, message):
        # vary holds one or more --vary arguments, split at spaces; the bad
        # value comes after a good one: no run may start
        p = write_scenario(tmp_path, base_config())
        out = tmp_path / "sweep"
        args = [arg for text in vary.split() for arg in ("--vary", text)]
        assert main(["sweep", str(p), *args, "--out", str(out)]) == \
            EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_rejects_fraction_for_integer_key(self, tmp_path, capsys):
        self._sweep_rejects(tmp_path, capsys, "ack_per_frames=1,1.5",
                            "ack_per_frames must be an integer, got 1.5")

    @pytest.mark.parametrize("vary,message", [
        ("ack_per_frames=1,0", "ack_per_frames must be at least 1"),
        ("wired_nd_ms=1,-1", "wired_nd_ms must be nonnegative"),
        pytest.param("epsilon=1,0", "--vary epsilon=0: flows[0]: epsilon "
                     "must be at least 1", id="epsilon=1,0-with-context"),
    ])
    def test_sweep_rejects_out_of_range(self, tmp_path, capsys, vary,
                                        message):
        self._sweep_rejects(tmp_path, capsys, vary, message)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_sweep_rejects_non_finite(self, tmp_path, capsys, bad):
        self._sweep_rejects(tmp_path, capsys, f"wired_nd_ms=1,{bad}",
                            "wired_nd_ms must be a finite number")

    def test_sweep_rejects_duplicate_value(self, tmp_path, capsys):
        self._sweep_rejects(tmp_path, capsys, "epsilon=2,2.0",
                            "epsilon=2 is given twice")

    @pytest.mark.parametrize("vary,message", [
        ("wired_nd_ms=1,5 ran.bler=0,1.5",
         "--vary wired_nd_ms=1/ran.bler=1.5: ran: bler must lie in [0, 1)"),
        ("bler=0.1", "--vary bler=0.1: scenario: unknown key 'bler'"),
        ("ran.nope.x=1", "--vary ran.nope.x=1: ran: unknown key 'nope'"),
        ("seed.x=1", "--vary seed.x=1: seed.x is not a key path of JSON "
                     "objects"),
    ])
    def test_sweep_rejects_cross_product_point(self, tmp_path, capsys, vary,
                                               message):
        self._sweep_rejects(tmp_path, capsys, vary, message)

    @pytest.mark.parametrize("exc, message", [
        (MemoryError(), "MemoryError"),  # its str() is empty
        (RuntimeError("step failed"), "step failed")])
    def test_runtime_error_exit_code_carries_a_message(
            self, tmp_path, capsys, monkeypatch, exc, message):
        def failing_run(scn, out_dir=None):
            raise exc
        monkeypatch.setattr(ransim.cli, "run_scenario", failing_run)
        p = write_scenario(tmp_path, base_config())
        assert main(["run", str(p)]) == EXIT_RUNTIME
        assert capsys.readouterr().err == f"runtime error: {message}\n"

    def test_report_empty_dir(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == EXIT_CONFIG

    def test_report_truncated_log_exit_code(self, tmp_path, capsys):
        p = write_scenario(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out)]) == EXIT_OK
        log = out / "events.log"
        lines = log.read_text().splitlines(keepends=True)
        log.write_text("".join(lines[:len(lines) // 2]))
        capsys.readouterr()
        assert main(["report", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{log}: no run_info record" in err


class TestMemory:
    """A finished run holds nothing, and report reads the log once."""

    def test_finished_world_is_freed_without_gc(self, tmp_path):
        cfg = base_config(duration_s=0.5, flows=[
            {"controller": "choir"}, {"controller": "scone"},
            {"controller": "oracle"}])
        scn = scenario_from_dict(cfg)
        gc.collect()
        held = [o for o in gc.get_objects() if isinstance(o, SimWorld)]
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            world = build_world(scn)
            world.run(scn.duration_s)
            ref = weakref.ref(world)
            del world
            assert ref() is None, "the world is freed only by the cyclic GC"
            sweep_scenario(cfg, [("wired_nd_ms", [1.0, 2.0, 3.0])],
                           out_dir=tmp_path)
            left = [o for o in gc.get_objects() if isinstance(o, SimWorld)
                    and all(o is not h for h in held)]
            assert left == []
        finally:
            if was_enabled:
                gc.enable()

    def test_report_peak_memory_per_frame(self, tmp_path):
        # the shipped fairness scenario, cut to 3 s to keep the suite quick:
        # about 50 B per frame_encode line now, with three column entries
        # and a delay per frame; 277 B when report built one VideoFrame
        # apiece, and about 840 B when every record of the log was held
        scn = load_scenario(SCENARIOS / "multi_flow_fairness.json")
        run_scenario(Scenario(**{**vars(scn), "duration_s": 3.0}), tmp_path)
        with open(tmp_path / "events.log") as fh:
            frames = sum(1 for line in fh if ",frame_encode," in line)
        expected = report_run_dir(tmp_path)  # imports and caches warm up
        tracemalloc.start()
        try:
            assert report_run_dir(tmp_path) == expected
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert frames > 1000
        assert peak / frames < 80
