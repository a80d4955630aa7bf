import math

import pytest

from ransim.traces import (CapacitySchedule, TraceError, constant_trace,
                           load_trace, random_walk_trace, square_trace,
                           step_trace)


class TestLoadTrace:
    def _write(self, tmp_path, text):
        p = tmp_path / "trace.csv"
        p.write_text(text)
        return p

    def test_constant_two_rows(self, tmp_path):
        p = self._write(tmp_path, "tti_index,bytes_per_prb\n0,1000\n500,1000\n")
        sched = load_trace(p)
        assert sched.materialize(1)[0] == 1000
        assert sched.materialize(10000)[9999] == 1000

    def test_step_semantics(self, tmp_path):
        p = self._write(tmp_path, "tti_index,bytes_per_prb\n0,1000\n600,500\n")
        sched = load_trace(p)
        assert sched.materialize(600)[599] == 1000
        assert sched.materialize(601)[600] == 500
        assert sched.materialize(602)[601] == 500

    def test_out_of_order_rejected(self, tmp_path):
        p = self._write(tmp_path, "tti_index,bytes_per_prb\n0,1000\n600,500\n"
                                  "400,900\n")
        with pytest.raises(TraceError, match=":4"):
            load_trace(p)

    def test_out_of_order_reports_file_line(self, tmp_path):
        # blank lines count: the bad row is the file's sixth line, though
        # it is only the fourth data row
        p = self._write(tmp_path, "tti_index,bytes_per_prb\n0,30\n\n\n"
                                  "600,20\n400,10\n")
        with pytest.raises(TraceError,
                           match=f"^{p}:6: tti_index 400 out of order$"):
            load_trace(p)

    def test_out_of_order_reported_before_a_later_bad_row(self, tmp_path):
        p = self._write(tmp_path, "tti_index,bytes_per_prb\n0,30\n0,20\n"
                                  "9,abc\n")
        with pytest.raises(TraceError, match=f"^{p}:3: tti_index 0 out"):
            load_trace(p)

    def test_empty_file_rejected(self, tmp_path):
        p = self._write(tmp_path, "")
        with pytest.raises(TraceError, match="empty"):
            load_trace(p)

    def test_header_required(self, tmp_path):
        p = self._write(tmp_path, "0,1000\n600,500\n")
        with pytest.raises(TraceError, match="header"):
            load_trace(p)

    def test_no_data_rows_rejected(self, tmp_path):
        p = self._write(tmp_path, "tti_index,bytes_per_prb\n")
        with pytest.raises(TraceError, match="no data"):
            load_trace(p)

    def test_parse_error_reports_line(self, tmp_path):
        p = self._write(tmp_path, "tti_index,bytes_per_prb\n0,abc\n")
        with pytest.raises(TraceError, match=":2"):
            load_trace(p)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", " NaN"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        p = self._write(tmp_path,
                        f"tti_index,bytes_per_prb\n0,30\n100,{value}\n")
        with pytest.raises(TraceError,
                           match=f"{p}:3: bytes_per_prb must be finite"):
            load_trace(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="cannot open"):
            load_trace(tmp_path / "nope.csv")

    def test_nonzero_start_backfilled(self, tmp_path):
        p = self._write(tmp_path, "tti_index,bytes_per_prb\n100,700\n")
        assert load_trace(p).materialize(1)[0] == 700


class TestSyntheticTraces:
    def test_constant(self):
        assert constant_trace(42.0).materialize(12346)[12345] == 42.0

    def test_step(self):
        s = step_trace(30.0, 15.0, 600)
        assert s.materialize(600)[599] == 30.0
        assert s.materialize(601)[600] == 15.0

    def test_square_alternates(self):
        s = square_trace(30.0, 10.0, period_ttis=100, n_periods=4)
        assert s.materialize(1)[0] == 30.0
        assert s.materialize(51)[50] == 10.0
        assert s.materialize(101)[100] == 30.0

    def test_random_walk_bounded_and_deterministic(self):
        a = random_walk_trace(10.0, 40.0, seed=7)
        b = random_walk_trace(10.0, 40.0, seed=7)
        assert a.breakpoints == b.breakpoints
        assert all(10.0 <= v <= 40.0 for _, v in a.breakpoints)
        c = random_walk_trace(10.0, 40.0, seed=8)
        assert c.breakpoints != a.breakpoints

    def test_materialize_matches_lookup(self):
        s = square_trace(30.0, 10.0, period_ttis=10, n_periods=3)
        # high for half a period, then low; the last value holds
        assert s.materialize(50) == ([30.0] * 5 + [10.0] * 5) * 3 + [10.0] * 20

    def test_validation(self):
        with pytest.raises(TraceError):
            CapacitySchedule(())
        with pytest.raises(TraceError):
            CapacitySchedule(((0, 10.0), (0, 20.0)))
        with pytest.raises(TraceError, match="non-monotonic tti_index nan"):
            CapacitySchedule(((0, 10.0), (math.nan, 20.0)))
        with pytest.raises(TraceError):
            CapacitySchedule(((0, -1.0),))
        with pytest.raises(TraceError):
            CapacitySchedule(((5, 1.0),))
        with pytest.raises(TraceError,
                           match=r"at tti 7 must lie in \[0, 1244\], got 1244.5"):
            CapacitySchedule(((0, 1244.0), (7, 1244.5)))

    @pytest.mark.parametrize("interval", [0, -5])
    def test_random_walk_interval_must_be_positive(self, interval):
        # not the schedule's "non-monotonic tti_index 0", which names no key
        with pytest.raises(TraceError,
                           match="^interval_ttis must be at least 1$"):
            random_walk_trace(10.0, 40.0, seed=1, interval_ttis=interval)
