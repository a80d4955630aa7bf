import pytest
from hypothesis import given, strategies as st

from ransim.baselines import (SconeFeedback, decode_scone, encode_scone,
                              oracle_rate, scone_target_rate)


class TestSconeTargetRate:
    def test_empty_queue_full_capacity(self):
        assert scone_target_rate(SconeFeedback(1800, 0)) == 1800

    def test_deep_queue_clamps_to_zero(self):
        assert scone_target_rate(SconeFeedback(1800, 33200)) == 0.0

    def test_partial_queue(self):
        assert scone_target_rate(SconeFeedback(1800, 8300)) == \
            pytest.approx(1300)

    def test_drain_time_fixed_default(self):
        # the queue is drained over one 16.6 ms frame interval
        assert scone_target_rate(SconeFeedback(2.0, 16.6)) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SconeFeedback(-1, 0)
        with pytest.raises(ValueError):
            SconeFeedback(1, -1)

    @given(st.floats(0, 1e5), st.floats(0, 1e7))
    def test_never_exceeds_capacity(self, cap, queue):
        rate = scone_target_rate(SconeFeedback(cap, queue))
        assert 0.0 <= rate <= cap
        if queue == 0:
            assert rate == cap


class TestOracleRate:
    def test_identity(self):
        assert oracle_rate(1800) == 1800

    def test_follows_step(self):
        assert [oracle_rate(x) for x in (1800, 900)] == [1800, 900]

    def test_follows_any_trace(self):
        trace = [1200.0, 850.5, 2100.25]
        assert [oracle_rate(x) for x in trace] == trace


class TestSconeWire:
    def test_two_codec_fields(self):
        raw = encode_scone(SconeFeedback(1800.0, 33200.0))
        assert len(raw) == 8

    def test_round_trip(self):
        fb = SconeFeedback(1800.0, 33200.0)
        back = decode_scone(encode_scone(fb))
        assert back.capacity == pytest.approx(fb.capacity, rel=1e-4)
        assert back.queue_len == pytest.approx(fb.queue_len, rel=1e-4)

    def test_zero_queue_round_trip(self):
        back = decode_scone(encode_scone(SconeFeedback(2500.0, 0.0)))
        assert back.queue_len == 0.0
