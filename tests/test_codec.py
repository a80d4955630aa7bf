import math

import pytest
from hypothesis import given, strategies as st

from ransim.codec import WIRE_SIZE, GuidanceFeedback, decode_rate, encode_rate


def test_30mbps_round_trips_exactly():
    fb = encode_rate(30e6)
    assert fb.valid
    assert decode_rate(fb) == 30e6

def test_100mbps_known_encoding():
    fb = encode_rate(100e6)
    assert (fb.mantissa, fb.unit_exp) == (50000, 1)
    assert decode_rate(fb) == 100e6

def test_zero_rate():
    fb = encode_rate(0.0)
    assert (fb.mantissa, fb.unit_exp) == (0, 0)
    assert decode_rate(fb) == 0.0

def test_negative_rate_invalid_flag():
    fb = encode_rate(-5.0)
    assert not fb.valid
    assert decode_rate(fb) is None

def test_wire_layout_is_four_bytes():
    fb = encode_rate(42e6)
    raw = fb.to_bytes()
    assert len(raw) == WIRE_SIZE == 4
    back = GuidanceFeedback.from_bytes(raw)
    assert (back.mantissa, back.unit_exp, back.flags) == \
        (fb.mantissa, fb.unit_exp, fb.flags)

def test_negative_exponent_survives_wire():
    fb = encode_rate(150e3)  # 150 kbps needs a sub-kbps quantum
    assert fb.unit_exp < 0
    back = GuidanceFeedback.from_bytes(fb.to_bytes())
    assert back == GuidanceFeedback(fb.mantissa, fb.unit_exp, fb.flags)

@given(st.floats(min_value=1e5, max_value=1e10))
def test_round_trip_relative_error(rate):
    decoded = decode_rate(encode_rate(rate))
    assert abs(decoded - rate) / rate <= 5e-4  # 0.05%

@given(st.floats(min_value=1e6, max_value=1e11))
def test_quantization_error_above_1mbps(rate):
    decoded = decode_rate(encode_rate(rate))
    assert abs(decoded - rate) / rate <= 2.0 ** -11

@given(st.floats(min_value=1e3, max_value=1e10))
def test_reencode_bit_identical(rate):
    fb = encode_rate(rate)
    again = encode_rate(decode_rate(fb))
    assert (again.mantissa, again.unit_exp, again.flags) == \
        (fb.mantissa, fb.unit_exp, fb.flags)
    assert again.to_bytes() == fb.to_bytes()

@given(st.floats(min_value=1e3, max_value=1e10),
       st.floats(min_value=1e3, max_value=1e10))
def test_monotone_up_to_one_quantum(a, b):
    if a > b:
        a, b = b, a
    da = decode_rate(encode_rate(a))
    db = decode_rate(encode_rate(b))
    quantum = 2.0 ** max(encode_rate(a).unit_exp,
                         encode_rate(b).unit_exp) * 1000.0
    assert da <= db + quantum

@given(st.floats(min_value=1.0, max_value=1e12))
def test_mantissa_normalized(rate):
    fb = encode_rate(rate)
    assert fb.mantissa <= 0xFFFF
    if fb.unit_exp > -128 and fb.mantissa > 0:
        assert fb.mantissa >= 0x8000

@pytest.mark.parametrize("rate", [1e300, math.inf,
                                  2 * 0xFFFF * 2.0 ** 127 * 1000.0])
def test_rate_beyond_the_wire_saturates(rate):
    # the largest rate the four bytes carry, through the wire and back
    back = GuidanceFeedback.from_bytes(encode_rate(rate).to_bytes())
    assert decode_rate(back) == 0xFFFF * 2.0 ** 127 * 1000.0

def test_nan_is_invalid():
    assert not encode_rate(math.nan).valid
