import pytest

from ransim.tdd import TddPattern


def test_parse_dddsu():
    p = TddPattern.parse("DDDSU")
    assert p.slots == ("D", "D", "D", "S", "U")


def test_parse_rejects_empty_and_unknown():
    with pytest.raises(ValueError):
        TddPattern.parse("")
    with pytest.raises(ValueError):
        TddPattern.parse("DDX")
    with pytest.raises(ValueError):
        TddPattern.parse("SU")  # no downlink slot at all


def test_downlink_factors_cycle():
    p = TddPattern.parse("DDDSU")
    factors = [p.downlink_factor(i) for i in range(10)]
    assert factors == [1.0, 1.0, 1.0, 0.5, 0.0] * 2


def test_uplink_capable_slots():
    p = TddPattern.parse("DDDSU")
    assert [p.can_uplink(i) for i in range(5)] == [False, False, False,
                                                   True, True]


def test_downlink_duty_matches_ratio():
    # 3 full + half a special slot out of 5 = the 3.5:1.5 split
    assert TddPattern.parse("DDDSU").downlink_duty() == pytest.approx(0.7)
    assert TddPattern.parse("D").downlink_duty() == 1.0


def test_max_non_downlink_span_wraps():
    # the S and U slots of UDDDS are adjacent across the cycle boundary
    q = TddPattern.parse("UDDDS")
    assert [q.slot_at(i) for i in range(3, 7)] == ["D", "S", "U", "D"]
    assert [q.downlink_factor(i) for i in range(3, 7)] == [1.0, 0.5, 0.0, 1.0]
    d = TddPattern.parse("DDDDD")
    assert [d.downlink_factor(i) for i in range(6)] == [1.0] * 6
