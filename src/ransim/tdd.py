"""TDD slot pattern: the fixed downlink/special/uplink cycle of the air interface."""
from __future__ import annotations

DOWNLINK = "D"
SPECIAL = "S"
UPLINK = "U"

# Fraction of a slot's byte capacity usable for downlink data. The special
# slot carries half a downlink slot's capacity, which reproduces the 3.5:1.5
# downlink:uplink ratio of DDDSU without symbol-level modeling.
_DL_FACTOR = {DOWNLINK: 1.0, SPECIAL: 0.5, UPLINK: 0.0}


class TddPattern:
    """Cyclic slot schedule, e.g. DDDSU repeated for the whole run."""

    def __init__(self, slots: tuple[str, ...]):
        self.slots = slots

    @classmethod
    def parse(cls, spec: str) -> "TddPattern":
        slots = tuple(spec.upper())
        if not slots:
            raise ValueError("TDD pattern must not be empty")
        bad = [s for s in slots if s not in _DL_FACTOR]
        if bad:
            raise ValueError(f"unknown TDD slot symbols: {bad!r}")
        if DOWNLINK not in slots:
            raise ValueError("TDD pattern needs at least one downlink slot")
        return cls(slots)

    def slot_at(self, tti_index: int) -> str:
        return self.slots[tti_index % len(self.slots)]

    def downlink_factor(self, tti_index: int) -> float:
        return _DL_FACTOR[self.slot_at(tti_index)]

    def can_uplink(self, tti_index: int) -> bool:
        # Uplink control (ACK/feedback) rides both U slots and the uplink
        # half of special slots.
        return self.slot_at(tti_index) in (UPLINK, SPECIAL)

    def downlink_duty(self) -> float:
        """Average downlink capacity fraction over one cycle (0.7 for DDDSU)."""
        return sum(_DL_FACTOR[s] for s in self.slots) / len(self.slots)
