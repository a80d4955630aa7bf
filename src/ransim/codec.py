"""Compact guidance-rate encoding stamped on uplink ACKs.

Wire layout (normative, 4 bytes, big-endian):

    offset 0  uint16  mantissa
    offset 2  int8    unit_exp     (power-of-two scale, may be negative)
    offset 3  uint8   flags        (bit 0 = valid, others reserved)

The carried rate is ``mantissa * 2**unit_exp`` kilobits per second. The
encoder picks the smallest exponent for which the rounded mantissa fits in
16 bits, so any encoder output has mantissa >= 0x8000 (or is zero), giving a
relative quantization error below 2**-16 across the whole usable range.
Decoding an encoder output and re-encoding it reproduces the same bits.
"""
from __future__ import annotations

import math
import struct
from typing import NamedTuple

FLAG_VALID = 0x01

_MANTISSA_MAX = 0xFFFF
_EXP_MIN = -128
_EXP_MAX = 127
_KBPS_MAX = _MANTISSA_MAX * 2.0 ** _EXP_MAX  # the largest rate carried

_WIRE = struct.Struct(">HbB")
WIRE_SIZE = _WIRE.size


class GuidanceFeedback(NamedTuple):
    """One guidance value as carried on the wire."""

    mantissa: int
    unit_exp: int
    flags: int = FLAG_VALID

    @property
    def valid(self) -> bool:
        return bool(self.flags & FLAG_VALID)

    def to_bytes(self) -> bytes:
        return _WIRE.pack(self.mantissa, self.unit_exp, self.flags)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "GuidanceFeedback":
        return cls(*_WIRE.unpack(raw[:WIRE_SIZE]))


def encode_rate(rate_bps: float) -> GuidanceFeedback:
    """Encode a rate in bits/s; negative rates yield an invalid-flag record."""
    if rate_bps < 0 or math.isnan(rate_bps):
        return GuidanceFeedback(0, 0, 0)
    kbps = min(rate_bps / 1000.0, _KBPS_MAX)  # saturate, +inf too
    if kbps == 0.0:
        return GuidanceFeedback(0, 0, FLAG_VALID)
    # Start from the frexp estimate, then walk to the smallest exponent whose
    # rounded mantissa still fits.
    _, bin_exp = math.frexp(kbps)
    exp = max(_EXP_MIN, bin_exp - 16)
    while exp > _EXP_MIN and round(kbps / 2.0 ** (exp - 1)) <= _MANTISSA_MAX:
        exp -= 1
    while exp < _EXP_MAX and round(kbps / 2.0 ** exp) > _MANTISSA_MAX:
        exp += 1
    return GuidanceFeedback(round(kbps / 2.0 ** exp), exp, FLAG_VALID)


def decode_rate(fb: GuidanceFeedback) -> float | None:
    """Rate in bits/s, or None for invalid feedback (receiver holds last)."""
    if not fb.valid:
        return None
    return fb.mantissa * 2.0 ** fb.unit_exp * 1000.0
