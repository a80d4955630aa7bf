"""Per-flow allocated-bandwidth estimation from scheduler-visible counters.

The estimator maps physical resource usage to the transport-layer bandwidth a
flow can count on for the next TTI: a PRB share updated from idle resources,
a per-PRB physical rate corrected by the downlink duty cycle, and a capacity
discounted by payload overhead and the short-window retransmission rate.
"""
from __future__ import annotations

from collections import deque

from .predictor import HISTORY_TTIS

GAMMA_DEFAULT = 0.97  # payload fraction assumed before any block is observed

LONG_WINDOW_MS = 100.0   # duty-cycle statistics horizon
SHORT_WINDOW_MS = 10.0   # retransmission and payload-fraction horizon


class CellWindows:
    """Cell-wide sliding TTI counters read by every flow's estimator.

    Single writer: the TTI loop calls ``close_tti`` exactly once per TTI
    after transmissions are processed, so estimates made at the start of a
    TTI only ever see fully simulated TTIs.
    """

    def __init__(self, tti_ms: float):
        self._long_n = max(1, int(round(LONG_WINDOW_MS / tti_ms)))
        self._short_n = max(1, int(round(SHORT_WINDOW_MS / tti_ms)))
        self._long: deque[float] = deque()
        self._long_sum = 0.0
        self._short: deque[tuple[int, int]] = deque()
        self._short_data = 0
        self._short_retx = 0
        # short-window means of scheduler usage; instantaneous snapshots
        # over-credit bursty flows through the max() in the share update
        self._usage: deque[tuple[int, int]] = deque()
        self._usage_prb = 0
        self._usage_active = 0

    def close_tti(self, capable_weight: float, carried_data: bool,
                  carried_retx: bool, downlink_capable: bool,
                  prb_used: int, n_active: int) -> None:
        """Fold one finished TTI into the windows.

        capable_weight is the TTI's usable downlink-data capacity fraction
        (1 for a data downlink slot, 0.5 for special, 0 for uplink or
        control-only TTIs); it feeds the duty-cycle ratio regardless of
        whether queues had demand. carried_data/carried_retx describe what
        actually flowed and feed the retransmission ratio.
        """
        self._long.append(capable_weight)
        self._long_sum += capable_weight
        if len(self._long) > self._long_n:
            self._long_sum -= self._long.popleft()
        entry = (1 if carried_data else 0, 1 if carried_retx else 0)
        self._short.append(entry)
        self._short_data += entry[0]
        self._short_retx += entry[1]
        if len(self._short) > self._short_n:
            old = self._short.popleft()
            self._short_data -= old[0]
            self._short_retx -= old[1]
        if downlink_capable:
            # share updates key off TTIs in which the scheduler actually
            # ran; uplink slots carry no grants
            self._usage.append((prb_used, n_active))
            self._usage_prb += prb_used
            self._usage_active += n_active
            if len(self._usage) > self._short_n:
                old = self._usage.popleft()
                self._usage_prb -= old[0]
                self._usage_active -= old[1]

    def terms(self, prb_total: int, n_present: int) -> tuple:
        """This TTI's cell-wide estimator inputs, read once for every flow:
        (n_active, prb_used, n_total, dn, tn, retx), where retx is None
        while the short window holds no data TTIs."""
        n, data = len(self._usage), self._short_data
        n_active = round(self._usage_active / n) if n else 0
        prb_used = self._usage_prb / n if n else 0.0
        return (n_active if n_active > 1 else 1,
                prb_total if prb_total < prb_used else prb_used,
                n_present if n_present > 1 else 1, self._long_sum,
                len(self._long), self._short_retx / data if data else None)


class FlowEstimator:
    """Sliding per-flow measurements, the capacity computation and the
    per-TTI ring of its results that guidance and scone stamps average."""

    def __init__(self, prb_total: int, tti_ms: float):
        self.prb_total = prb_total
        self.tti_ms = tti_ms
        self._uprb: deque[int] = deque()
        self._uprb_sum = 0
        self._uprb_n = max(1, int(round(SHORT_WINDOW_MS / tti_ms)))
        self.prb_share = float(prb_total)
        # short window, one entry per transmitting TTI: (time, bytes,
        # effective full-slot PRBs, payload fraction)
        self._blocks: deque[tuple[float, float, float, float]] = deque()
        self._density_bytes = 0.0
        self._density_prbs = 0.0
        self._gamma_sum = 0.0
        self._bpp_held = 0.0
        self._retx_held = 0.0
        # one compute result per TTI, the last HISTORY_TTIS of them
        self.bw_ring: deque[float] = deque(maxlen=HISTORY_TTIS)

    def note_grant(self, uprb: int) -> None:
        """Record this flow's granted-and-used PRBs for one downlink TTI."""
        self._uprb.append(uprb)
        self._uprb_sum += uprb
        if len(self._uprb) > self._uprb_n:
            self._uprb_sum -= self._uprb.popleft()

    def note_block(self, now: float, total_bytes: int, overhead: int,
                   prbs_used: int, slot_factor: float) -> None:
        """Record a sent block's grant, density and payload fraction."""
        self.note_grant(prbs_used)
        eff_prbs = prbs_used * slot_factor
        ratio = (total_bytes - overhead) / total_bytes if total_bytes else 0.0
        self._blocks.append((now, float(total_bytes), eff_prbs, ratio))
        self._density_bytes += total_bytes
        self._density_prbs += eff_prbs
        self._gamma_sum += ratio

    def _expire(self, now: float) -> None:
        cutoff = now - SHORT_WINDOW_MS
        blocks = self._blocks
        while blocks and blocks[0][0] <= cutoff:
            _, b, p, ratio = blocks.popleft()
            self._density_bytes -= b
            self._density_prbs -= p
            self._gamma_sum -= ratio

    def compute(self, now: float, terms: tuple) -> float:
        """Allocated bandwidth for the next TTI, bytes/ms, from current
        windows and this TTI's ``CellWindows.terms``, appended to
        ``bw_ring``. ``tests/reference.py`` states the same estimate plainly,
        one equation per helper, in the same float order. Expires the
        window, which ``note_block`` then extends."""
        n_active, prb_used, n_total, dn, tn, retx = terms
        blocks = self._blocks
        if blocks and blocks[0][0] <= now - SHORT_WINDOW_MS:
            self._expire(now)
        prb_total = self.prb_total
        if self._uprb:
            # min() and max() written out; a tie keeps the first operand
            uprb = self._uprb_sum / len(self._uprb)
            if prb_total < uprb:
                uprb = prb_total
            share = uprb + (prb_total - prb_used) / n_active
            floor = prb_total / n_total
            if floor > share:
                share = floor
        else:
            share = prb_total / n_active
        # read by no code here: tests/test_invariants.py checks it against
        # the registered floor, so it is kept to detect a fault
        self.prb_share = share
        if self._density_prbs > 0:
            self._bpp_held = self._density_bytes / self._density_prbs
        bpp = self._bpp_held
        bw = 0.0
        if tn and bpp > 0.0:
            if retx is not None:
                self._retx_held = retx
            # capacity at the current share from the measured per-PRB
            # payload density; a partly used grant would bias it low
            bw = (share * bpp / self.tti_ms * (dn / tn)
                  * (self._gamma_sum / len(blocks) if blocks
                     else GAMMA_DEFAULT) / (1.0 + self._retx_held))
        self.bw_ring.append(bw)
        return bw
