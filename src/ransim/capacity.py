"""Per-flow allocated-bandwidth estimation from scheduler-visible counters.

The estimator maps physical resource usage to the transport-layer bandwidth a
flow can count on for the next TTI: a PRB share updated from idle resources,
a per-PRB physical rate corrected by the downlink duty cycle, and a capacity
discounted by payload overhead and the short-window retransmission rate.
"""
from __future__ import annotations

from collections import deque

GAMMA_DEFAULT = 0.97  # payload fraction assumed before any block is observed

LONG_WINDOW_MS = 100.0   # duty-cycle statistics horizon
SHORT_WINDOW_MS = 10.0   # retransmission and payload-fraction horizon


class EstimatorError(ValueError):
    """Raised when an estimator input breaks a precondition."""


def initial_prb_share(prb_total: float, n_active: int) -> float:
    """Even split of the cell's PRBs at connection setup."""
    if n_active < 1:
        raise EstimatorError("no active flows to share PRBs")
    return prb_total / n_active


def update_prb_share(uprb: float, prb_total: float, prb_used: float,
                     n_active: int, n_total: int) -> float:
    """Per-TTI share update: last usage plus an even cut of idle PRBs.

    The result never drops below the registered-flow floor
    ``prb_total / n_total``.
    """
    if n_total < 1:
        raise EstimatorError("n_total must be at least 1")
    if n_active < 1:
        raise EstimatorError("n_active must be at least 1")
    if prb_used > prb_total:
        raise EstimatorError("prb_used cannot exceed prb_total")
    grow = uprb + (prb_total - prb_used) / n_active
    return max(grow, prb_total / n_total)


def flow_capacity(prb_share: float, bytes_per_prb: float, tti_len: float,
                  dn: float, tn: float) -> float:
    """Physical ceiling for the flow, bytes/ms: prb_share PRBs carrying
    bytes_per_prb each per TTI, scaled by the downlink duty cycle dn/tn."""
    if tn <= 0:
        raise EstimatorError("insufficient window: no TTIs observed")
    return prb_share * bytes_per_prb / tti_len * (dn / tn)


def retx_rate(hn: float, dn_short: float) -> float:
    """Share of short-window data TTIs that carried retransmissions."""
    if dn_short < 0:
        raise EstimatorError("dn_short must be nonnegative")
    if dn_short == 0:
        return 0.0
    return hn / dn_short


def alloc_bw(capacity: float, gamma: float, retx: float) -> float:
    """Transport-layer bandwidth: capacity discounted by overhead and retx."""
    if not 0 < gamma <= 1:
        raise EstimatorError("gamma must be in (0, 1]")
    if retx < 0:
        raise EstimatorError("retx must be nonnegative")
    return capacity * gamma / (1.0 + retx)


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

    @property
    def tn(self) -> int:
        return len(self._long)

    @property
    def dn(self) -> float:
        return self._long_sum

    @property
    def hn(self) -> int:
        return self._short_retx

    @property
    def dn_short(self) -> int:
        return self._short_data

    @property
    def prb_used_mean(self) -> float:
        if not self._usage:
            return 0.0
        return self._usage_prb / len(self._usage)

    @property
    def n_active_mean(self) -> float:
        if not self._usage:
            return 0.0
        return self._usage_active / len(self._usage)


class FlowEstimator:
    """Sliding per-flow measurements plus the capacity computation."""

    def __init__(self, cell: CellWindows, prb_total: int, tti_ms: float):
        self.cell = cell
        self.prb_total = prb_total
        self.tti_ms = tti_ms
        self._uprb: deque[int] = deque()
        self._uprb_sum = 0
        self._uprb_n = max(1, int(round(SHORT_WINDOW_MS / tti_ms)))
        self.prb_share = float(prb_total)
        # per-PRB payload density samples over the short window:
        # (bytes, effective full-slot PRBs) per transmitting TTI
        self._density: deque[tuple[float, float, float]] = deque()
        self._density_bytes = 0.0
        self._density_prbs = 0.0
        self._gamma: deque[tuple[float, float]] = deque()
        self._gamma_sum = 0.0
        self._bpp_held = 0.0
        self._retx_held = 0.0

    def note_grant(self, uprb: int) -> None:
        """Record this flow's granted-and-used PRBs for one downlink TTI."""
        self._uprb.append(uprb)
        self._uprb_sum += uprb
        if len(self._uprb) > self._uprb_n:
            self._uprb_sum -= self._uprb.popleft()

    def note_block(self, now: float, total_bytes: int, overhead: int,
                   prbs_used: int, slot_factor: float) -> None:
        """Record one transmitted block for density and payload statistics."""
        eff_prbs = prbs_used * slot_factor
        self._density.append((now, float(total_bytes), eff_prbs))
        self._density_bytes += total_bytes
        self._density_prbs += eff_prbs
        ratio = (total_bytes - overhead) / total_bytes if total_bytes else 0.0
        self._gamma.append((now, ratio))
        self._gamma_sum += ratio
        self._expire(now)

    def _expire(self, now: float) -> None:
        cutoff = now - SHORT_WINDOW_MS
        while self._density and self._density[0][0] <= cutoff:
            _, b, p = self._density.popleft()
            self._density_bytes -= b
            self._density_prbs -= p
        while self._gamma and self._gamma[0][0] <= cutoff:
            self._gamma_sum -= self._gamma.popleft()[1]

    def compute(self, now: float, n_total: int) -> float:
        """Allocated bandwidth for the next TTI, bytes/ms, from current
        windows."""
        cell = self.cell
        self._expire(now)
        n_active = max(1, round(cell.n_active_mean))
        if not self._uprb:
            # connection start: even split over currently active flows
            self.prb_share = initial_prb_share(self.prb_total, n_active)
        else:
            uprb = self._uprb_sum / len(self._uprb)
            self.prb_share = update_prb_share(
                min(uprb, self.prb_total), self.prb_total,
                min(cell.prb_used_mean, self.prb_total),
                n_active, max(1, n_total))
        if self._density_prbs > 0:
            self._bpp_held = self._density_bytes / self._density_prbs
        bpp = self._bpp_held
        if cell.tn == 0 or bpp <= 0.0:
            return 0.0
        # capacity at the current share from the measured per-PRB payload
        # density; a partially used grant would otherwise bias it low.
        cap = flow_capacity(self.prb_share, bpp, self.tti_ms, cell.dn,
                            cell.tn)
        if cell.dn_short > 0:
            self._retx_held = retx_rate(cell.hn, cell.dn_short)
        return alloc_bw(cap, self.gamma_mean(), self._retx_held)

    def gamma_mean(self) -> float:
        if not self._gamma:
            return GAMMA_DEFAULT
        return self._gamma_sum / len(self._gamma)
