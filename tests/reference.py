"""The model stated once, plainly, as the reference for SimWorld's fast paths:
the paper's estimator equations, one checked helper each, and
``ReferenceWorld``, which must write the same bytes as ``SimWorld``."""
from functools import partial

from ransim.capacity import GAMMA_DEFAULT
from ransim.ran import sample_rlc_queue
from ransim.world import SimWorld


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


def estimate(est, cell, now: float, n_present: int) -> float:
    """A flow's allocated bandwidth for the next TTI, bytes/ms, summing the
    cell windows' entries on each call: the mean PRBs used and active flows
    per scheduled TTI, the TTIs and their downlink weight, and the data and
    retransmitting TTIs. The share is an even split until the flow has a
    grant; the estimator holds its last per-PRB density and retransmission
    rate while their windows are empty."""
    est._expire(now)
    usage = cell._usage
    n_active = max(1, round(sum(n for _, n in usage) / len(usage))
                   if usage else 0)
    if not est._uprb:
        est.prb_share = initial_prb_share(est.prb_total, n_active)
    else:
        uprb = sum(est._uprb) / len(est._uprb)
        prb_used = sum(p for p, _ in usage) / len(usage) if usage else 0.0
        est.prb_share = update_prb_share(
            min(uprb, est.prb_total), est.prb_total,
            min(prb_used, est.prb_total), n_active, max(1, n_present))
    if est._density_prbs > 0:
        est._bpp_held = est._density_bytes / est._density_prbs
    if not cell._long or est._bpp_held <= 0.0:
        return 0.0
    cap = flow_capacity(est.prb_share, est._bpp_held, est.tti_ms,
                        sum(cell._long), len(cell._long))
    data = sum(d for d, _ in cell._short)
    if data > 0:
        est._retx_held = retx_rate(sum(r for _, r in cell._short), data)
    gamma = (est._gamma_sum / len(est._blocks) if est._blocks
             else GAMMA_DEFAULT)
    return alloc_bw(cap, gamma, est._retx_held)


def note_block(est, now: float, total_bytes: int, overhead: int,
               prbs_used: int, slot_factor: float) -> None:
    """A sent block in the estimator's windows: its PRBs are the TTI's
    grant, and its bytes, full-slot PRBs and payload fraction join the
    short window."""
    est.note_grant(prbs_used)
    eff_prbs = prbs_used * slot_factor
    ratio = (total_bytes - overhead) / total_bytes
    est._blocks.append((now, float(total_bytes), eff_prbs, ratio))
    est._density_bytes += total_bytes
    est._density_prbs += eff_prbs
    est._gamma_sum += ratio


class ReferenceWorld(SimWorld):
    """README's model, one TTI at a time; every flow keeps all base-station
    state. Each TTI every started flow's arrived packets enter its queue;
    the flows ``present()`` finds have their queues sampled and bandwidth
    estimated; every choir flow predicts, and its first ACK stamp writes the
    ``predict`` line; the TDD pattern's slot serves the downlink and the
    uplink; delivered bytes are credited one segment at a time."""

    def add_flow(self, cfg):
        fr = super().add_flow(cfg)
        fr.predicts = fr.estimates = True
        fr.estimator.note_block = partial(note_block, fr.estimator)
        return fr

    def _n_present(self, now):
        return sum(fr.present(now) for fr in self._flow_order)

    def step(self):
        t0 = self.now_ms
        t1 = t0 + self.ran.tti_ms
        # arrivals and the uplink visit the flows in _live: here, every
        # started flow
        self._live = started = [fr for fr in self._flow_order
                                if fr.start_ms <= t0]
        self._process_arrivals(t0)
        present = [fr for fr in started if fr.present(t0)]
        self._sampled = {fr: sample_rlc_queue(fr.queue, t0) for fr in present}
        for fr in present:
            fr.estimator.bw_ring.append(
                estimate(fr.estimator, self.cell, t0, len(present)))
        self._unstamped = [fr for fr in started
                           if fr.cfg.controller == "choir"]
        for fr in self._unstamped:
            fr.predictor.compute(t0, fr.queue.samples)
        pattern = self.ran.tdd_pattern
        factor = pattern.downlink_factor(self.tti_index)
        if factor > 0.0:
            self._downlink(t0, t1, factor, present)
        else:
            self.cell.close_tti(0.0, False, False, False, 0, 0)
        if pattern.can_uplink(self.tti_index):
            self._uplink(t0)
        self._process_sender_events(t0, t1)
        self.tti_index += 1
        self.duration_ms = self.now_ms
        self._bpp = [bpp for tti, bpp in self.ran.schedule.breakpoints
                     if tti <= self.tti_index][-1]

    def _stamp_and_forward(self, fr, t0, acked_bytes):
        if fr in self._unstamped:
            self._unstamped.remove(fr)
            pred = fr.predictor.last_prediction
            if self._log_full:
                self.log.add(
                    t0, "predict", fr.cfg.flow_id, self._sampled.get(fr, 0),
                    f"pred_q={pred.pred_q!r};guidance={pred.guidance!r};"
                    f"fi={pred.fi!r};bw={fr.estimator.bw_ring[-1]!r};"
                    f"mean_bw={pred.mean_bw!r}")
        super()._stamp_and_forward(fr, t0, acked_bytes)

    def _deliver_block(self, fr, block, t1):
        for frame_id, nbytes in block.segments:
            fr.delivered_payload += nbytes
            if fr.receiver.on_bytes(frame_id, nbytes):
                frame = fr.frames[frame_id]
                frame.decode_ts = t1
                if self.log is not None:
                    self.log.add(t1, "frame_done", fr.cfg.flow_id,
                                 frame.nbytes, f"frame={frame.frame_id};"
                                 f"delay={frame.delay_ms!r}")
                fr.receiver.on_frame_complete(t1)
        fr.receiver.maybe_timeout_ack(t1)
        if self._log_full:
            self.log.add(t1, "deliver", fr.cfg.flow_id, block.payload_bytes,
                         f"segs={len(block.segments)}")
