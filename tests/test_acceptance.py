"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line per
criterion. Each line must equal the criterion's line in accept_lines.txt,
which changes only together with a CHANGES.md entry that says why;
tools/record_outputs.py re-records the file and prints what moved.
"""
import random
import re
import statistics
from pathlib import Path

import pytest

from conftest import (FailFirst, SaturatingSender, add_idle_flow,
                      decoded_delays, delivered_bytes, frame_delay,
                      inject_packet, record_encodes)

from ransim import (FlowConfig, RanConfig, SimWorld, compute_metrics,
                    constant_trace, decode_rate, encode_rate,
                    nearest_rank_percentile, random_walk_trace,
                    scenario_from_dict, square_trace, step_trace)
from ransim.harness import run_scenario

TTI = 0.5
FI = 16.6
ACCEPT_LINES = Path(__file__).with_name("accept_lines.txt")


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    """Print the criterion's line and check it against its recorded one."""
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    line = f"[ACCEPT-{num:02d}] {name}: {status}{suffix}"
    print(line)
    recorded = [r for r in ACCEPT_LINES.read_text(encoding="utf-8")
                .splitlines() if r.startswith(f"[ACCEPT-{num:02d}] ")]
    assert recorded == [line], \
        f"ACCEPT-{num:02d} differs from its line in {ACCEPT_LINES.name}"


def test_every_criterion_has_one_recorded_line():
    criteria = [int(m.group(1)) for m in map(
        re.compile(r"test_criterion_(\d\d)_").match, globals()) if m]
    recorded = [re.match(r"\[ACCEPT-(\d\d)\] ", line) for line in
                ACCEPT_LINES.read_text(encoding="utf-8").splitlines()]
    assert all(recorded), f"{ACCEPT_LINES.name} has a line of no criterion"
    assert sorted(int(m.group(1)) for m in recorded) == sorted(criteria)


def _idle_world(pattern, failures=0, harq_rtx_delay_ms=5.5):
    ran = RanConfig(prb_total=100, tti_ms=TTI, tdd_pattern=pattern,
                    harq_rtx_delay_ms=harq_rtx_delay_ms,
                    schedule=constant_trace(30.0))
    w = SimWorld(ran, seed=0)
    w.rng = FailFirst(failures)
    add_idle_flow(w, FlowConfig(flow_id=0, controller="choir",
                                wired_nd_ms=0.0))
    return w


def _packet_delay(pattern, phase_ms, failures=0):
    w = _idle_world(pattern, failures)
    fid = inject_packet(w, 0, 50.0 + phase_ms, 200)
    w.run(0.2)
    return frame_delay(w, 0, fid)


def _choir_world(schedule, wired_nd_ms, *, seed=1, bler=0.0, flows=1,
                 ack_per_frames=1, epsilon=1, initial_mbps=5.0,
                 encoder="instant", controller="choir"):
    ran = RanConfig(prb_total=100, tti_ms=TTI, bler=bler, schedule=schedule)
    w = SimWorld(ran, seed=seed)
    for i in range(flows):
        w.add_flow(FlowConfig(flow_id=i, controller=controller,
                              wired_nd_ms=wired_nd_ms,
                              ack_per_frames=ack_per_frames, epsilon=epsilon,
                              initial_bitrate_mbps=initial_mbps,
                              encoder=encoder))
    return w


def test_criterion_01_tdd_delay_anatomy():
    """Added queueing delay vs an all-downlink run, across slot phases."""
    phases = [round(0.1 * k, 1) for k in range(25)]  # covers one DDDSU cycle
    added = {}
    for phase in phases:
        added[phase] = (_packet_delay("DDDSU", phase)
                        - _packet_delay("DDDDD", phase))
    max_added = max(added.values())
    ok = (all(-1e-9 <= v <= 1.5 + 1e-9 for v in added.values())
          and added[2.0] == pytest.approx(max_added))
    _report(1, "TDD delay anatomy", ok,
            f"max={max_added:.2f}ms at uplink start, "
            f"range [{min(added.values()):.2f}, {max_added:.2f}]")
    assert ok


def test_criterion_02_harq_latency():
    """Scripted single/triple failures land ~6 ms / ~16 ms late (+-1 TTI)."""
    base = _packet_delay("DDDSU", 0.0)
    d1 = _packet_delay("DDDSU", 0.0, 1) - base
    d3 = _packet_delay("DDDSU", 0.0, 3) - base
    ok = abs(d1 - 6.0) <= TTI + 1e-9 and abs(d3 - 16.0) <= TTI + 1e-9
    _report(2, "HARQ latency", ok, f"single={d1:.2f}ms triple={d3:.2f}ms")
    assert ok


def test_criterion_03_estimator_tracking():
    """BLER 0.1, constant trace: BW_i within 10% of goodput, retx ~0.1."""
    w = _choir_world(constant_trace(30.0), 1.0, seed=11, bler=0.1)
    n = int(10_000 / TTI)
    fr = w.flows[0]
    bw_sum = bw_n = 0.0
    retx_sum = retx_n = 0.0
    delivered_at_2s = None
    for _ in range(n):
        w.step()
        if w.now_ms >= 2000.0:
            if delivered_at_2s is None:
                delivered_at_2s = delivered_bytes(fr)
            bw_sum += fr.predictor.bw_ring[-1]
            bw_n += 1
            retx_sum += fr.estimator._retx_held
            retx_n += 1
    goodput = (delivered_bytes(fr) - delivered_at_2s) / (w.now_ms - 2000.0)
    bw_mean = bw_sum / bw_n
    retx_mean = retx_sum / retx_n
    ok = (abs(bw_mean - goodput) / goodput <= 0.10
          and abs(retx_mean - 0.1) <= 0.03)
    _report(3, "Estimator tracking", ok,
            f"BW/goodput={bw_mean / goodput:.3f} retx={retx_mean:.3f}")
    assert ok


def test_criterion_04_choir_convergence():
    """Delivered bitrate ~ eta * effective bandwidth; bounded tail delay."""
    wired = 1.0
    # independent capacity oracle: a sender that always overdrives the link
    ws = _choir_world(constant_trace(30.0), wired, seed=2)
    frs = ws.flows[0]
    frs.sender = SaturatingSender()
    ws.run(8.0)
    start = 2000.0
    eff_bps = delivered_bytes(frs) / ws.now_ms * 8000.0  # ~steady

    wc = _choir_world(constant_trace(30.0), wired, seed=2)
    wc.run(8.0)
    m = compute_metrics(wc.frames_by_flow(), wc.now_ms)
    f = m.flows[0]
    target = 0.95 * eff_bps / 1e6
    floor = wired + TTI  # propagation plus minimal air delay
    ok = (abs(f.avg_mbps - target) / target <= 0.05
          and f.p999_ms <= floor + 2 * FI)
    _report(4, "Choir convergence", ok,
            f"rate={f.avg_mbps:.2f}Mbps vs eta*eff={target:.2f}, "
            f"p999={f.p999_ms:.1f}ms bound={floor + 2 * FI:.1f}ms")
    assert ok


def _step_drop_drain(wired_nd_ms, drain_budget_fi):
    drop_tti = 8000
    drop_ms = drop_tti * TTI
    w = _choir_world(step_trace(30.0, 15.0, drop_tti), wired_nd_ms, seed=1)
    fr = w.flows[0]
    # (encode time, stamp time of the guidance applied) per frame
    encodes = []
    encode_frame = fr.sender.encode_frame

    def record_encode(now):
        encodes.append((now, fr.sender.last_guidance_ts))
        return encode_frame(now)
    fr.sender.encode_frame = record_encode
    n = int(9_000 / TTI)
    queue = []
    for _ in range(n):
        w.step()
        queue.append((w.now_ms, fr.queue.queued_bytes))
    fi = fr.predictor.pattern.fi_est or FI
    # first guidance whose estimation window is fully post-drop, applied at
    # a frame tick: that is when the post-drop guidance takes effect
    t_eff = None
    for encode_ts, guidance_ts in encodes:
        if encode_ts >= drop_ms and guidance_ts >= drop_ms + fi:
            t_eff = encode_ts
            break
    assert t_eff is not None
    post_capacity = 100 * 15.0 * 0.7 / TTI  # bytes/ms raw
    one_frame = 0.95 * post_capacity * fi   # one frame at the post-drop rate
    lo = min(q for ts, q in queue
             if t_eff < ts <= t_eff + drain_budget_fi * fi)
    return lo, one_frame, t_eff


def test_criterion_05_step_drop_drainage():
    """Queue drains within 1 frame interval (ideal) / 3 (realistic)."""
    lo_ideal, budget_i, _ = _step_drop_drain(0.0, 1)
    lo_real, budget_r, _ = _step_drop_drain(10.0, 3)
    ok = lo_ideal <= budget_i and lo_real <= budget_r
    _report(5, "Step-drop drainage", ok,
            f"ideal min_q={lo_ideal:.0f}B <= {budget_i:.0f}B within 1 FI; "
            f"realistic min_q={lo_real:.0f}B <= {budget_r:.0f}B within 3 FI")
    assert ok


def test_criterion_06_fairness_and_scaling():
    """7 identical flows share fairly; 14 flows halve per-flow bitrate."""
    results = {}
    for n in (7, 14):
        w = _choir_world(constant_trace(220.0), 1.0, seed=3, flows=n)
        w.run(10.0)
        m = compute_metrics(w.frames_by_flow(), w.now_ms)
        rates = [m.flows[i].avg_mbps for i in range(n)]
        p95s = [m.flows[i].p95_ms for i in range(n)]
        results[n] = (statistics.mean(rates), statistics.mean(p95s), m.jain)
    ratio = results[14][0] / results[7][0]
    p95_change = abs(results[14][1] - results[7][1]) / results[7][1]
    ok = (results[7][2] >= 0.99
          and abs(ratio - 0.5) <= 0.05 * 0.5
          and p95_change <= 0.10)
    _report(6, "Fairness and scaling", ok,
            f"jain={results[7][2]:.4f} halving={ratio:.3f} "
            f"p95 change={p95_change * 100:.1f}%")
    assert ok


SWEEP_TRACE = square_trace(30.0, 18.0, period_ttis=4000, n_periods=8)


def test_criterion_07_wired_latency_degradation():
    """p99.9 growth bounded by RTT growth plus two frame intervals."""
    p999 = {}
    for wired in (1.0, 10.0, 20.0):
        w = _choir_world(SWEEP_TRACE, wired, seed=7)
        w.run(12.0)
        m = compute_metrics(w.frames_by_flow(), w.now_ms)
        p999[wired] = m.flows[0].p999_ms
    ok = all(p999[wired] - p999[1.0] <= 2 * (wired - 1.0) + 2 * FI + 1e-9
             for wired in (10.0, 20.0))
    _report(7, "Wired-latency degradation", ok,
            f"p999={{1: {p999[1.0]:.1f}, 10: {p999[10.0]:.1f}, "
            f"20: {p999[20.0]:.1f}}}ms")
    assert ok


def test_criterion_08_ack_frequency_robustness():
    """ACK per 1/2/3 frames: stable bitrate, tails grow with sparsity."""
    rates, p999s = [], []
    for ack in (1, 2, 3):
        w = _choir_world(SWEEP_TRACE, 10.0, seed=7, ack_per_frames=ack)
        w.run(12.0)
        m = compute_metrics(w.frames_by_flow(), w.now_ms)
        rates.append(m.flows[0].avg_mbps)
        p999s.append(m.flows[0].p999_ms)
    spread = (max(rates) - min(rates)) / statistics.mean(rates)
    nondecreasing = all(p999s[i + 1] >= p999s[i] - 1e-9 for i in range(2))
    ok = spread <= 0.05 and nondecreasing
    _report(8, "ACK frequency robustness", ok,
            f"rate spread={spread * 100:.2f}% p999={p999s}")
    assert ok


def test_criterion_09_smoothing_tradeoff():
    """Higher smoothing: steadier bitrate but fatter delay tail."""
    trace = random_walk_trace(25.0, 30.0, seed=5, step_fraction=0.3,
                              interval_ttis=66, n_steps=1024)
    meas_ms = 5000.0  # smoothing factors converge slowly; measure steady state
    covs, p99s = [], []
    for eps in (1, 5, 10, 20):
        w = _choir_world(trace, 10.0, seed=7, epsilon=eps, initial_mbps=25.0)
        encodes = record_encodes(w.flows[0])
        w.run(20.0)
        br = [f.actual_bps for f in encodes if f.encode_ts >= meas_ms]
        covs.append(statistics.pstdev(br) / statistics.mean(br))
        p99s.append(nearest_rank_percentile(
            decoded_delays(w.frames_by_flow()[0], meas_ms), 99.0))
    cov_mono = all(covs[i + 1] <= covs[i] + 1e-9 for i in range(3))
    p99_mono = all(p99s[i + 1] >= p99s[i] - 1e-9 for i in range(3))
    ok = cov_mono and p99_mono
    _report(9, "Smoothing tradeoff", ok,
            f"cov={[f'{c:.3f}' for c in covs]} "
            f"p99={[f'{p:.1f}' for p in p99s]}")
    assert ok


def test_criterion_10_baseline_relation():
    """Choir stays within the sanity band around the scone baseline."""
    metrics = {}
    for ctrl in ("choir", "scone"):
        w = _choir_world(SWEEP_TRACE, 10.0, seed=7, controller=ctrl)
        w.run(12.0)
        m = compute_metrics(w.frames_by_flow(), w.now_ms)
        metrics[ctrl] = m.flows[0]
    rate_ratio = metrics["choir"].avg_mbps / metrics["scone"].avg_mbps
    delay_ratio = metrics["choir"].avg_delay_ms / metrics["scone"].avg_delay_ms
    ok = rate_ratio >= 0.95 and delay_ratio <= 1.25
    _report(10, "Baseline relation", ok,
            f"rate ratio={rate_ratio:.3f} delay ratio={delay_ratio:.3f}")
    assert ok


def test_criterion_11_codec_round_trip():
    """10^4 random rates: decode(encode(r)) within 0.05%, bit-exact re-encode."""
    rng = random.Random(123)
    worst = 0.0
    bit_exact = True
    for _ in range(10_000):
        rate = 10 ** rng.uniform(5.0, 10.0)  # 100 kbps .. 10 Gbps
        fb = encode_rate(rate)
        decoded = decode_rate(fb)
        worst = max(worst, abs(decoded - rate) / rate)
        again = encode_rate(decoded)
        if again.to_bytes() != fb.to_bytes():
            bit_exact = False
    ok = worst <= 5e-4 and bit_exact
    _report(11, "Codec round trip", ok,
            f"worst rel err={worst:.2e} bit-exact={bit_exact}")
    assert ok


def test_criterion_12_determinism(tmp_path):
    """Same scenario and seed: byte-identical outputs, losses included."""
    cfg = {
        "duration_s": 4.0,
        "seed": 21,
        "ran": {
            "prb_total": 100, "tti_ms": 0.5, "tdd_pattern": "DDDSU",
            "bler": 0.08,
            "trace": {"kind": "square", "high": 30.0, "low": 20.0,
                      "period_ttis": 2000},
        },
        "flows": [
            {"controller": "choir", "wired_nd_ms": 10.0},
            {"controller": "scone", "wired_nd_ms": 10.0, "flow_id": 1},
        ],
    }
    scn = scenario_from_dict(cfg)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    run_scenario(scn, out_dir=out1)
    run_scenario(scn, out_dir=out2)
    ok = all((out1 / name).read_bytes() == (out2 / name).read_bytes()
             for name in ("metrics.csv", "frames.csv", "events.log"))
    _report(12, "Determinism", ok)
    assert ok
