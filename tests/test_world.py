import bisect
import json
import math
from pathlib import Path

import pytest

from conftest import (decode_time, decoded_delays, delivered_bytes, events,
                      inject_packet, log_text, logged_world, make_world,
                      record_encodes, run_metrics, saturate)
from reference import ReferenceWorld

import ransim.world
from ransim import (FlowConfig, RanConfig, SimWorld, compute_metrics,
                    constant_trace, square_trace)
from ransim.harness import (build_world, scenario_from_dict,
                            write_frames_csv, write_metrics_csv)
from ransim.ran import (OVERHEAD_FIXED, OVERHEAD_PER_SEGMENT, TransportBlock,
                        sample_rlc_queue)
from ransim.sender import FRAME_INTERVAL_MS


class TestFrameCadence:
    def test_one_frame_per_tick(self):
        w = make_world(bpp=30.0, wired_nd_ms=1.0)
        m = run_metrics(w, 3.0, warmup_ms=0.0)
        encode = w.flows[0].encode_ms
        expected = int(3.0 * 1000 / 16.6) + 1
        assert abs(len(encode) - expected) <= 1
        for k, ts in enumerate(encode):
            assert ts == k * 16.6  # exact multiplication schedule

    def test_start_stop_window(self):
        w = make_world(bpp=30.0, wired_nd_ms=1.0, start_s=0.5, stop_s=1.5)
        w.run(3.0)
        encode = w.flows[0].encode_ms
        assert encode[0] == 500.0
        assert encode[-1] < 1500.0
        assert len(encode) == int(1000 / 16.6) + 1


class TestClosedLoopConvergence:
    def test_single_flow_tracks_eta_capacity(self):
        w = make_world(bpp=30.0, wired_nd_ms=1.0, seed=2)
        m = run_metrics(w, 6.0)
        # raw ceiling: 100 PRB * 30 B * 0.7 duty / 0.5 ms * gamma
        f = m.flows[0]
        assert f.avg_mbps == pytest.approx(31.6, rel=0.05)
        columns = w.frames_by_flow()[0]
        measured = sum(enc >= 2000.0 for enc in columns[0])
        assert measured - len(decoded_delays(columns)) <= 2

    def test_guidance_reaches_eta_of_mean_bw(self):
        w = make_world(bpp=30.0, wired_nd_ms=1.0, seed=2)
        w.run(6.0)
        pred = w.flows[0].predictor.last_prediction
        assert pred.guidance == pytest.approx(0.95 * pred.mean_bw, rel=1e-6)
        assert pred.pred_q == 0.0

    def test_stationary_within_five_frame_intervals(self):
        # after warm-up, every 5-frame window of guidance averages to within
        # 2% of eta * allocated bandwidth (per-TTI dips are the drain term
        # absorbing transient queue samples at TDD/frame beat phases)
        w = make_world(bpp=30.0, wired_nd_ms=1.0, seed=2)
        n = int(6.0 * 1000 / 0.5)
        guide, bw = [], []
        for _ in range(n):
            w.step()
            if w.now_ms >= 2000.0 and w.tti_index % 33 == 0:
                pred = w.flows[0].predictor.last_prediction
                guide.append(pred.guidance)
                bw.append(pred.mean_bw)
        target = 0.95 * (sum(bw) / len(bw))
        for k in range(len(guide) - 5):
            window_mean = sum(guide[k:k + 5]) / 5
            assert window_mean == pytest.approx(target, rel=0.02)


class TestOracleController:
    def test_tracks_capacity_instantly(self):
        w = make_world(bpp=30.0, controller="oracle", wired_nd_ms=1.0)
        m = run_metrics(w, 6.0)
        # oracle sends at the ground-truth drain rate: ~33.2 Mbps payload
        assert m.flows[0].avg_mbps == pytest.approx(33.2, rel=0.05)


class TestCapacityCursor:
    # breakpoints at TTIs 0, 5, ..., 25; the last one falls on the last TTI
    SCHEDULE = square_trace(30.0, 15.0, 10, n_periods=3)
    N = 26

    def _world(self, schedule):
        w = SimWorld(RanConfig(schedule=schedule), seed=0)
        w.add_flow(FlowConfig(flow_id=0, controller="oracle"))
        return w

    def test_follows_materialized_trace(self):
        w = self._world(self.SCHEDULE)
        seen = []
        for _ in range(self.N):
            seen.append(w._bpp)
            w.step()
        assert seen == self.SCHEDULE.materialize(self.N)

    def test_truth_after_run_reads_tti_index(self):
        w = self._world(self.SCHEDULE)
        # stop on the last breakpoint, where the value differs from the
        # last stepped TTI's
        w.run((self.N - 1) * 0.5 / 1000.0)
        assert w.tti_index == self.N - 1
        *_, before, bpp = self.SCHEDULE.materialize(w.tti_index + 1)
        assert bpp != before
        ref = self._world(constant_trace(bpp))
        assert w.true_flow_rate() == ref.true_flow_rate()

    def test_holds_last_breakpoint(self):
        w = self._world(self.SCHEDULE)
        for _ in range(self.N + 40):
            w.step()
            assert w._bpp == self.SCHEDULE.materialize(w.tti_index + 1)[-1]
        assert w._bpp == self.SCHEDULE.breakpoints[-1][1]


class TestSconeController:
    def test_converges_near_capacity(self):
        w = make_world(bpp=30.0, controller="scone", wired_nd_ms=1.0)
        m = run_metrics(w, 6.0)
        assert 25.0 <= m.flows[0].avg_mbps <= 34.0


class TestSaturatingDrain:
    def test_goodput_matches_theory(self):
        w = make_world(bpp=30.0, wired_nd_ms=1.0)
        fr = saturate(w)
        w.run(6.0)
        # payload capacity = 4200 B/ms minus block overheads
        rate = delivered_bytes(fr) / w.now_ms
        assert rate == pytest.approx(4200 * 0.992, rel=0.02)


class TestAckCadence:
    def test_sparser_acks_mean_fewer_stamps(self):
        counts = {}
        for ack in (1, 2, 3):
            w = make_world(bpp=30.0, wired_nd_ms=1.0, ack_per_frames=ack,
                           log_level="full")
            w.run(3.0)
            counts[ack] = sum(1 for r in events(w) if r.event == "ack_stamp")
        assert counts[1] > counts[2] > counts[3]

    def test_feedback_rides_acks_only(self):
        # every feedback application pairs with a stamped ACK record
        w = make_world(bpp=30.0, wired_nd_ms=1.0, log_level="full")
        w.run(2.0)
        logged = events(w)
        stamps = [r for r in logged if r.event == "ack_stamp"]
        applies = [r for r in logged if r.event == "feedback_apply"]
        assert len(applies) <= len(stamps)
        assert len(applies) >= len(stamps) - 4  # tail still in flight


class TestMultiFlowIsolation:
    def test_two_flows_share_equally(self):
        w = make_world(bpp=60.0, flows=2, wired_nd_ms=1.0)
        m = run_metrics(w, 5.0)
        r0, r1 = m.flows[0].avg_mbps, m.flows[1].avg_mbps
        assert r0 == pytest.approx(r1, rel=0.03)
        assert m.jain > 0.999

    def test_late_joiner_taxes_incumbent(self):
        ran = RanConfig(prb_total=100, tti_ms=0.5,
                        schedule=constant_trace(30.0))
        w = SimWorld(ran, seed=1)
        w.add_flow(FlowConfig(flow_id=0, controller="choir", wired_nd_ms=1.0))
        w.add_flow(FlowConfig(flow_id=1, controller="choir", wired_nd_ms=1.0,
                              start_s=3.0))
        fr0 = record_encodes(w.flows[0])
        w.run(8.0)
        early = [f.actual_bps for f in fr0 if 2000 < f.encode_ts < 2900]
        late = [f.actual_bps for f in fr0 if 6000 < f.encode_ts < 7900]
        assert sum(late) / len(late) < 0.65 * sum(early) / len(early)

    @pytest.mark.parametrize("controller", ["choir", "scone", "oracle"])
    def test_leaver_frees_capacity(self, controller):
        # once flow 1 leaves, flow 0 must climb to the single-flow capacity
        single = make_world(bpp=30.0, flows=1, controller=controller)
        capacity_bps = single.true_flow_rate() * 8000.0
        w = make_world(bpp=30.0, flows=1, controller=controller)
        w.add_flow(FlowConfig(flow_id=1, controller=controller,
                              wired_nd_ms=1.0, stop_s=3.0))
        encodes = record_encodes(w.flows[0])
        w.run(8.0)
        late = [f.actual_bps for f in encodes if 5000 <= f.encode_ts < 8000]
        assert sum(late) / len(late) == pytest.approx(capacity_bps, rel=0.10)


def _record_calls(world, method, part="predictor"):
    """Per flow id, the arguments of every call to a method of its predictor
    (or of another per-flow part, such as its estimator); none for a flow
    that lacks the part."""
    calls = {fid: [] for fid in world.flows}
    for fid, fr in world.flows.items():
        if getattr(fr, part) is None:
            continue
        inner = getattr(getattr(fr, part), method)

        def spy(*args, _inner=inner, _calls=calls[fid]):
            _calls.append(args)
            return _inner(*args)
        setattr(getattr(fr, part), method, spy)
    return calls


def _mixed_world(world_cls=SimWorld, log_level=None, **flow_kwargs):
    """choir, scone and oracle flows plus a choir flow that leaves at 2 s;
    with a log_level, a logged_world."""
    ran = RanConfig(prb_total=100, tti_ms=0.5, bler=0.1,
                    schedule=square_trace(30.0, 6.0, 400, n_periods=20))
    w = (world_cls(ran, seed=4) if log_level is None else
         logged_world(ran, seed=4, log_level=log_level, world_cls=world_cls))
    for fid, controller in enumerate(("choir", "scone", "oracle", "choir")):
        w.add_flow(FlowConfig(flow_id=fid, controller=controller,
                              stop_s=2.0 if fid == 3 else None,
                              **flow_kwargs))
    return w


def _write_outputs(world, out):
    """events.log (when kept), frames.csv and metrics.csv, as bytes."""
    out.mkdir()
    if world.log is not None:
        (out / "events.log").write_text(log_text(world))
    write_frames_csv(out / "frames.csv", world)
    write_metrics_csv(out / "metrics.csv", compute_metrics(
        world.frames_by_flow(), world.now_ms, 2000.0))
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestPredictionAtStamp:
    def test_eager_prediction_changes_nothing(self, tmp_path):
        # ReferenceWorld predicts for every choir flow in every TTI, before
        # any stamp; the estimate pass leaves every predictor input in
        # place, so the prediction made there equals the one made at the
        # ACK stamp
        outputs, stamps = [], []
        for world_cls in (SimWorld, ReferenceWorld):
            w = _mixed_world(world_cls, wired_nd_ms=5.0)
            stamps.append(_record_calls(w, "record_stamp"))
            w.run(3.0)
            outputs.append(_write_outputs(w, tmp_path / world_cls.__name__))
        assert outputs[0] == outputs[1]
        assert stamps[0] == stamps[1]
        assert len(stamps[0][0]) > 50 and len(stamps[0][3]) > 20

    def test_one_prediction_per_stamping_tti(self):
        w = _mixed_world(wired_nd_ms=0.0, ack_per_frames=2)
        computes = _record_calls(w, "compute")
        stamps = _record_calls(w, "record_stamp")
        w.run(3.0)
        assert computes[1] == [] and computes[2] == []
        shared = 0
        for fid in (0, 3):
            by_tti = {}
            for ts, guidance in stamps[fid]:
                by_tti.setdefault(ts, []).append(guidance)
            assert [now for now, _ in computes[fid]] == list(by_tti)
            for values in by_tti.values():
                assert len(set(values)) == 1
                shared += len(values) > 1
        assert shared > 0


class TestEstimateUpkeep:
    def test_eager_upkeep_changes_nothing(self, tmp_path):
        # ReferenceWorld samples queues, keeps estimator windows and
        # estimates for every present flow whatever its controller, reading
        # the cell windows on each estimate; only stamps read the skipped
        # state, and the snapshot holds the values each read gave
        outputs = []
        for world_cls in (SimWorld, ReferenceWorld):
            w = _mixed_world(world_cls, log_level="full", wired_nd_ms=5.0)
            w.run(3.0)
            outputs.append(_write_outputs(w, tmp_path / world_cls.__name__))
        assert outputs[0] == outputs[1]
        log = outputs[0]["events.log"]
        assert b",ack_stamp,1," in log and b",predict,3," in log

    def test_hooks_run_only_where_a_stamp_reads_them(self, monkeypatch):
        w = _mixed_world(wired_nd_ms=5.0)
        est = {m: _record_calls(w, m, "estimator")
               for m in ("compute", "note_grant", "note_block")}
        enqueues = _record_calls(w, "on_enqueue")
        samples = {fid: [] for fid in w.flows}
        flow_of = {fr.queue: fid for fid, fr in w.flows.items()}

        def sample_spy(queue, now):
            samples[flow_of[queue]].append(now)
            return sample_rlc_queue(queue, now)
        monkeypatch.setattr(ransim.world, "sample_rlc_queue", sample_spy)
        present = {fid: [] for fid in w.flows}
        estimate = w._estimate_and_predict

        def estimate_spy(t0, flows):
            for fid, fr in w.flows.items():
                if fr.present(t0):
                    present[fid].append(t0)
            estimate(t0, flows)
        w._estimate_and_predict = estimate_spy
        w.run(3.0)
        for hook in (est["compute"], est["note_grant"], est["note_block"],
                     enqueues, samples):
            assert hook[2] == []
        assert enqueues[1] == [] and samples[1] == []
        assert est["note_block"][1] and enqueues[0] and enqueues[3]
        assert len(present[3]) < len(present[0]) == 6000
        for fid in (0, 1, 3):
            assert [now for now, _ in est["compute"][fid]] == present[fid]
        for fid in (0, 3):
            assert samples[fid] == present[fid]

    def test_parts_follow_the_controller(self, monkeypatch):
        # from its first tick an oracle flow holds no estimator or
        # predictor and a scone flow no predictor; scone's stamp averages
        # the estimator's own ring
        w = _mixed_world(wired_nd_ms=5.0)
        w.step()
        parts = {fid: (fr.estimator is not None, fr.predictor is not None)
                 for fid, fr in w.flows.items()}
        assert parts == {0: (True, True), 1: (True, False),
                         2: (False, False), 3: (True, True)}
        scone = w.flows[1]
        window = round(FRAME_INTERVAL_MS / w.ran.tti_ms)
        stamps = []
        encode_scone = ransim.world.encode_scone

        def encode_spy(fb):
            ring = list(scone.estimator.bw_ring)[-window:]
            stamps.append((fb.capacity, sum(ring) / len(ring)))
            return encode_scone(fb)
        monkeypatch.setattr(ransim.world, "encode_scone", encode_spy)
        w.run(1.0)
        assert len(stamps) > 20 and any(cap > 0.0 for cap, _ in stamps)
        for capacity, mean in stamps:
            assert capacity == pytest.approx(mean, rel=1e-12)


class TestInjectedPacketPath:
    def test_injection_without_sender(self, capsys):
        w = make_world(bpp=30.0, wired_nd_ms=0.0, idle=True)
        fid = inject_packet(w, 0, 10.0, 500)
        w.run(0.1)
        assert not math.isnan(w.flows[0].decode_ms[fid])
        assert delivered_bytes(w.flows[0]) == 500

    def test_packet_before_start_waits_for_the_start_tti(self):
        # the packet reaches the base station at 10 ms, before its flow
        # starts; the flow's queue holds it from the first TTI it is live,
        # and the predictor and the log keep its arrival time
        w = make_world(wired_nd_ms=0.0, idle=True, start_s=0.05,
                       log_level="full")
        fr = w.flows[0]
        fid = inject_packet(w, 0, 10.0, 500)
        queued = {}
        estimate = w._estimate_and_predict

        def estimate_spy(t0, flows):
            queued[t0] = (list(fr.queue.segments), fr.queue.queued_bytes)
            estimate(t0, flows)
        w._estimate_and_predict = estimate_spy
        w.run(0.1)
        assert queued[49.5] == ([], 0)
        assert queued[50.0] == ([(fid, 500)], 500)
        assert fr.predictor.last_pkt_ts == 10.0
        enq, = [r for r in events(w) if r.event == "enqueue"]
        assert (enq.time_ms, enq.nbytes) == (10.0, 500)
        assert decode_time(w, 0, fid) == 50.5


class TestWireLanes:
    """Each flow's packets wait on the wire in their own lane; the `full`
    log merges the arrivals of a TTI across flows in (time, pkt) order."""

    def _run(self, monkeypatch):
        insorts = []  # (flow_id, frame_id) of each packet that took insort

        def counting_insort(lane, pkt):
            fid, = [f for f, fr in w.flows.items() if fr.lane is lane]
            insorts.append((fid, pkt[2]))
            bisect.insort(lane, pkt)
        monkeypatch.setattr(ransim.world, "insort", counting_insort)
        w = make_world(flows=3, wired_nd_ms=2.0, log_level="full")
        # flow 0 paces frames 2, 5, 8, ... over 30 ms, past the first packet
        # of the next frame, 16.6 ms later
        flow0 = w.flows[0]
        paced = flow0.sender.packet_release_offsets

        def stretched(nbytes):
            packets = paced(nbytes)
            # the frame being paced was just added: its id is len - 1
            if len(flow0.encode_ms) % 3:
                return packets
            step = 30.0 / len(packets)
            return [(n, i * step) for i, (n, _) in enumerate(packets)]
        flow0.sender.packet_release_offsets = stretched
        # flow 2 also gets packets injected out of time order
        injected = [inject_packet(w, 2, ts, 300)
                    for ts in (40.0, 25.0, 33.3, 25.0)]
        # (TTI start, line time, pkt, flow) of each enqueue line
        enqueued = []
        add = w.log.add

        def add_spy(ts, event, flow_id, nbytes, detail):
            if event == "enqueue":
                pkt = int(detail.split(";")[0].removeprefix("pkt="))
                enqueued.append((w.now_ms, ts, pkt, flow_id))
            add(ts, event, flow_id, nbytes, detail)
        w.log.add = add_spy
        w.run(0.5)
        return w, insorts, injected, enqueued

    def test_enqueue_lines_in_time_and_packet_order(self, monkeypatch):
        w, insorts, injected, enqueued = self._run(monkeypatch)
        keys = [(ts, pkt) for _, ts, pkt, _ in enqueued]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert len({pkt for _, pkt in keys}) == len(keys)
        assert {fid for *_, fid in enqueued} == {0, 1, 2}
        # the frames after a stretched one, and the late injections, took
        # the insort path
        assert {(0, 3), (0, 6)} <= set(insorts)
        assert {(2, f) for f in injected[1:]} <= set(insorts)
        assert all(list(fr.lane) == sorted(fr.lane)
                   for fr in w.flows.values())

    def test_packet_enqueued_at_its_arrival_tti(self, monkeypatch):
        # at the first TTI that starts at or after its arrival, and with
        # every byte the sender released either on the wire or enqueued
        w, _, _, enqueued = self._run(monkeypatch)
        tti = w.ran.tti_ms
        assert all(t0 - tti < ts <= t0 for t0, ts, *_ in enqueued)
        w.assert_conservation()


class TestLiveFlows:
    SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / \
        "join_leave.json"

    def test_step_visits_exactly_the_present_flows(self):
        self._visits_exactly_the_present_flows(reverse_ids=False)

    def test_step_visits_exactly_the_present_flows_added_out_of_id_order(self):
        # flow_ids in reverse of the listing order: the flows are added out
        # of id order, and the highest id starts first
        self._visits_exactly_the_present_flows(reverse_ids=True)

    def _visits_exactly_the_present_flows(self, reverse_ids):
        # join_leave plus a leaver whose last packets are still on the wire
        # after its stop, so it is present again once they arrive
        cfg = json.loads(self.SCENARIO.read_text())
        cfg["flows"].append({"controller": "choir", "wired_nd_ms": 20.0,
                             "start_s": 0.4, "stop_s": 1.3})
        if reverse_ids:
            last = len(cfg["flows"]) - 1
            for i, flow in enumerate(cfg["flows"]):
                flow["flow_id"] = last - i
        w = build_world(scenario_from_dict(cfg))

        def scan(now):
            return [fr for _, fr in sorted(w.flows.items()) if fr.present(now)]
        visits, reads = [], []
        estimate, present = w._estimate_and_predict, w._present

        def estimate_spy(t0, flows):
            visits.append((list(flows), scan(t0)))
            estimate(t0, flows)

        def present_spy(now):
            flows = present(now)
            reads.append((list(flows), scan(now)))
            return flows
        w._estimate_and_predict = estimate_spy
        w._present = present_spy
        w.run(cfg["duration_s"])
        # step reads the present flows once a TTI, and each oracle frame
        # once more
        assert len(visits) == 4000 and len(reads) > 4300
        for flows, want in visits + reads:
            assert flows == want
        # the four flows that never stop are still live
        assert [fr.cfg.stop_s for fr in w._live] == [None] * 4


class TestTxBlockPrbs:
    def test_block_of_unit_bytes_takes_one_prb(self):
        # a D slot at 30 B per PRB: 17 B of payload plus one segment's
        # framing fill one PRB exactly, and one byte more needs two
        prbs = {}
        for payload in (17, 18):
            w = make_world(bpp=30.0, wired_nd_ms=0.0, idle=True,
                           log_level="full")
            inject_packet(w, 0, 50.0, payload)
            w.run(0.1)
            tx, = [r for r in events(w) if r.event == "tx_block"]
            prbs[tx.nbytes] = tx.detail.split(";")[1]
        assert prbs == {30: "prbs=1", 31: "prbs=2"}


class TestDeliverBlock:
    # frame sizes, then blocks of (frame, bytes) segments; the second block
    # interleaves A, B, A as an RLC requeue can, and A completes last in it
    SIZES = (3000, 1200, 800)
    BLOCKS = ([(0, 1000), (0, 500)],
              [(0, 800), (1, 1200), (0, 700)],
              [(2, 300), (2, 500)])

    def _deliver(self, ack_per_frames, deliver):
        w = make_world(wired_nd_ms=0.0, idle=True, log_level="frames",
                       ack_per_frames=ack_per_frames)
        fr = w.flows[0]
        frame_ids = [inject_packet(w, 0, 0.0, n) for n in self.SIZES]
        credits = []
        on_bytes = fr.receiver.on_bytes
        fr.receiver.on_bytes = lambda *a: credits.append(a) or on_bytes(*a)
        for k, segs in enumerate(self.BLOCKS):
            payload = sum(n for _, n in segs)
            overhead = OVERHEAD_FIXED + OVERHEAD_PER_SEGMENT * len(segs)
            block = TransportBlock(payload + overhead, overhead,
                                   [(frame_ids[f], n) for f, n in segs])
            deliver(w, fr, block, 10.0 * (k + 1))
            yield fr, events(w), credits

    @pytest.mark.parametrize("ack_per_frames", [1, 2])
    def test_runs_credit_like_segments(self, ack_per_frames):
        got = self._deliver(ack_per_frames, SimWorld._deliver_block)
        want = self._deliver(ack_per_frames, ReferenceWorld._deliver_block)
        for (fr, log, _), (ref, ref_log, _) in zip(got, want, strict=True):
            assert log == ref_log
            assert delivered_bytes(fr) == delivered_bytes(ref)
            rx, ref_rx = fr.receiver, ref.receiver
            assert rx.bytes_since_ack == ref_rx.bytes_since_ack
            assert rx.pending_acks == ref_rx.pending_acks
            assert rx.remaining == ref_rx.remaining
            assert fr.decode_ms.tobytes() == ref.decode_ms.tobytes()
        # B completes before A in the interleaved block
        assert [r.detail.split(";")[0] for r in log] == \
            ["frame=1", "frame=0", "frame=2"]

    def test_one_credit_per_run(self):
        *_, (fr, _, credits) = self._deliver(1, SimWorld._deliver_block)
        assert credits == [(0, 1500), (0, 800), (1, 1200), (0, 700), (2, 800)]
        assert delivered_bytes(fr) == sum(self.SIZES)
