"""Trace-driven 5G downlink simulator with base-station-guided rate control."""

from .baselines import (OracleSender, SconeFeedback, SconeSender,
                        scone_target_rate)
from .codec import GuidanceFeedback, decode_rate, encode_rate
from .harness import (Scenario, ScenarioError, load_scenario, run_scenario,
                      scenario_from_dict, sweep_scenario)
from .metrics import (FlowMetrics, RunMetrics, compute_metrics, frame_delay,
                      jain_index, nearest_rank_percentile)
from .predictor import (FlowPredictor, decision_horizon,
                        detect_frame_boundary, guidance_bw,
                        inflight_frame_count, mean_alloc_bw, min_rlc_queue,
                        predict_queue, update_error_correction,
                        update_frame_interval)
from .ran import (FlowQueueState, RanConfig, TransportBlock,
                  sample_rlc_queue, schedule_prbs)
from .sender import (ChoirSender, SenderState, VideoFrame, pacing_rate,
                     target_bitrate)
from .tdd import TddPattern
from .traces import (CapacitySchedule, TraceError, constant_trace, load_trace,
                     random_walk_trace, square_trace, step_trace)
from .world import CONTROLLERS, FlowConfig, SimWorld

__all__ = [
    "CONTROLLERS", "CapacitySchedule", "ChoirSender", "FlowConfig",
    "FlowMetrics", "FlowPredictor", "FlowQueueState", "GuidanceFeedback",
    "OracleSender", "RanConfig", "RunMetrics", "Scenario", "ScenarioError",
    "SconeFeedback", "SconeSender", "SenderState", "SimWorld", "TddPattern",
    "TraceError", "TransportBlock", "VideoFrame",
    "compute_metrics", "constant_trace", "decision_horizon", "decode_rate",
    "detect_frame_boundary", "encode_rate", "frame_delay", "guidance_bw",
    "inflight_frame_count", "jain_index", "load_scenario", "load_trace",
    "mean_alloc_bw", "min_rlc_queue", "nearest_rank_percentile",
    "pacing_rate", "predict_queue", "random_walk_trace", "run_scenario",
    "sample_rlc_queue", "scenario_from_dict", "schedule_prbs",
    "scone_target_rate", "square_trace", "step_trace", "sweep_scenario",
    "target_bitrate", "update_error_correction", "update_frame_interval",
]
