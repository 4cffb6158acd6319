"""Desk-scale evaluation toolkit for multi-turn embodied video rollouts."""

from .features import EmbedderSpec, cosine_similarity, embed_frames, perceptual_distance
from .flow import FlowField, flow_stats, motion_profile
from .manifest import load_manifest, save_manifest
from .metrics import MetricConfig, MetricReport, evaluate_all
from .rollout import (
    Chunk,
    Frame,
    PhaseLabel,
    Trajectory,
    WorldEgoMask,
    phase_boundaries,
    validate_trajectory,
)

__version__ = "0.1.0"

# name -> its module, imported on first use: eval needs none of them
_LAZY = {
    **dict.fromkeys(["Homography", "estimate_homography", "render_camera_flow", "residual_object_flow"], "camera"),
    **dict.fromkeys(["SimConfig", "generate_trajectory", "perturb_rollout"], "microsim"),
}


def __getattr__(name: str) -> object:
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Chunk",
    "EmbedderSpec",
    "FlowField",
    "Frame",
    "Homography",
    "MetricConfig",
    "MetricReport",
    "PhaseLabel",
    "SimConfig",
    "Trajectory",
    "WorldEgoMask",
    "cosine_similarity",
    "embed_frames",
    "estimate_homography",
    "evaluate_all",
    "flow_stats",
    "generate_trajectory",
    "load_manifest",
    "motion_profile",
    "perceptual_distance",
    "perturb_rollout",
    "phase_boundaries",
    "render_camera_flow",
    "residual_object_flow",
    "save_manifest",
    "validate_trajectory",
]
