from __future__ import annotations

import math

import numpy as np
import pytest

from wemeval import mechanisms, verify
from wemeval.camera import Homography
from wemeval.mechanisms import StateVector
from wemeval.metrics import MetricConfig
from wemeval.microsim import (
    CameraMotion,
    ChunkSpec,
    ObjectSpec,
    SimConfig,
    SimConfigError,
    generate_trajectory,
    mixed_fixture_config,
    perturb_rollout,
)
from wemeval.rollout import PhaseLabel


def small_random_config(rng: np.random.Generator, size: int = 32) -> SimConfig:
    """Random small fixture config: K <= 4 chunks, T <= 6 frames, mixed motions."""
    k = int(rng.integers(1, 5))
    chunks = []
    for _ in range(k):
        t = int(rng.integers(2, 7))
        if rng.random() < 0.5:
            motion = CameraMotion(
                kind=str(rng.choice(["translate", "rotate", "zoom"])),
                dx=float(rng.uniform(-1.0, 1.0)),
                dy=float(rng.uniform(-1.0, 1.0)),
                degrees=float(rng.uniform(-2.0, 2.0)),
                factor=float(rng.uniform(0.99, 1.01)),
            )
            chunks.append(ChunkSpec(PhaseLabel.NAV, t, camera=motion))
        else:
            motion = (float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0)))
            chunks.append(ChunkSpec(PhaseLabel.MANIP, t, object_motion=motion))
    return SimConfig(
        seed=int(rng.integers(0, 2**31)),
        width=size,
        height=size,
        chunks=tuple(chunks),
        objects=(
            ObjectSpec("disk", size / 10.0, 0.85, (size * 0.45, size * 0.4)),
            ObjectSpec("square", size / 14.0, 0.1, (size * 0.72, size * 0.3)),
        ),
        ego_object=0,
    )


def random_fixture(rng: np.random.Generator, size: int = 32):
    """Generate from a random config, resampling when motions leave the frame."""
    while True:
        try:
            return generate_trajectory(small_random_config(rng, size=size))
        except SimConfigError:
            continue


def random_metric_pair(rng: np.random.Generator, size: int = 32):
    """A (gen, gt) pair suitable for every metric precondition except phase mix."""
    gt, ground = random_fixture(rng, size=size)
    choice = rng.random()
    if choice < 0.3:
        gen = perturb_rollout(gt, ground, "frame-noise", float(rng.uniform(0.02, 0.2)),
                              seed=int(rng.integers(0, 2**31)))
    elif choice < 0.5 and len(gt.chunks) >= 2:
        gen = perturb_rollout(gt, ground, "chunk-shuffle", 1.0, seed=int(rng.integers(0, 2**31)))
    elif choice < 0.7 and len(gt.chunks) >= 2:
        gen = perturb_rollout(gt, ground, "boundary-smooth", float(rng.uniform(0.3, 1.0)),
                              seed=int(rng.integers(0, 2**31)))
    else:
        gen = gt
    return gen, gt


def matches_from_homography(
    h: Homography,
    width: int,
    height: int,
    count: int,
    seed: int,
    outlier_fraction: float = 0.0,
) -> np.ndarray:
    """Synthesize (n, 2, 2) point correspondences from a known homography.

    Outliers get a gross offset of 5 to 20 pixels in a random direction, so
    they land well outside a 1 px RANSAC threshold.
    """
    rng = np.random.default_rng(seed)
    src = np.stack(
        [rng.uniform(0, width - 1, count), rng.uniform(0, height - 1, count)], axis=1
    )
    dst = h.apply(src)
    n_out = int(round(outlier_fraction * count))
    if n_out:
        idx = rng.choice(count, size=n_out, replace=False)
        angles = rng.uniform(0, 2 * math.pi, n_out)
        radii = rng.uniform(5.0, 20.0, n_out)
        dst[idx, 0] += radii * np.cos(angles)
        dst[idx, 1] += radii * np.sin(angles)
    return np.stack([src, dst], axis=1)


@pytest.fixture(scope="session")
def default_config() -> MetricConfig:
    return MetricConfig()


@pytest.fixture(scope="session")
def mixed_identity_pair():
    traj, gt = generate_trajectory(mixed_fixture_config(seed=42))
    return traj, gt


@pytest.fixture
def flipped_unroute(monkeypatch):
    """Breaks ``unroute`` inside the verifier: wherever the expansion makes it
    possible, a token reads from the opposite expert's output."""
    unroute = verify.unroute

    def flipped(plan, world_out, ego_out):
        values = unroute(plan, world_out, ego_out).values.copy()
        for token in plan.base_ego():
            pos = np.searchsorted(plan.world_expanded, token)
            if pos < plan.world_expanded.size and plan.world_expanded[pos] == token:
                values[token] = world_out.values[pos]
        for token in plan.base_world():
            pos = np.searchsorted(plan.ego_expanded, token)
            if pos < plan.ego_expanded.size and plan.ego_expanded[pos] == token:
                values[token] = ego_out.values[pos]
        return StateVector(values)

    monkeypatch.setattr(verify, "unroute", flipped)


@pytest.fixture
def lost_base_token(monkeypatch):
    """Breaks the routing expansion: each dilated set loses the first token of
    the set it was dilated from."""
    dilate = mechanisms._dilate_chebyshev

    def dropping(mask, radius):
        out = dilate(mask, radius)
        base = np.flatnonzero(mask)
        if base.size:
            out.reshape(-1)[base[0]] = False
        return out

    monkeypatch.setattr(mechanisms, "_dilate_chebyshev", dropping)
