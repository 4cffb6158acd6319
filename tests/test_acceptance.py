"""Acceptance suite: one test per shipped criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

from __future__ import annotations

import json
import time

import numpy as np

import oracle
from conftest import matches_from_homography, random_metric_pair
from wemeval.camera import estimate_homography, render_camera_flow, reprojection_errors, residual_object_flow
from wemeval.cli import main
from wemeval.manifest import save_manifest
from wemeval.mechanisms import _dilate_chebyshev
from wemeval.metrics import MetricConfig, evaluate_all
from wemeval.microsim import (
    default_catalog,
    generate_trajectory,
    mixed_fixture_config,
    perturb_rollout,
)
from wemeval.rollout import PhaseLabel


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


# --- 1. Identity suite -------------------------------------------------------

def test_criterion_1_identity_suite():
    cfg = MetricConfig()
    started = time.perf_counter()
    worst_dev = 0.0
    worst_cpdm = 1.0
    n_fixtures = 20
    for seed in range(n_fixtures):
        traj, _ = generate_trajectory(mixed_fixture_config(seed=seed, size=64, t=6))
        assert len(traj.chunks) == 4
        report = evaluate_all(traj, traj, cfg)
        for name in ("rcbd", "lpsa", "cisr", "pmpa", "fphs"):
            worst_dev = max(worst_dev, abs(report.scores[name] - 1.0))
        worst_cpdm = min(worst_cpdm, report.scores["cpdm"])
    elapsed = time.perf_counter() - started
    ok = worst_dev <= 1e-9 and worst_cpdm > 0.5 and elapsed < 30.0
    _report(
        "criterion-1 identity",
        ok,
        f"{n_fixtures} fixtures, max |score-1| = {worst_dev:.2e}, "
        f"min cpdm = {worst_cpdm:.4f}, runtime {elapsed:.1f}s (< 30s)",
    )


# --- 2. Oracle equivalence ---------------------------------------------------

def test_criterion_2_oracle_equivalence():
    cfg = MetricConfig()
    rng = np.random.default_rng(90210)
    worst = 0.0
    checked = 0
    for _ in range(100):
        gen, gt = random_metric_pair(rng, size=32)
        assert len(gt.chunks) <= 4 and max(len(c.frames) for c in gt.chunks) <= 6
        report = evaluate_all(gen, gt, cfg)
        reference = oracle.all_metrics(gen, gt, cfg)
        for name, expected in reference.items():
            got = report.scores[name]
            if expected is None:
                assert got is None, name
                continue
            worst = max(worst, abs(got - expected))
            checked += 1
    ok = worst <= 1e-9
    _report("criterion-2 oracle", ok,
            f"100 random fixtures, {checked} scores compared, max |diff| = {worst:.2e}")


# --- 3. Published constants --------------------------------------------------

def test_criterion_3_shipped_constants(tmp_path):
    cfg = MetricConfig()
    defaults_ok = (
        cfg.lpsa_window == 4
        and cfg.fphs_window == 4
        and cfg.tau_cpdm == 0.05
        and cfg.resample_steps == 16
        and cfg.top_fraction == 0.2
    )
    traj, _ = generate_trajectory(mixed_fixture_config(seed=77, size=32, t=4))
    manifest = save_manifest(traj, tmp_path / "t" / "manifest.json")
    out = tmp_path / "report.jsonl"
    main(["eval", "--gen", str(manifest), "--gt", str(manifest), "--out", str(out)])
    echoed = json.loads(out.read_text().splitlines()[0])["config"]
    echo_ok = (
        echoed["lpsa_window"] == 4
        and echoed["fphs_window"] == 4
        and echoed["tau_cpdm"] == 0.05
        and echoed["resample_steps"] == 16
        and echoed["top_fraction"] == 0.2
    )
    _report("criterion-3 constants", defaults_ok and echo_ok,
            "windows 4/4, tau 0.05, resample 16, top fraction 0.2 shipped and echoed")


# --- 4. Flow decomposition ---------------------------------------------------

def test_criterion_4_flow_decomposition():
    worst_reproj = 0.0
    worst_residual = 0.0
    worst_outlier_reproj = 0.0
    nav_entries = [(n, c) for n, c in default_catalog(size=64, t=6) if n.startswith("nav-")]
    for i, (name, cfg) in enumerate(nav_entries):
        traj, gt = generate_trajectory(cfg)
        hom = gt.homographies[0][0]
        clean = matches_from_homography(hom, 64, 64, 40, seed=i)
        recovered, _ = estimate_homography(clean, threshold=1.0, iterations=500, seed=i)
        worst_reproj = max(worst_reproj, float(reprojection_errors(recovered, clean).max()))
        camera = render_camera_flow(recovered, 64, 64)
        residual = residual_object_flow(traj.chunks[0].flows[0], camera)
        worst_residual = max(worst_residual, float(np.hypot(residual.u, residual.v).max()))

        dirty = matches_from_homography(hom, 64, 64, 60, seed=100 + i, outlier_fraction=0.3)
        rec2, inliers = estimate_homography(dirty, threshold=1.0, iterations=500, seed=i)
        worst_outlier_reproj = max(
            worst_outlier_reproj, float(reprojection_errors(rec2, dirty)[inliers].max())
        )
    ok = worst_reproj <= 1e-4 and worst_residual <= 1e-4 and worst_outlier_reproj <= 1.0
    _report(
        "criterion-4 flow-decomposition",
        ok,
        f"{len(nav_entries)} nav fixtures: reproj {worst_reproj:.2e} (<=1e-4), "
        f"residual {worst_residual:.2e} (<=1e-4), outlier-inlier reproj "
        f"{worst_outlier_reproj:.2e} (<=1)",
    )


# --- 5. Motion-proxy isolation -----------------------------------------------

def test_criterion_5_motion_proxy_isolation():
    worst_fraction = 1.0
    pairs_checked = 0
    entries = [(n, c) for n, c in default_catalog(size=64, t=6)
               if any(s.phase is PhaseLabel.MANIP for s in c.chunks)]
    for name, cfg in entries:
        traj, gt = generate_trajectory(cfg)
        for ci, chunk in enumerate(traj.chunks):
            if gt.phases[ci] is not PhaseLabel.MANIP:
                continue
            for pair_idx, obj_flow in enumerate(gt.object_flows[ci]):
                moving = np.hypot(obj_flow.u.astype(np.float64), obj_flow.v.astype(np.float64)) > 0.5
                if not moving.any():
                    continue
                ego = gt.masks[ci][pair_idx].data.astype(bool)
                dilated = _dilate_chebyshev(ego, 1)
                fraction = float((moving & dilated).sum() / moving.sum())
                worst_fraction = min(worst_fraction, fraction)
                pairs_checked += 1
    ok = pairs_checked > 0 and worst_fraction >= 0.99
    _report("criterion-5 motion-proxy", ok,
            f"{pairs_checked} manip frame pairs, min in-mask fraction = {worst_fraction:.4f} (>= 0.99)")


# --- 6. Mechanism invariants ---------------------------------------------------

def test_criterion_6_mechanism_invariants(tmp_path):
    out = tmp_path / "verify.jsonl"
    code = main(["verify-mechanisms", "--seed", "0", "--trials", "1000", "--out", str(out)])
    records = [json.loads(line) for line in out.read_text().splitlines()]
    names = sorted(r["invariant"] for r in records)
    ok = code == 0 and all(r["passed"] for r in records) and len(records) == 7
    _report("criterion-6 mechanisms", ok, f"1000 trials x {len(records)} invariants: {names}")


# --- 7. Corruption monotonicity ------------------------------------------------

def test_criterion_7_corruption_monotonicity():
    cfg = MetricConfig()
    sigmas = (0.0, 0.05, 0.1, 0.2)
    n_seeds = 20
    lpsa_levels = {s: [] for s in sigmas}
    fphs_levels = {s: [] for s in sigmas}
    cisr_reduced = 0
    rcbd_moved = 0
    for seed in range(n_seeds):
        traj, gt = generate_trajectory(mixed_fixture_config(seed=3000 + seed, size=32, t=4))
        for sigma in sigmas:
            gen = perturb_rollout(traj, gt, "frame-noise", sigma, seed=seed)
            report = evaluate_all(gen, traj, cfg)
            lpsa_levels[sigma].append(report.scores["lpsa"])
            fphs_levels[sigma].append(report.scores["fphs"])
        shuffled = perturb_rollout(traj, gt, "chunk-shuffle", 1.0, seed=seed)
        if evaluate_all(shuffled, traj, cfg).scores["cisr"] < 1.0:
            cisr_reduced += 1
        smoothed = perturb_rollout(traj, gt, "boundary-smooth", 1.0, seed=seed)
        if abs(evaluate_all(smoothed, traj, cfg).scores["rcbd"] - 1.0) > 1e-9:
            rcbd_moved += 1

    lpsa_medians = [float(np.median(lpsa_levels[s])) for s in sigmas]
    fphs_medians = [float(np.median(fphs_levels[s])) for s in sigmas]
    strictly_decreasing = all(b < a for a, b in zip(lpsa_medians, lpsa_medians[1:])) and all(
        b < a for a, b in zip(fphs_medians, fphs_medians[1:])
    )
    ok = strictly_decreasing and cisr_reduced >= 0.95 * n_seeds and rcbd_moved >= 0.95 * n_seeds
    _report(
        "criterion-7 monotonicity",
        ok,
        f"lpsa medians {['%.4f' % v for v in lpsa_medians]}, "
        f"fphs medians {['%.4f' % v for v in fphs_medians]}, "
        f"cisr reduced {cisr_reduced}/{n_seeds}, rcbd moved {rcbd_moved}/{n_seeds}",
    )


# --- 8. Determinism and parallel safety ----------------------------------------

def test_criterion_8_parallel_determinism(tmp_path):
    root = tmp_path / "pairs"
    pairs = []
    for i in range(100):
        traj, gt = generate_trajectory(mixed_fixture_config(seed=7000 + i, size=32, t=4))
        gen = perturb_rollout(traj, gt, "frame-noise", 0.05, seed=i)
        gen_path = save_manifest(gen, root / f"gen_{i:03d}" / "manifest.json")
        gt_path = save_manifest(traj, root / f"gt_{i:03d}" / "manifest.json")
        pairs.append({"gen": str(gen_path.relative_to(root)), "gt": str(gt_path.relative_to(root))})
    pairs_file = root / "pairs.json"
    pairs_file.write_text(json.dumps(pairs))

    contents = {}
    for workers in (1, 4, 8):
        out = tmp_path / f"report_w{workers}.jsonl"
        code = main(["eval", "--pairs", str(pairs_file), "--out", str(out),
                     "--workers", str(workers)])
        assert code == 0
        contents[workers] = out.read_bytes()
    ok = contents[1] == contents[4] == contents[8]
    _report("criterion-8 determinism", ok,
            f"100 pairs, reports byte-identical at workers 1/4/8 ({len(contents[1])} bytes)")
