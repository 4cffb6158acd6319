from __future__ import annotations

import json

import numpy as np
import pytest

from wemeval import features, formats, manifest, metrics, rollout
from wemeval.cli import main
from wemeval.manifest import save_manifest
from wemeval.microsim import generate_trajectory, mixed_fixture_config, perturb_rollout
from wemeval.rollout import Chunk, Frame, Trajectory


def _read_records(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def _recorded_embeddings(gen, gt, monkeypatch):
    """Reference vectors, by content key, for every frame list that scoring (gen, gt) embeds."""
    vectors = {}
    embed = features.embed_frames

    def recording(frames, spec):
        vectors[features.frame_content_key(frames)] = embed(frames, spec)
        return vectors[features.frame_content_key(frames)]

    with monkeypatch.context() as patch:
        patch.setattr(features, "embed_frames", recording)
        patch.setattr(metrics, "embed_frames", recording)
        metrics.evaluate_all(gen, gt)
    return vectors


@pytest.fixture(scope="module")
def fixture_pair_dir(tmp_path_factory):
    """Ten gen/gt manifest pairs; pair 3 has a chunk-count mismatch."""
    root = tmp_path_factory.mktemp("pairs")
    pairs = []
    for i in range(10):
        traj, gt_aux = generate_trajectory(mixed_fixture_config(seed=500 + i, size=32, t=4))
        gen = perturb_rollout(traj, gt_aux, "frame-noise", 0.05, seed=i)
        if i == 3:
            gen = type(gen)(id=gen.id, chunks=gen.chunks[:-1])  # drop one chunk: K mismatch
        gen_path = save_manifest(gen, root / f"gen_{i:02d}" / "manifest.json")
        gt_path = save_manifest(traj, root / f"gt_{i:02d}" / "manifest.json")
        pairs.append({"gen": str(gen_path.relative_to(root)), "gt": str(gt_path.relative_to(root))})
    pairs_file = root / "pairs.json"
    pairs_file.write_text(json.dumps(pairs))
    return root, pairs_file


class TestEval:
    def test_identity_pair_scores_ones(self, tmp_path):
        traj, _ = generate_trajectory(mixed_fixture_config(seed=600, size=32, t=4))
        manifest = save_manifest(traj, tmp_path / "traj" / "manifest.json")
        out = tmp_path / "report.jsonl"
        code = main(["eval", "--gen", str(manifest), "--gt", str(manifest), "--out", str(out)])
        assert code == 0
        records = _read_records(out)
        assert "config" in records[0]
        scores = records[1]["scores"]
        for name in ("rcbd", "lpsa", "cisr", "pmpa", "fphs"):
            assert scores[name] == pytest.approx(1.0, abs=1e-9)
        assert records[-1]["aggregate"]["failed"] == 0

    def test_batch_with_one_mismatch_exits_one(self, fixture_pair_dir, tmp_path):
        _, pairs_file = fixture_pair_dir
        out = tmp_path / "report.jsonl"
        code = main(["eval", "--pairs", str(pairs_file), "--out", str(out)])
        assert code == 1
        records = _read_records(out)
        errors = [r for r in records if "error" in r]
        reports = [r for r in records if "trajectory" in r]
        assert len(errors) == 1 and errors[0]["error"]["pair"] == 3
        assert "chunk counts differ" in errors[0]["error"]["message"]
        assert len(reports) == 9
        assert records[-1]["aggregate"]["pairs"] == 10
        assert records[-1]["aggregate"]["failed"] == 1

    def test_single_invalid_pair_exits_two(self, tmp_path):
        bogus = tmp_path / "missing.json"
        code = main(["eval", "--gen", str(bogus), "--gt", str(bogus), "--out",
                     str(tmp_path / "r.jsonl")])
        assert code == 2

    def test_worker_count_does_not_change_bytes(self, fixture_pair_dir, tmp_path):
        _, pairs_file = fixture_pair_dir
        outputs = []
        for workers in (1, 4):
            out = tmp_path / f"report_w{workers}.jsonl"
            main(["eval", "--pairs", str(pairs_file), "--out", str(out), "--workers", str(workers)])
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_flags_override_config_file(self, tmp_path):
        traj, _ = generate_trajectory(mixed_fixture_config(seed=601, size=32, t=4))
        manifest = save_manifest(traj, tmp_path / "traj" / "manifest.json")
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"tau_cpdm": 0.5, "resample_steps": 8}))
        out = tmp_path / "report.jsonl"
        main(["eval", "--gen", str(manifest), "--gt", str(manifest), "--config", str(cfg_file),
              "--tau-cpdm", "0.25", "--out", str(out)])
        config = _read_records(out)[0]["config"]
        assert config["tau_cpdm"] == 0.25  # flag wins
        assert config["resample_steps"] == 8  # file wins over default

    def test_null_config_value_exits_two(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"tau_cpdm": None}))
        assert main(["eval", "--gen", "a", "--gt", "b", "--config", str(cfg_file)]) == 2
        assert "bad configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, key", [
        ({"tau_cmpd": 0.3}, "'tau_cmpd'"),
        ({"workers": 2}, "'workers'"),
        ({"embedder": {"gird": 2}}, "'embedder.gird'"),
        ({"embedder": 3}, "'embedder'"),
        ({"lpsa_window": 3.7}, "'lpsa_window'"),
        ({"lpsa_window": float("inf")}, "'lpsa_window'"),
        ({"embedder": {"grid": 2.5}}, "'embedder.grid'"),
    ], ids=["tau_cmpd", "workers", "embedder.gird", "embedder-not-object", "fractional-int",
            "infinite-int", "fractional-grid"])
    def test_unknown_config_key_exits_two(self, tmp_path, capsys, doc, key):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(doc))
        assert main(["eval", "--gen", "a", "--gt", "b", "--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("eval: bad configuration:") and key in err[0]

    @pytest.mark.parametrize("doc, key, value", [
        ({"lpsa_window": 3.0}, "lpsa_window", 3),
        ({"lpsa_window": "4"}, "lpsa_window", 4),
    ], ids=["whole-float", "numeric-string"])
    def test_exact_config_value_is_cast(self, tmp_path, doc, key, value):
        traj, _ = generate_trajectory(mixed_fixture_config(seed=603, size=32, t=4))
        path = str(save_manifest(traj, tmp_path / "traj" / "manifest.json"))
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(doc))
        out = tmp_path / "r.jsonl"
        assert main(["eval", "--gen", path, "--gt", path, "--config", str(cfg_file),
                     "--out", str(out)]) == 0
        config = _read_records(out)[0]["config"]
        assert config[key] == value and type(config[key]) is int

    def test_seed_flag_is_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--gen", "a", "--gt", "b", "--seed", "1"])
        assert excinfo.value.code == 2

    def test_each_trajectory_is_validated_once(self, fixture_pair_dir, tmp_path, monkeypatch):
        _, pairs_file = fixture_pair_dir
        calls = []

        def counting(traj):
            calls.append(traj.id)
            return rollout.validate_trajectory(traj)

        for module in (manifest, metrics):  # every module that binds the name
            if hasattr(module, "validate_trajectory"):
                monkeypatch.setattr(module, "validate_trajectory", counting)
        main(["eval", "--pairs", str(pairs_file), "--out", str(tmp_path / "r.jsonl")])
        assert len(calls) == 2 * len(json.loads(pairs_file.read_text()))

    @pytest.mark.parametrize("defect, message", [
        ("frame-above-one", "value outside [0, 1]"),
        ("flow-count", "flow count"),
        ("empty-frame", "gen trajectory invalid: chunk 0 frame 0: empty frame"),
    ])
    def test_invalid_content_becomes_error_record(self, tmp_path, defect, message):
        traj, _ = generate_trajectory(mixed_fixture_config(seed=602, size=32, t=4))
        first = traj.chunks[0]
        if defect == "frame-above-one":
            frames = (Frame(data=first.frames[0].data + 1.0),) + first.frames[1:]
            first = Chunk(frames=frames, instruction=first.instruction, phase=first.phase,
                          flows=first.flows, masks=first.masks)
        elif defect == "empty-frame":
            frames = (Frame(data=np.zeros((0, 4, 1), dtype=np.float32)),) * len(first.frames)
            first = Chunk(frames=frames, instruction=first.instruction, phase=first.phase,
                          flows=first.flows, masks=first.masks)
        else:
            first = Chunk(frames=first.frames, instruction=first.instruction, phase=first.phase,
                          flows=first.flows[:-1], masks=first.masks)
        bad = Trajectory(id=traj.id, chunks=(first,) + traj.chunks[1:])
        gen = save_manifest(bad, tmp_path / "gen" / "manifest.json")
        gt = save_manifest(traj, tmp_path / "gt" / "manifest.json")
        out = tmp_path / "r.jsonl"
        assert main(["eval", "--gen", str(gen), "--gt", str(gt), "--out", str(out)]) == 2
        errors = [r["error"] for r in _read_records(out) if "error" in r]
        assert len(errors) == 1 and message in errors[0]["message"]

    def test_non_binary_mask_becomes_error_record(self, tmp_path):
        traj, _ = generate_trajectory(mixed_fixture_config(seed=604, size=32, t=4))
        gen = save_manifest(traj, tmp_path / "gen" / "manifest.json")
        gt = save_manifest(traj, tmp_path / "gt" / "manifest.json")
        masks = next((tmp_path / "gen").glob("*_masks.bin"))
        data = bytearray(masks.read_bytes())
        data[16] = 2  # first payload value
        masks.write_bytes(bytes(data))
        out = tmp_path / "r.jsonl"
        assert main(["eval", "--gen", str(gen), "--gt", str(gt), "--out", str(out)]) == 2
        errors = [r["error"] for r in _read_records(out) if "error" in r]
        assert len(errors) == 1 and "non-binary mask" in errors[0]["message"]

    @pytest.mark.parametrize("doc", [[{"gen": "a"}], {"gen": 1}], ids=["missing-gt", "not-a-list"])
    def test_malformed_pairs_file_exits_two(self, tmp_path, capsys, doc):
        pairs_file = tmp_path / "pairs.json"
        pairs_file.write_text(json.dumps(doc))
        assert main(["eval", "--pairs", str(pairs_file)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "bad pairs file" in err[0]
        if isinstance(doc, list):
            assert "entry 0" in err[0]

    def test_missing_store_key_fails_only_that_pair(self, tmp_path, monkeypatch):
        paths, trajs = [], []
        for i in range(2):
            traj, _ = generate_trajectory(mixed_fixture_config(seed=610 + i, size=32, t=4))
            trajs.append(traj)
            paths.append(str(save_manifest(traj, tmp_path / f"t{i}" / "manifest.json")))
        vectors = _recorded_embeddings(trajs[0], trajs[0], monkeypatch)  # pair 0's keys only
        features.EmbeddingStore.write(tmp_path / "store.json", vectors)
        pairs_file = tmp_path / "pairs.json"
        pairs_file.write_text(json.dumps([{"gen": p, "gt": p} for p in paths]))
        out = tmp_path / "r.jsonl"
        code = main(["eval", "--pairs", str(pairs_file), "--out", str(out), "--embedder",
                     "external-file", "--embedder-source", str(tmp_path / "store.json")])
        assert code == 1
        records = _read_records(out)
        assert "trajectory" in records[1]
        assert records[2]["error"]["pair"] == 1 and "not found" in records[2]["error"]["message"]

    def test_recorded_store_serves_every_lookup(self, tmp_path, monkeypatch):
        gt, truth = generate_trajectory(mixed_fixture_config(seed=630, size=32, t=6))
        gen = perturb_rollout(gt, truth, "frame-noise", 0.05, seed=1)
        reference = metrics.evaluate_all(gen, gt)
        features.EmbeddingStore.write(tmp_path / "store.json",
                                      _recorded_embeddings(gen, gt, monkeypatch))
        paths = [str(save_manifest(t, tmp_path / t.id / "manifest.json")) for t in (gen, gt)]
        out = tmp_path / "r.jsonl"
        assert main(["eval", "--gen", paths[0], "--gt", paths[1], "--out", str(out), "--embedder",
                     "external-file", "--embedder-source", str(tmp_path / "store.json")]) == 0
        scores = _read_records(out)[1]["scores"]
        for name, value in reference.scores.items():
            assert scores[name] == pytest.approx(value, abs=1e-5)

    def test_missing_store_blob_fails_only_its_pair(self, tmp_path, monkeypatch):
        paths, index = [], {}
        for i in range(2):
            traj, _ = generate_trajectory(mixed_fixture_config(seed=620 + i, size=32, t=4))
            paths.append(str(save_manifest(traj, tmp_path / f"t{i}" / "manifest.json")))
            part = tmp_path / f"part{i}.json"  # blob part{i}.blob holds pair i's vectors
            features.EmbeddingStore.write(part, _recorded_embeddings(traj, traj, monkeypatch))
            index.update(json.loads(part.read_text()))
        (tmp_path / "store.json").write_text(json.dumps(index))
        (tmp_path / "part1.blob").unlink()
        pairs_file = tmp_path / "pairs.json"
        pairs_file.write_text(json.dumps([{"gen": p, "gt": p} for p in paths]))
        out = tmp_path / "r.jsonl"
        code = main(["eval", "--pairs", str(pairs_file), "--out", str(out), "--embedder",
                     "external-file", "--embedder-source", str(tmp_path / "store.json")])
        assert code == 1
        records = _read_records(out)
        assert "trajectory" in records[1]
        assert records[2]["error"]["pair"] == 1
        assert str(tmp_path / "part1.blob") in records[2]["error"]["message"]


class TestDecomposeFlow:
    def test_fixture_flow_decomposes_to_tiny_residual(self, tmp_path):
        from wemeval.microsim import matches_from_homography

        traj, gt = generate_trajectory(mixed_fixture_config(seed=700, size=32, t=4))
        flow_path = tmp_path / "flow.bin"
        formats.write_flow_file(flow_path, list(traj.chunks[0].flows))
        hom = gt.homographies[0][0]
        matches = matches_from_homography(hom, 32, 32, 24, seed=1)
        matches_path = tmp_path / "matches.json"
        matches_path.write_text(json.dumps(matches.tolist()))
        out_dir = tmp_path / "decomposed"
        code = main(["decompose-flow", "--flow", str(flow_path), "--matches", str(matches_path),
                     "--out-dir", str(out_dir)])
        assert code == 0
        residual = formats.read_flow_file(out_dir / "residual_flow.bin")
        for field in residual:
            assert float(np.hypot(field.u, field.v).max()) <= 1e-4
        homs = json.loads((out_dir / "homographies.json").read_text())
        assert np.allclose(homs[0], hom.h, atol=1e-6)

    def test_identity_flow_leaves_residual_equal_to_input(self, tmp_path):
        from wemeval.flow import Homography
        from wemeval.microsim import matches_from_homography
        from wemeval.rollout import FlowField

        rng = np.random.default_rng(0)
        field = FlowField(u=rng.normal(0, 0.01, (16, 16)), v=rng.normal(0, 0.01, (16, 16)))
        flow_path = tmp_path / "flow.bin"
        formats.write_flow_file(flow_path, [field])
        matches = matches_from_homography(Homography.identity(), 16, 16, 12, seed=2)
        matches_path = tmp_path / "matches.json"
        matches_path.write_text(json.dumps(matches.tolist()))
        out_dir = tmp_path / "out"
        assert main(["decompose-flow", "--flow", str(flow_path), "--matches", str(matches_path),
                     "--out-dir", str(out_dir)]) == 0
        camera = formats.read_flow_file(out_dir / "camera_flow.bin")[0]
        residual = formats.read_flow_file(out_dir / "residual_flow.bin")[0]
        assert float(np.abs(camera.u).max()) <= 1e-6
        assert np.allclose(residual.u, field.u, atol=1e-6)

    def test_too_few_matches_exits_two(self, tmp_path, capsys):
        from wemeval.rollout import FlowField

        flow_path = tmp_path / "flow.bin"
        formats.write_flow_file(flow_path, [FlowField(u=np.zeros((8, 8)), v=np.zeros((8, 8)))])
        matches_path = tmp_path / "matches.json"
        matches_path.write_text(json.dumps([[0, 0, 1, 1], [2, 2, 3, 3], [4, 4, 5, 5]]))
        code = main(["decompose-flow", "--flow", str(flow_path), "--matches", str(matches_path),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "at least 4" in capsys.readouterr().err


class TestVerifyMechanisms:
    def test_default_run_passes(self, tmp_path):
        out = tmp_path / "verify.jsonl"
        code = main(["verify-mechanisms", "--trials", "50", "--out", str(out)])
        assert code == 0
        records = _read_records(out)
        assert len(records) == 7
        assert all(r["passed"] for r in records)

    def test_injected_fault_exits_one_with_counterexample(self, tmp_path):
        out = tmp_path / "verify.jsonl"
        code = main(["verify-mechanisms", "--trials", "50", "--out", str(out),
                     "--inject-fault", "unroute-flip"])
        assert code == 1
        broken = [r for r in _read_records(out) if not r["passed"]]
        assert broken and broken[0]["invariant"] == "unroute_reconstruction"
        assert broken[0]["failures"][0]["base_mask"]

    def test_zero_trials_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify-mechanisms", "--trials", "0"])
        assert excinfo.value.code == 2


class TestGenFixtures:
    def test_default_catalog_emits_at_least_twenty(self, tmp_path):
        out_dir = tmp_path / "fixtures"
        code = main(["gen-fixtures", "--out-dir", str(out_dir), "--size", "32", "--frames", "4"])
        assert code == 0
        catalog = json.loads((out_dir / "catalog.json").read_text())
        assert len(catalog["fixtures"]) >= 20
        phases = {tuple(f["phases"]) for f in catalog["fixtures"]}
        assert any(set(p) == {"Nav"} for p in phases)
        assert any(set(p) == {"Manip"} for p in phases)
        assert any(set(p) == {"Nav", "Manip"} for p in phases)
        from wemeval.manifest import load_manifest

        first = catalog["fixtures"][0]
        load_manifest(out_dir / first["manifest"])

    def test_rerun_is_bit_identical(self, tmp_path):
        out_dir = tmp_path / "fixtures"
        main(["gen-fixtures", "--out-dir", str(out_dir), "--size", "32", "--frames", "4"])
        snapshot = {p: p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()}
        main(["gen-fixtures", "--out-dir", str(out_dir), "--size", "32", "--frames", "4"])
        for path, data in snapshot.items():
            assert path.read_bytes() == data, path

    def test_catalog_with_bad_fixture_continues_and_exits_one(self, tmp_path, capsys):
        catalog = {
            "fixtures": [
                {
                    "name": "ok", "seed": 1, "width": 32, "height": 32,
                    "objects": [{"shape": "disk", "size": 3, "intensity": 0.9,
                                 "position": [14, 12]}],
                    "chunks": [{"phase": "Manip", "steps": 4, "object_motion": [0, 1]}],
                },
                {
                    "name": "escapes", "seed": 2, "width": 32, "height": 32,
                    "objects": [{"shape": "disk", "size": 3, "intensity": 0.9,
                                 "position": [28, 12]}],
                    "chunks": [{"phase": "Manip", "steps": 9, "object_motion": [3, 0]}],
                },
            ]
        }
        catalog_path = tmp_path / "catalog.json"
        catalog_path.write_text(json.dumps(catalog))
        out_dir = tmp_path / "fixtures"
        code = main(["gen-fixtures", "--out-dir", str(out_dir), "--catalog", str(catalog_path)])
        assert code == 1
        assert "leaves frame bounds" in capsys.readouterr().err
        written = json.loads((out_dir / "catalog.json").read_text())
        assert [f["name"] for f in written["fixtures"]] == ["ok"]

    @pytest.mark.parametrize("doc", [
        {"fixtures": [1]},
        {"fixtures": [{"chunks": [1]}]},
        [1],
        {"fixtures": 5},
    ], ids=["fixture-not-object", "chunk-not-object", "top-level-list", "fixtures-not-list"])
    def test_malformed_catalog_exits_two(self, tmp_path, capsys, doc):
        catalog_path = tmp_path / "catalog.json"
        catalog_path.write_text(json.dumps(doc))
        code = main(["gen-fixtures", "--out-dir", str(tmp_path / "fixtures"), "--catalog",
                     str(catalog_path)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("gen-fixtures: bad catalog: ")


class TestReport:
    def test_merge_recomputes_aggregate(self, fixture_pair_dir, tmp_path):
        root, pairs_file = fixture_pair_dir
        part1 = tmp_path / "part1.jsonl"
        part2 = tmp_path / "part2.jsonl"
        pairs = json.loads(pairs_file.read_text())
        half1 = tmp_path / "half1.json"
        half2 = tmp_path / "half2.json"
        half1.write_text(json.dumps([{**p, "gen": str(root / p["gen"]), "gt": str(root / p["gt"])}
                                     for p in pairs[:5]]))
        half2.write_text(json.dumps([{**p, "gen": str(root / p["gen"]), "gt": str(root / p["gt"])}
                                     for p in pairs[5:]]))
        main(["eval", "--pairs", str(half1), "--out", str(part1)])
        main(["eval", "--pairs", str(half2), "--out", str(part2)])
        merged = tmp_path / "merged.jsonl"
        assert main(["report", str(part1), str(part2), "--out", str(merged)]) == 0
        records = _read_records(merged)
        assert records[-1]["aggregate"]["pairs"] == 10
        assert records[-1]["aggregate"]["failed"] == 1
        assert sum(1 for r in records if "trajectory" in r) == 9

    @pytest.mark.parametrize("line", ["[1, 2]", "{not json", '{"trajectory": "t", "scores": {"rcbd": "a"}}'],
                             ids=["array", "bad-json", "string-score"])
    def test_malformed_line_exits_two(self, tmp_path, capsys, line):
        report = tmp_path / "r.jsonl"
        report.write_text('{"config": {}}\n' + line + "\n")
        assert main(["report", str(report)]) == 2
        err = capsys.readouterr().err
        assert f"{report}:2" in err and "Traceback" not in err

    def test_missing_input_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "absent.jsonl"
        assert main(["report", str(missing)]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_config_mismatch_exits_two(self, fixture_pair_dir, tmp_path, capsys):
        root, pairs_file = fixture_pair_dir
        pairs = json.loads(pairs_file.read_text())
        absolute = tmp_path / "pairs.json"
        absolute.write_text(json.dumps([{"gen": str(root / p["gen"]), "gt": str(root / p["gt"])}
                                        for p in pairs[:2]]))
        default, tuned = tmp_path / "default.jsonl", tmp_path / "tuned.jsonl"
        main(["eval", "--pairs", str(absolute), "--out", str(default)])
        main(["eval", "--pairs", str(absolute), "--out", str(tuned), "--tau-cpdm", "0.3"])
        assert main(["report", str(default), str(tuned), "--out", str(tmp_path / "m.jsonl")]) == 2
        err = capsys.readouterr().err
        assert str(tuned) in err and "config differs" in err
