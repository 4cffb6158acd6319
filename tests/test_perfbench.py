"""perfbench's traced pass sees every layer that ``wemeval eval`` calls, and its
set-up runs against the package as it is.

The traced pass swaps the package's functions for wrappers that record spans,
and a layer function that it cannot reach leaves its per-layer metrics at 0
without failing anything. This test runs the pass from ``perfbench/`` as it is
and checks that each layer ``eval`` calls recorded a span.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

from wemeval.manifest import save_manifest
from wemeval.metrics import MetricConfig
from wemeval.microsim import generate_trajectory, mixed_fixture_config, perturb_rollout

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# Only the external-file embedder calls these; perfbench's store probe times them.
STORE_ONLY = {"features.content_key", "features.store_open"}


def _imported(monkeypatch, name: str):
    """perfbench's module ``name``, imported from ``perfbench/`` as its scripts import it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    yield importlib.import_module(name)
    for module in {"layers", "tracing", "workloads"} - before:  # perfbench's top-level modules
        sys.modules.pop(module, None)


@pytest.fixture
def layers(monkeypatch):
    yield from _imported(monkeypatch, "layers")


@pytest.fixture
def workloads(monkeypatch):
    yield from _imported(monkeypatch, "workloads")


def test_traced_pass_spans_every_layer_eval_reaches(layers, tmp_path):
    pairs = []
    for i in range(2):
        gt, aux = generate_trajectory(mixed_fixture_config(seed=700 + i, size=32, t=4))
        gen = perturb_rollout(gt, aux, "frame-noise", 0.05, seed=i)
        pairs.append({role: str(save_manifest(traj, tmp_path / f"p{i}" / f"{role}.json").relative_to(tmp_path))
                      for role, traj in (("gen", gen), ("gt", gt))})
    pairs_file = tmp_path / "pairs.json"
    pairs_file.write_text(json.dumps(pairs))
    spans, records, _ = layers.traced_pass(pairs_file, MetricConfig())
    assert [r.get("error") for r in records] == [None, None]
    expected = {span for _, _, span, _ in layers.TARGETS} - STORE_ONLY
    assert expected - {s.name for s in spans} == set()


def test_set_up_builds_every_workload(workloads, tmp_path):
    """Set-up, at smoke scale, reaches every name of the package it uses."""
    for name, workload in workloads.WORKLOADS.items():
        pairs = workloads.build(workloads.smoke_scale(workload), 1, tmp_path / name)
        assert len(json.loads(pairs.pairs_file.read_text())) == len(pairs.gen_ids) > 0
        assert (pairs.store_index is not None) == workload.external_store
