"""The committed perf history, ``BENCH_eval.json``, keeps one shape.

Each row holds one commit's runs of one ``BENCHMARK.json`` workload: the
median and quartiles of every end-to-end metric. Only the rows of the newest
change may lack a commit hash, since that commit does not exist when its rows
are written; the next change fills it in.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HISTORY = json.loads((ROOT / "BENCH_eval.json").read_text(encoding="utf-8"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ROWS = HISTORY["rows"]
ROW_KEYS = {"commit", "change", "workload", "seeds", "runs", "end_to_end"}
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}


def test_history_has_rows():
    assert set(HISTORY) == {"about", "rows"}
    assert ROWS


@pytest.mark.parametrize("index", range(len(ROWS)))
def test_row_shape(index):
    row = ROWS[index]
    assert set(row) == ROW_KEYS
    assert row["commit"] is None or re.fullmatch(r"[0-9a-f]{7,40}", row["commit"])
    assert row["change"].strip()
    assert row["workload"] in {w["name"] for w in BENCHMARK["workloads"]}
    assert all(isinstance(s, int) for s in row["seeds"])
    assert len(set(row["seeds"])) == len(row["seeds"]) == row["runs"] >= 1
    assert set(row["end_to_end"]) == set(UNITS)
    for name, metric in row["end_to_end"].items():
        assert set(metric) == {"unit", "median", "q1", "q3"}
        assert metric["unit"] == UNITS[name]
        assert metric["q1"] <= metric["median"] <= metric["q3"]


def test_only_the_newest_change_lacks_a_commit():
    first_null = next((i for i, row in enumerate(ROWS) if row["commit"] is None), len(ROWS))
    newest = ROWS[first_null:]
    assert all(row["commit"] is None for row in newest)
    assert len({row["change"] for row in newest}) <= 1
    assert len({row["workload"] for row in newest}) == len(newest)
