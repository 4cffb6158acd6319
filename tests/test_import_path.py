"""``eval`` loads only its own code.

A child process that finds no bytecode compiles every module it imports, so
the camera model (``camera``) and the bodies of the commands other than
``eval`` (``commands``) stay off eval's import path, and ``import wemeval``
serves the camera model's public names on first use. Those commands run as
``python -m wemeval.cli``, where ``cli`` is ``__main__``, must still report a
bad input in one line and exit 2: a second copy of ``cli`` would raise an
error class that ``main`` does not catch.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wemeval

PACKAGE = Path(wemeval.__file__).parent
ENV = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
OFF_EVAL_PATH = {"wemeval.camera", "wemeval.commands", "wemeval.microsim", "wemeval.mechanisms", "wemeval.verify"}


def _defined(module: str) -> set[str]:
    """The names that the top level of ``wemeval.<module>`` defines or assigns."""
    names = set()
    for node in ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
    return names


MOVED = _defined("camera") | _defined("commands")


def _child(script: str, *args: str) -> object:
    """The JSON that ``script`` prints last, run in a new interpreter."""
    out = subprocess.run([sys.executable, "-c", script, *args], env=ENV, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_eval_loads_neither_the_camera_model_nor_the_other_commands(tmp_path):
    (tmp_path / "pairs.json").write_text("[]")
    script = """if True:
        import json, sys
        from wemeval.cli import main
        code = main(["eval", "--pairs", sys.argv[1], "--out", sys.argv[2]])
        moved = set(json.loads(sys.argv[3]))
        loaded = {name: sorted(moved & set(vars(module))) for name, module in sys.modules.items()
                  if name.split(".")[0] == "wemeval"}
        print(json.dumps([code, loaded]))
    """
    code, loaded = _child(script, str(tmp_path / "pairs.json"), str(tmp_path / "r.jsonl"), json.dumps(sorted(MOVED)))
    assert code == 0
    assert "wemeval.cli" in loaded
    assert not OFF_EVAL_PATH & set(loaded)
    assert {name: names for name, names in loaded.items() if names} == {}


def test_import_wemeval_serves_the_moved_names_on_first_use():
    script = """if True:
        import json, sys
        import wemeval
        loaded = [name for name in sys.modules if name.split(".")[0] == "wemeval"]
        moved = sorted(set(wemeval.__all__) & set(json.loads(sys.argv[1])))
        from wemeval import camera
        print(json.dumps([loaded, moved, all(getattr(wemeval, name) is getattr(camera, name) for name in moved)]))
    """
    loaded, moved, resolved = _child(script, json.dumps(sorted(MOVED)))
    assert not OFF_EVAL_PATH & set(loaded)
    assert moved == ["Homography", "estimate_homography", "render_camera_flow", "residual_object_flow"]
    assert resolved


@pytest.mark.parametrize("command", ["decompose-flow", "gen-fixtures", "report", "verify-mechanisms"])
def test_a_moved_command_run_as_main_reports_a_bad_input_in_one_line(tmp_path, command):
    (tmp_path / "catalog.json").write_text(json.dumps({"fixtures": [1]}))
    (tmp_path / "not-a-report.jsonl").write_text('{"neither": 1}\n')
    args = {
        "decompose-flow": ["--flow", str(tmp_path / "missing.bin"), "--matches", str(tmp_path / "missing.json"),
                           "--out-dir", str(tmp_path / "out")],
        "gen-fixtures": ["--catalog", str(tmp_path / "catalog.json"), "--out-dir", str(tmp_path / "out")],
        "report": [str(tmp_path / "not-a-report.jsonl")],
        "verify-mechanisms": ["--out", str(tmp_path)],
    }[command]
    out = subprocess.run([sys.executable, "-m", "wemeval.cli", command, *args], env=ENV, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{command}: "), out.stderr
    assert not (tmp_path / "out").exists()
