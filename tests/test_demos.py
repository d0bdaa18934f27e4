"""Smoke-run the fast demos as scripts: each exits 0 in a scratch directory."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FAST_DEMOS = ["01_autodiff_and_gradients.py", "02_interpolation_and_scaling.py",
              "03_forecast_decomposition.py", "04_benchmark_harness.py",
              "05_random_search.py"]


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    if demo.startswith("03"):
        assert (tmp_path / "decomposition.csv").is_file()
    if demo.startswith("04"):
        assert (tmp_path / "metrics.json").is_file()
    if demo.startswith("05"):
        trials = [json.loads(line) for line in
                  (tmp_path / "trials.jsonl").read_text().splitlines()]
        printed = [line for line in result.stdout.splitlines() if line.startswith("  trial ")]
        assert [t["index"] for t in trials] == list(range(len(printed)))
        assert trials
