"""The paired-run tool (tools/bench_pairs.py) on one smoke-sized pair: the
output file has every key of the layout and both runs were correct."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRIC_KEYS = {"unit", "better", "bound", "parent", "change", "median_change_pct",
               "change_better_in_pairs", "worse_by_share_of_parent_median", "within_bound",
               "spread_share", "resolved"}
STAT_KEYS = {"median", "q1", "q3", "iqr", "runs"}


def test_one_smoke_pair_reports_every_metric(tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    src = str(ROOT / "src")
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_pairs.py"),
                           "--parent", src, "--change", src, "--workload", "long-horizon-serve",
                           "--pairs", "1", "--seed", "3", "--smoke",
                           "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(out.read_text())
    assert set(report) == {"command", "method", "sides", "host", "workloads"}
    assert {"nproc", "numpy", "openblas", "openblas_coretype"} <= set(report["host"])
    assert set(report["sides"]) == {"parent", "change"}
    w = report["workloads"]["long-horizon-serve"]
    assert w["pairs"] == 1 and w["first_in_pair"] == ["parent"]
    assert w["correct"] == {"parent": True, "change": True}
    assert w["failed"] == {"parent": 0, "change": 0}
    for side in ("parent", "change"):
        (run,) = w["raw"][side]
        assert run["correct"] and run["checks"] and all(run["checks"].values())
        assert {"checkpoint_roundtrip", "reference_forward"} <= set(run["checks"])
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert sorted(w["metrics"]) == sorted(names)
    for row in w["metrics"].values():
        assert set(row) == METRIC_KEYS
        assert set(row["parent"]) == set(row["change"]) == STAT_KEYS
        assert len(row["parent"]["runs"]) == len(row["change"]["runs"]) == 1
