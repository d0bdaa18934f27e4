"""Run the benchmark on two checkouts in alternating pairs and write the
paired medians as one ``BENCH_<n>.json``.

    python tools/bench_pairs.py --parent SRC --change SRC --workload W --pairs N \\
        --seed S --out BENCH_<n>.json [--smoke]

Each SRC is the ``src`` directory of a checkout. Both sides run the same
harness: this checkout's ``perfbench/`` is copied once into two scratch trees,
each beside a copy of one side's ``src/``, so that neither side's run reads
the other's files. Each pair runs ``perfbench/run.py --trace 0`` once per
side, one process per run; odd-numbered pairs (from 1) run the parent first,
even-numbered pairs the change. ``--workload`` may be given more than once;
all pairs of one workload run before the next workload starts. Each run
serves for ``BENCHMARK.json``'s ``run_seconds``.

The output holds, per workload and per end-to-end metric of
``BENCHMARK.json``: each side's median, quartiles (numpy's linear
percentiles), IQR and every run's value; the change's median against the
parent's; the pairs in which the change read better (ties count for
neither); how much worse the change reads as a share of the parent's median,
against the metric's bound; and whether the runs' spread (IQR over median,
the wider side) is within that bound. Every run's full result, with its
output checks, is kept under ``raw``, and host notes (CPUs, numpy, OpenBLAS
and its core type) under ``host``. ``--smoke`` runs perfbench's seconds-long
variant of each workload, serving for ``SMOKE_SECONDS``.

Exits 1 if a run fails or reports a failed check, 0 otherwise.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
RUN_TIMEOUT_S = 900.0
SMOKE_SECONDS = 0.2
METHOD = ("Each side runs from its own scratch tree (one copy of perfbench/ beside a copy "
          "of the side's src/), one process per run, untraced. Pairs alternate which side "
          "runs first (odd-numbered pairs from 1: parent first); all pairs of one workload "
          "run before the next. Medians and quartiles are numpy percentiles (linear) over "
          "each side's runs; median_change_pct is change median / parent median - 1; "
          "change_better_in_pairs counts pairs in which the change read better, ties "
          "counting for neither; worse_by_share_of_parent_median is compared with the "
          "metric's BENCHMARK.json bound; spread_share is the larger side's IQR / median, "
          "and a metric whose spread_share exceeds its bound is unresolved.")


def openblas_corename() -> str:
    """The kernel set OpenBLAS picked for this CPU ('' where it cannot be read)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in maps
                            if "openblas" in line.lower()})
    except OSError:
        return ""
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            get = getattr(lib, name, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode()
    return ""


def host_notes() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name", ""),
            "openblas": blas.get("version", ""), "openblas_coretype": openblas_corename(),
            "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def side_notes(src: Path) -> dict:
    """The git commit of a side's checkout, and whether its src/ has local changes."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--", ".")
    return {"commit": git("rev-parse", "HEAD"),
            "src_modified": None if status is None else bool(status)}


def make_tree(base: Path, side: str, src: Path) -> Path:
    tree = base / side
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".bench_out")
    shutil.copytree(src, tree / "src", ignore=ignore)
    shutil.copytree(base / "perfbench", tree / "perfbench", ignore=ignore)
    return tree


def run_once(tree: Path, workload: str, args) -> dict:
    """One untraced benchmark run: its final JSON line with each output check's
    name and outcome under ``checks``, or an ``error`` entry."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", "0"] + (["--smoke"] if args.smoke else [])
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {RUN_TIMEOUT_S:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result = json.loads(lines[-1])
    # run.py prints "<workload> check <name>: ok (<detail>)" per check.
    prefix = f"{workload} check "
    checks = [line[len(prefix):].split(": ", 1) for line in lines if line.startswith(prefix)]
    result["checks"] = {name: outcome.startswith("ok") for name, outcome in checks}
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = (float(v) for v in np.percentile(values, [25, 50, 75]))
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def compare(spec: dict, runs: dict[str, list[dict]]) -> dict | None:
    """One metric's paired statistics, or None if some run did not report it."""
    name, lower = spec["name"], spec["better"] == "lower"
    if any(name not in r.get("metrics", {}) for side in SIDES for r in runs[side]):
        return None
    values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
    stats = {side: summary(values[side]) for side in SIDES}
    parent, change = stats["parent"]["median"], stats["change"]["median"]
    worse = (change - parent if lower else parent - change) / parent
    better = sum((c < p) if lower else (c > p)
                 for p, c in zip(values["parent"], values["change"]))
    spread = max(s["iqr"] / abs(s["median"]) if s["median"] else 0.0 for s in stats.values())
    return {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"], **stats,
            "median_change_pct": (change / parent - 1.0) * 100.0,
            "change_better_in_pairs": f"{better}/{len(values['parent'])}",
            "worse_by_share_of_parent_median": worse, "within_bound": worse <= spec["bound"],
            "spread_share": spread, "resolved": spread <= spec["bound"]}


def bench_workload(trees: dict[str, Path], workload: str, args, specs: list[dict]) -> dict:
    runs = {side: [] for side in SIDES}
    first = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            result = run_once(trees[side], workload, args)
            runs[side].append(result)
            status = result.get("error") or f"correct={result['correct']}"
            print(f"{workload} pair {pair + 1}/{args.pairs} {side}: {status}",
                  file=sys.stderr, flush=True)
    ok = {side: [r for r in runs[side] if "error" not in r] for side in SIDES}
    rows = {spec["name"]: compare(spec, runs) for spec in specs}
    metrics = {name: row for name, row in rows.items() if row is not None}
    return {"pairs": args.pairs, "first_in_pair": first,
            "correct": {s: len(ok[s]) == len(runs[s]) and all(r["correct"] for r in ok[s])
                        for s in SIDES},
            "failed": {s: sum(r["failed"] for r in ok[s]) for s in SIDES},
            "attempted": {s: sum(r["attempted"] for r in ok[s]) for s in SIDES},
            "metrics": metrics, "raw": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="src directory of the parent")
    parser.add_argument("--change", required=True, type=Path, help="src directory of the change")
    parser.add_argument("--workload", required=True, action="append",
                        help="a perfbench workload; may be repeated")
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--smoke", action="store_true",
                        help="perfbench's seconds-long variant of each workload")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    srcs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, src in srcs.items():
        if not (src / "dmidas" / "__init__.py").is_file():
            parser.error(f"--{side} {src} holds no dmidas package")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = bench["end_to_end"]
    args.seconds = SMOKE_SECONDS if args.smoke else bench["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as scratch:
        base = Path(scratch)
        shutil.copytree(ROOT / "perfbench", base / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", ".bench_out"))
        trees = {side: make_tree(base, side, src) for side, src in srcs.items()}
        workloads = {w: bench_workload(trees, w, args, specs) for w in args.workload}

    report = {"command": (f"python3 perfbench/run.py --workload <workload> --seed {args.seed} "
                          f"--seconds {args.seconds:g} --trace 0"
                          + (" --smoke" if args.smoke else "")),
              "method": METHOD, "sides": {s: side_notes(src) for s, src in srcs.items()},
              "host": host_notes(), "workloads": workloads}
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    ok = all(w["correct"][s] and w["failed"][s] == 0 for w in workloads.values() for s in SIDES)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
