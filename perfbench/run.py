#!/usr/bin/env python3
"""The dmidas benchmark: one command, three workloads, end-to-end metrics with
tracing off and per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload train-256x2 --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 1

Each workload runs in a fresh child process; set-up is also timed in further
fresh processes that stop at the first training step, and ``setup_s`` is
their median. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Run it from the root
of a source checkout: it imports ``dmidas`` from ``src/`` and writes only
under ``.bench_out/``. See perfbench/README.md.
"""

import time

T0 = time.perf_counter()  # a workload's clock starts before dmidas is imported

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("train-256x2", "ensemble-512x3-jobs2", "long-horizon-serve")
SETUP_PROBES = 2        # extra set-up samples per untraced run, besides the run's own
CHILD_TIMEOUT_S = 170.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the serving phase of a run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="a seconds-long variant of each workload, for the benchmark's tests")
    p.add_argument("--role", choices=("parent", "workload", "probe"), default="parent",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Child processes: one workload, or one set-up probe
# ---------------------------------------------------------------------------

def child(args) -> int:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import workload as wl

    w = wl.WORKLOADS[args.workload]
    if args.smoke:
        w = wl.smoke(w)
    workdir = OUT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    trace_path = OUT / f"trace-{args.workload}-s{args.seed}.jsonl" if args.trace else None
    try:
        result = wl.run(w, args.seed, args.seconds, workdir, trace=bool(args.trace),
                        probe=args.role == "probe", t0=T0, trace_path=trace_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_child(args, role: str, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process for {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# The parent process
# ---------------------------------------------------------------------------

def run_workload(args, deadline: float) -> dict:
    result = run_child(args, "workload", deadline)
    if not args.trace:
        setups = [result["metrics"]["setup_s"][0]]
        for _ in range(1 if args.smoke else SETUP_PROBES):
            setups.append(run_child(args, "probe", deadline)["setup_s"])
        result["metrics"]["setup_s"] = [statistics.median(setups), "s"]
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role != "parent":
        return child(args)
    if not (ROOT / "src" / "dmidas" / "__init__.py").is_file():
        print(f"benchmark: no dmidas sources under {ROOT / 'src'}; run it from the root "
              f"of a dmidas checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.perf_counter() + CHILD_TIMEOUT_S * len(names)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        result = run_workload(one, deadline)
        for check, ok, detail in result["checks"]:
            print(f"{name} check {check}: {'ok' if ok else 'FAILED'} ({detail})")
        for metric, (value, unit) in result["metrics"].items():
            print(f"{name} {metric} = {value:.6g} {unit}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}/"
        for metric, (value, unit) in result["metrics"].items():
            combined["metrics"][prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
