"""Run one benchmark workload and print the process's resident memory after
each phase of the run and after each output check.

    python tools/phase_rss.py --src SRC --workload W --seed S [--smoke] [--seconds T]

SRC is the ``src`` directory of the checkout to run; its ``dmidas`` is
imported ahead of any other, and the ``perfbench`` directory beside it
supplies the workloads and the run. The run is perfbench's untraced run, phase
by phase: ``prepare``, ``train``, ``checkpoints``, ``test_set``, ``serve`` and
``run_checks``, with one line per output check as it is recorded. Each line
gives ``VmRSS`` (resident now) and ``VmHWM`` (the high-water mark so far,
which perfbench reports as ``peak_rss_mb``) in MiB, read from
``/proc/self/status``; nothing else is measured or changed. ``--seconds`` is
the length of the serving phase (perfbench's ``--seconds``), and ``--smoke``
runs perfbench's seconds-long variant of the workload.

Exits 1 if a check fails, and 2 where ``/proc/self/status`` cannot be read.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

STATUS = Path("/proc/self/status")
PHASES = ("prepare", "train", "checkpoints", "test_set", "serve", "run_checks")


def memory_mib() -> tuple[float, float]:
    """(VmRSS, VmHWM) of this process in MiB."""
    fields = {}
    for line in STATUS.read_text().splitlines():
        key, _, value = line.partition(":")
        if key in ("VmRSS", "VmHWM"):
            fields[key] = int(value.split()[0]) / 1024.0  # the kernel reports kB
    return fields["VmRSS"], fields["VmHWM"]


def report(label: str) -> None:
    rss, hwm = memory_mib()
    print(f"{label:<48} {rss:9.1f} {hwm:9.1f}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="src directory of the checkout to run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=34.0,
                        help="length of the serving phase (default 34)")
    parser.add_argument("--smoke", action="store_true",
                        help="perfbench's seconds-long variant of the workload")
    args = parser.parse_args(argv)

    try:
        memory_mib()
    except (OSError, KeyError, ValueError) as exc:
        print(f"cannot read VmRSS and VmHWM from {STATUS}: {exc}", file=sys.stderr)
        return 2
    src = Path(args.src).resolve()
    sys.path[:0] = [str(src.parent / "perfbench"), str(src)]
    import workload as wl
    from dmidas import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        parser.error(f"dmidas was imported from {cli.__file__}, not from {src}")
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload '{args.workload}'; one of {sorted(wl.WORKLOADS)}")
    w = wl.WORKLOADS[args.workload]
    if args.smoke:
        w = wl.smoke(w)

    class PhaseRun(wl.Run):
        def check(self, name, result):
            super().check(name, result)
            report(f"check {name} {'ok' if self.checks[-1][1] else 'FAILED'}")

    print(f"{'after':<48} {'VmRSS MiB':>9} {'VmHWM MiB':>9}")
    report("start")
    with tempfile.TemporaryDirectory() as workdir:
        run = PhaseRun(w, args.seed, args.seconds, Path(workdir), tracer=None, probe=False,
                       t0=time.perf_counter())
        for phase in PHASES:
            getattr(run, phase)()
            report(phase)
    return 0 if all(ok for _, ok, _ in run.checks) else 1


if __name__ == "__main__":
    sys.exit(main())
