"""The per-phase memory tool (tools/phase_rss.py) on a smoke-sized workload:
one line per phase and per output check, with a high-water mark that does
not fall."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PHASES = ["start", "prepare", "train", "checkpoints", "test_set", "serve", "run_checks"]
CHECKS = ["checkpoint_roundtrip", "batch_repeats", "csv_reload", "train_windows",
          "batch_rows_equal_single", "reference_forward", "cli_equals_library",
          "tape_gradients_vs_finite_differences", "adam_closed_form", "jobs_matches_serial"]
# The kernel batches each thread's RSS counter updates, so a VmHWM read just
# after the peak can sit a few pages above a later read of the same mark.
HWM_SLACK_MIB = 1.0


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="no /proc/self/status")
def test_every_phase_and_check_is_reported_with_a_rising_high_water_mark():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "phase_rss.py"),
                           "--src", str(ROOT / "src"), "--workload", "ensemble-512x3-jobs2",
                           "--seed", "3", "--smoke", "--seconds", "0"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    header, *lines = proc.stdout.splitlines()
    assert header.split() == ["after", "VmRSS", "MiB", "VmHWM", "MiB"]
    labels, rss, hwm = [], [], []
    for line in lines:
        *label, r, h = line.split()
        labels.append(" ".join(label))
        rss.append(float(r))
        hwm.append(float(h))
    assert [x for x in labels if not x.startswith("check ")] == PHASES
    assert [x for x in labels if x.startswith("check ")] == [f"check {c} ok" for c in CHECKS]
    assert all(0 < r <= h + HWM_SLACK_MIB for r, h in zip(rss, hwm))
    assert all(b >= a - HWM_SLACK_MIB for a, b in zip(hwm, hwm[1:]))
    assert hwm[-1] > hwm[0]
