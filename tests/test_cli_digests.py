"""The committed CLI byte sweep (tools/cli_digests.py): every output of the
sweep at --jobs 2 has the bytes it has at --jobs 1, also on the long-800
variant, whose products OpenBLAS rounds differently at one and two threads,
on the nbeats-i variant, whose single windows go through dense bases, and on
the h96 variant, whose interpolation bands span more than one chunk; and
``forecast`` and ``decompose`` on members re-saved with ``np.savez_compressed``
write the bytes they write on the members as saved."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_sweep(out: Path, jobs: int) -> dict[str, str]:
    """{relative path: sha256} of one sweep."""
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "cli_digests.py"),
                           "--src", str(ROOT / "src"), "--out", str(out),
                           "--jobs", str(jobs)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    digests = {}
    for line in proc.stdout.splitlines():
        sha, path = line.split("  ", 1)
        digests[path] = sha
    return digests


def without_jobs(path: Path, jobs: int) -> list[str]:
    lines = path.read_text().splitlines()
    assert f"jobs = {jobs}" in lines
    return [line for line in lines if not line.startswith("jobs = ")]


def test_every_output_is_identical_at_jobs_one_and_two(tmp_path):
    one = run_sweep(tmp_path / "one", jobs=1)
    two = run_sweep(tmp_path / "two", jobs=2)
    assert one.keys() == two.keys()
    for tag in ("median-avg", "last-max", "none-avg", "long-800", "nbeats-i", "h96"):
        assert {f"{tag}/train/checkpoints/member_0.npz", f"{tag}/train/history/member_1.csv",
                f"{tag}/evaluate-checkpoints/metrics.json",
                f"{tag}/forecast.csv", f"{tag}/decompose.csv"} <= one.keys()
        assert (f"{tag}/evaluate/metrics.json" in one) == (tag not in ("nbeats-i", "h96"))
    assert {"data.csv", "search/trials.jsonl", "param-count.stdout"} <= one.keys()
    for csv in ("forecast.csv", "decompose.csv"):
        assert one[f"median-avg/compressed/{csv}"] == one[f"median-avg/{csv}"]
    for path in one:
        # A command's run config records the setting in its [run] jobs line.
        if "/" in path and path.endswith((".resolved", ".ini")):
            assert without_jobs(tmp_path / "one" / path, 1) == \
                without_jobs(tmp_path / "two" / path, 2), path
        else:
            assert one[path] == two[path], path
