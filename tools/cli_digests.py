"""Run a fixed sweep of ``dmidas`` commands on tiny data and print one
``sha256  path`` line per output file.

    python tools/cli_digests.py --src SRC --out DIR [--jobs N]

SRC is the ``src`` directory of the checkout to run; its ``dmidas`` is
imported ahead of any other. DIR must be new or empty. The commands run in
one process, in DIR, with relative paths, and every command's stdout goes to
a ``.stdout`` file beside its outputs:

- ``generate`` of two synthetic series, merged into one two-series CSV, and
  of a third, longer series in a CSV of its own;
- for each of three dmidas variants on the merged CSV (``per-series-median``
  with ``avg`` pooling, ``per-window-last`` with ``max`` pooling, ``none``
  with ``avg`` pooling) and one on the long series (``long-800``: 800 lags,
  batches of 128 and 64-wide layers): ``train``, ``evaluate`` over dmidas,
  nbeats-i, mlp and seasonal-naive, ``evaluate --checkpoints``, ``forecast``
  and ``decompose``;
- for one nbeats-i variant on the merged CSV (``nbeats-i``: polynomial and
  harmonic bases, whose single-window forecasts and decompositions project
  one θ vector through a dense basis): the same commands but ``evaluate``,
  whose nbeats-i column the dmidas variants already train;
- for one dmidas variant on the long series at H = 96 (``h96``: 288 lags
  and holdouts of 96, so its forecast and backcast bands span two and five
  64-step chunks): the same commands but ``evaluate``;
- ``search --budget 2`` and ``param-count`` on the first variant;
- ``forecast`` and ``decompose`` on the first variant's two members re-saved
  with ``np.savez_compressed`` (``median-avg/compressed``), whose CSVs must
  have the bytes of the stored members' CSVs.

``--jobs`` goes to every command that takes it. ``trials.jsonl`` is digested
without its ``wall_time`` field, which is the only output that depends on
time. The resolved configs (``*.resolved``, ``best_config.ini``) record
``[run] jobs``, so they differ between ``--jobs`` settings and nothing else.

Compare the printed lines of two checkouts to check that a change keeps every
output byte; compare ``--jobs 1`` with ``--jobs 2`` to check reproducibility.
Exits 1 if any command does not exit 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

# name: (length, components); every series but "long" is merged into data.csv
SPECS = {
    "fast": (240, [{"kind": "sinusoid", "period": 12, "amplitude": 3.0},
                   {"kind": "noise", "sigma": 0.1}]),
    "slow": (240, [{"kind": "sinusoid", "period": 24, "amplitude": 2.0},
                   {"kind": "linear_trend", "slope": 0.01},
                   {"kind": "noise", "sigma": 0.2}]),
    "long": (1200, [{"kind": "sinusoid", "period": 96, "amplitude": 2.0},
                    {"kind": "noise", "sigma": 0.1}]),
}
MERGED = ("fast", "slow")

# tag: (data CSV, kind, normalization, pooling, input_size, batch_size, mlp_widths,
#       horizon, val_len and test_len)
VARIANTS = {
    "median-avg": ("data.csv", "dmidas", "per-series-median", "avg", 24, 16, "16,16", 8, 32),
    "last-max": ("data.csv", "dmidas", "per-window-last", "max", 24, 16, "16,16", 8, 32),
    "none-avg": ("data.csv", "dmidas", "none", "avg", 24, 16, "16,16", 8, 32),
    # The first block pools 800 lags to 400, and OpenBLAS rounds a
    # 128 x 400 @ 400 x 64 product differently at one and at two threads.
    "long-800": ("long.csv", "dmidas", "per-series-median", "avg", 800, 128, "64,64", 8, 32),
    "nbeats-i": ("data.csv", "nbeats-i", "per-series-median", "avg", 24, 16, "16,16", 8, 32),
    # H > 64, so the interpolation bands hold more than one chunk.
    "h96": ("long.csv", "dmidas", "per-series-median", "avg", 288, 16, "16,16", 96, 96),
}

CONFIG = """\
[model]
kind = {kind}
input_size = {input_size}
horizon = {horizon}
blocks_per_stack = 2
mlp_widths = {widths}
base_ratio = 0.5
pooling_mode = {pooling}

[training]
iterations = 30
batch_size = {batch_size}
eval_every = 10
normalization = {normalization}

[ensemble]
n_members = 2

[evaluation]
horizons = {horizon}
val_len = {holdout}
test_len = {holdout}
models = dmidas,nbeats-i,mlp,seasonal-naive
naive_period = 12
"""


GENERATE = [(f"generate-{name}", ["generate", f"{name}.json", "--out", f"{name}.csv",
                                  "--seed", "3"]) for name in SPECS]


def common(tag: str, jobs: int) -> list[str]:
    """The data, config, seed and jobs arguments of variant ``tag``'s commands."""
    return [VARIANTS[tag][0], "--config", f"{tag}.ini", "--seed", "5", "--jobs", str(jobs)]


def serving(common_args: list[str], checkpoints: str, out: str) -> list[tuple[str, list[str]]]:
    """``forecast`` and ``decompose`` of the members under ``checkpoints``, into ``out``."""
    return [
        (f"{out}/forecast", ["forecast", *common_args, "--checkpoints", checkpoints,
                             "--out", f"{out}/forecast.csv"]),
        (f"{out}/decompose", ["decompose", *common_args, "--checkpoint",
                              f"{checkpoints}/member_0.npz", "--out", f"{out}/decompose.csv"]),
    ]


def commands(jobs: int) -> list[tuple[str, list[str]]]:
    """(stdout file, argv) on the merged CSV, in run order; paths are relative
    to the output directory."""
    steps = []
    for tag in VARIANTS:
        args = common(tag, jobs)
        steps.append((f"{tag}/train", ["train", *args, "--out", f"{tag}/train"]))
        # The dmidas variants already train nbeats-i's column, and h96 sweeps
        # the commands that load or train one dmidas ensemble.
        if tag not in ("nbeats-i", "h96"):
            steps.append((f"{tag}/evaluate", ["evaluate", *args, "--out", f"{tag}/evaluate"]))
        steps.append((f"{tag}/evaluate-checkpoints",
                      ["evaluate", *args, "--checkpoints", f"{tag}/train/checkpoints",
                       "--out", f"{tag}/evaluate-checkpoints"]))
        steps += serving(args, f"{tag}/train/checkpoints", tag)
    first = next(iter(VARIANTS))
    steps += [
        ("search", ["search", "data.csv", "--config", f"{first}.ini", "--seed", "5",
                    "--budget", "2", "--out", "search", "--jobs", str(jobs)]),
        ("param-count", ["param-count", "--config", f"{first}.ini"]),
    ]
    return steps


def resave_compressed(source: str, target: str) -> None:
    """Write each ``member_*.npz`` under ``source`` again with ``np.savez_compressed``
    into the new directory ``target``."""
    Path(target).mkdir()
    for path in sorted(Path(source).glob("member_*.npz")):
        with np.load(path) as npz:
            np.savez_compressed(Path(target) / path.name, **{key: npz[key] for key in npz.files})


def run_all(cli, steps) -> bool:
    """Run each step's argv through ``cli.main``; False at the first nonzero exit."""
    for stdout_name, argv in steps:
        with open(f"{stdout_name}.stdout", "w", encoding="utf-8") as handle, \
                contextlib.redirect_stdout(handle):
            code = cli.main(argv)
        if code != 0:
            print(f"dmidas {' '.join(argv)} exited {code}", file=sys.stderr)
            return False
    return True


def write_inputs() -> None:
    for name, (length, components) in SPECS.items():
        spec = {"name": name, "length": length, "seed": 2, "components": components}
        Path(f"{name}.json").write_text(json.dumps(spec))
    for tag, (_, kind, normalization, pooling, input_size, batch_size, widths, horizon,
              holdout) in VARIANTS.items():
        Path(f"{tag}.ini").write_text(CONFIG.format(
            kind=kind, normalization=normalization, pooling=pooling, input_size=input_size,
            batch_size=batch_size, widths=widths, horizon=horizon, holdout=holdout))
        Path(tag).mkdir()


def merge_series() -> None:
    """One CSV holding the MERGED series, in that order."""
    lines = []
    for name in MERGED:
        rows = Path(f"{name}.csv").read_text().splitlines(keepends=True)
        lines += rows if not lines else rows[1:]
    Path("data.csv").write_text("".join(lines))


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "trials.jsonl":
        records = [json.loads(line) for line in data.decode().splitlines()]
        for record in records:
            del record["wall_time"]
        data = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records).encode()
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="src directory of the checkout to run")
    parser.add_argument("--out", required=True, help="new or empty output directory")
    parser.add_argument("--jobs", type=int, default=1, help="--jobs for every command")
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from dmidas import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        parser.error(f"dmidas was imported from {cli.__file__}, not from {src}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        parser.error(f"{out} is not empty")
    os.chdir(out)
    write_inputs()
    if not run_all(cli, GENERATE):
        return 1
    merge_series()
    if not run_all(cli, commands(args.jobs)):
        return 1
    first = next(iter(VARIANTS))
    resave_compressed(f"{first}/train/checkpoints", f"{first}/compressed")
    if not run_all(cli, serving(common(first, args.jobs), f"{first}/compressed",
                                f"{first}/compressed")):
        return 1
    for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
        print(f"{digest(path)}  {path.as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
