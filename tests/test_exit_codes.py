"""The CLI exit-code contract as a sweep: every run-config key set to each of a
fixed list of hostile values must give exit 0, 1, 2 or 3 through ``main``,
with nothing raised, and only divergence may exit 3.

``param-count`` runs every ``[model]`` key; ``train`` runs every key of every
section on one 400-row series (4 iterations, 1 member). No value asks for a
large width, many members or many threads: the largest number is 30.
"""

import contextlib
import io

import numpy as np
import pytest

from dmidas.cli import CONFIG_SCHEMA, main

BASE = {
    "model": {"input_size": "24", "horizon": "8", "blocks_per_stack": "2",
              "mlp_widths": "8", "base_ratio": "0.5"},
    "training": {"iterations": "4", "batch_size": "16", "eval_every": "2"},
    "ensemble": {"n_members": "1"},
    "evaluation": {"horizons": "8", "val_len": "32", "test_len": "32"},
}

HOSTILE = (
    # empty, separators and text the INI reader treats specially
    "", ",", "%", "abc", "true", "auto", "exponential",
    # model and normalization names
    "mlp", "nbeats-i", "none",
    # numbers at and beyond the edges of their ranges
    "nan", "inf", "-inf", "1e-300", "-1", "0", "0.5", "1", "1.5", "2", "25", "30",
    # lists: with a zero, constant over the 2 blocks, and one value too long
    "0,1", "1,0", "2,2", "1,2,3",
)

# Diverging (a huge step or penalty) is a training error, exit 3; nothing else is.
MAY_DIVERGE = {("training", "lr"), ("training", "l1_lambda")}


@pytest.fixture(scope="module")
def series_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "data.csv"
    values = (3.0 * np.sin(2 * np.pi * np.arange(400) / 12)
              + np.random.default_rng(0).normal(0, 0.1, 400))
    path.write_text("id,time,value\n" + "".join(f"a,{t},{v}\n"
                                                for t, v in enumerate(values.tolist())))
    return str(path)


def _ini(section: str, key: str, value: str) -> str:
    sections = {name: dict(keys) for name, keys in BASE.items()}
    sections.setdefault(section, {})[key] = value
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


def _sweep(tmp_path, section: str, key: str, command) -> dict:
    """Exit code (or the exception raised) of ``command(config, out)`` per hostile value."""
    outcomes = {}
    for i, value in enumerate(HOSTILE):
        config = tmp_path / f"{i}.ini"
        config.write_text(_ini(section, key, value))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                outcomes[value] = main(command(str(config), str(tmp_path / f"out{i}")))
            except Exception as exc:  # recorded: the contract is that none escapes main
                outcomes[value] = repr(exc)
    return outcomes


def _broken(outcomes: dict, allowed: set) -> dict:
    return {value: code for value, code in outcomes.items() if code not in allowed}


@pytest.mark.parametrize("key", sorted(CONFIG_SCHEMA["model"]))
def test_param_count_exits_zero_one_or_two(tmp_path, key):
    outcomes = _sweep(tmp_path, "model", key, lambda config, out: ["param-count",
                                                                  "--config", config])
    assert _broken(outcomes, {0, 1, 2}) == {}


@pytest.mark.parametrize("section, key", sorted((section, key)
                                                for section, keys in CONFIG_SCHEMA.items()
                                                for key in keys))
def test_train_exits_zero_one_or_two_unless_it_diverges(tmp_path, series_csv, section, key):
    allowed = {0, 1, 2, 3} if (section, key) in MAY_DIVERGE else {0, 1, 2}
    outcomes = _sweep(tmp_path, section, key, lambda config, out: [
        "train", series_csv, "--config", config, "--out", out])
    assert _broken(outcomes, allowed) == {}
