"""End-to-end CLI behavior: files, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dmidas
from dmidas import metrics, training
from dmidas.cli import (default_run_config, load_run_config, main, search_objective,
                         write_resolved_config)
from dmidas.data import load_csv, load_decomposition_csv

TINY_SPEC = {
    "name": "tiny",
    "length": 240,
    "seed": 2,
    "components": [
        {"kind": "sinusoid", "period": 12, "amplitude": 3.0},
        {"kind": "noise", "sigma": 0.1},
    ],
}

TINY_CONFIG = """
[model]
kind = dmidas
input_size = 24
horizon = 8
stacks = 1
blocks_per_stack = 2
mlp_widths = 16,16
base_ratio = 0.5

[training]
iterations = 60
batch_size = 16
eval_every = 20

[ensemble]
n_members = 2

[evaluation]
horizons = 8
val_len = 32
test_len = 32
models = dmidas,seasonal-naive
naive_period = 12
"""


@pytest.fixture
def workspace(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(TINY_SPEC))
    data_path = tmp_path / "data.csv"
    assert main(["generate", str(spec_path), "--out", str(data_path)]) == 0
    config_path = tmp_path / "run.ini"
    config_path.write_text(TINY_CONFIG)
    return tmp_path, str(config_path), str(data_path)


class TestGenerate:
    def test_preset_row_count(self, tmp_path):
        out = tmp_path / "mf.csv"
        assert main(["generate", "multifreq-v1", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4001  # header + 4000 rows
        assert (tmp_path / "mf.csv.resolved").exists()

    def test_unknown_preset_exit_one_and_lists(self, tmp_path, capsys):
        code = main(["generate", "not-a-preset", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "multifreq-v1" in capsys.readouterr().err

    def test_seed_override_changes_noise_only(self, tmp_path):
        spec = dict(TINY_SPEC)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["generate", str(spec_path), "--out", str(a)]) == 0
        assert main(["generate", str(spec_path), "--out", str(b), "--seed", "99"]) == 0
        va = load_csv(a).series[0].values
        vb = load_csv(b).series[0].values
        assert not np.array_equal(va, vb)
        # deterministic part survives: remove it and both residues are noise-sized
        t = np.arange(240)
        clean = 3.0 * np.sin(2 * np.pi * t / 12)
        assert np.max(np.abs(va - clean)) < 0.6
        assert np.max(np.abs(vb - clean)) < 0.6

    def test_same_seed_identical_bytes(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(TINY_SPEC))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", str(spec_path), "--out", str(a)])
        main(["generate", str(spec_path), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_is_not_an_option(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["generate", "multifreq-v1", "--out", str(out), "--jobs", "2"])
        assert code == 1
        assert "--jobs" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("spec", [
        '{"length": 240, "components": [{"kind": "sinusoid", "amp',
        '{"length": 240, "components": [{"kind": "sinusoid", "amplitude": 3.0}]}',
        '{"length": 240, "components": [{"kind": "noise", "sigma": "x"}]}',
        '{"length": "240"}',
        '[240]',
    ], ids=["truncated", "sinusoid-without-period", "text-sigma", "text-length", "not-an-object"])
    def test_malformed_spec_exit_one(self, tmp_path, capsys, spec):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec)
        out = tmp_path / "out" / "x.csv"
        assert main(["generate", str(spec_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "spec.json" in err
        assert not (tmp_path / "out").exists()


def _seen_jobs(monkeypatch) -> list:
    """Record the ``jobs`` of every ``training.parallel_map`` call."""
    seen, real = [], training.parallel_map

    def spy(fn, items, jobs):
        seen.append(jobs)
        return real(fn, items, jobs)

    monkeypatch.setattr(training, "parallel_map", spy)
    return seen


def _resolved_run(path) -> dict:
    return load_run_config(path).sections["run"]


MALFORMED_CONFIGS = {
    "text-int": ("iterations = 60", "iterations = ten"),
    "text-schedule": ("base_ratio = 0.5", "base_ratio = 0.5\nratio_schedule = a,b"),
    "text-pooling": ("base_ratio = 0.5", "base_ratio = 0.5\npooling_schedule = 2,x"),
    "unknown-boolean": ("base_ratio = 0.5", "base_ratio = 0.5\nshared_weights = maybe"),
    "text-member-seeds": ("n_members = 2", "n_members = 2\nmember_seeds = 1,b"),
    "zero-lr": ("iterations = 60", "iterations = 60\nlr = 0"),
    "negative-lr": ("iterations = 60", "iterations = 60\nlr = -0.01"),
    "nan-l1-lambda": ("iterations = 60", "iterations = 60\nl1_lambda = nan"),
    "negative-member-seed": ("n_members = 2", "n_members = 2\nmember_seeds = -1,2"),
    "text-seed": ("[model]", "[run]\nseed = x\n\n[model]"),
    "text-jobs": ("[model]", "[run]\njobs = x\n\n[model]"),
    "zero-jobs": ("[model]", "[run]\njobs = 0\n\n[model]"),
    "negative-seed": ("[model]", "[run]\nseed = -1\n\n[model]"),
    "long-delimiter": ("[training]", "[data]\ndelimiter = ;;\n\n[training]"),
    "empty-delimiter": ("[training]", "[data]\ndelimiter =\n\n[training]"),
    "no-section-header": ("\n[model]", "iterations = 60\n\n[model]"),
    "duplicate-key": ("iterations = 60", "iterations = 60\niterations = 60"),
    "bare-percent": ("[training]", "[data]\ndelimiter = %\n\n[training]"),
}


# ``write_resolved_config(default_run_config())``, byte for byte
RESOLVED_DEFAULTS = (
    "[run]\nseed = 0\njobs = 1\n\n"
    "[data]\nid_column = id\ntime_column = time\nvalue_column = value\ndelimiter = ,\n\n"
    "[model]\nkind = dmidas\ninput_size = 288\nhorizon = 96\nstacks = 1\n"
    "blocks_per_stack = 3\nmlp_widths = 512,512\nbase_ratio = 0.5\n"
    "ratio_schedule = exponential\npooling_schedule = auto\npooling_mode = avg\n"
    "poly_degree = 2\nn_harmonics = 4\nshared_weights = false\n\n"
    "[training]\nlr = 1e-3\niterations = 1000\nbatch_size = 128\nl1_lambda = 0\n"
    "early_stop_patience = 10\neval_every = 100\nloss = mae\n"
    "normalization = per-series-median\n\n"
    "[ensemble]\nn_members = 4\nmember_seeds = \n\n"
    "[evaluation]\nhorizons = 96\nval_len = 480\ntest_len = 960\n"
    "models = dmidas,seasonal-naive\nnaive_period = 168\nscope = global\n\n"
    "[search]\nbudget = 16\n\n"
)


class TestRunConfig:
    def test_default_resolved_config_bytes(self, tmp_path):
        write_resolved_config(default_run_config(), tmp_path / "defaults.ini")
        assert (tmp_path / "defaults.ini").read_bytes() == RESOLVED_DEFAULTS.encode()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
    def test_malformed_config_exit_one(self, workspace, capsys, case, command):
        tmp_path, config, data = workspace
        old, new = MALFORMED_CONFIGS[case]
        text = open(config).read()
        assert old in text
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace(old, new, 1))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, data, "--config", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("configuration error")
        assert not out.exists()

    @pytest.mark.parametrize("word", ["on", "yes", "1", "TRUE"])
    def test_shared_weights_takes_boolean_words(self, tmp_path, capsys, word):
        def total(value):
            config = tmp_path / f"{value}.ini"
            config.write_text("[model]\ninput_size = 24\nhorizon = 8\nblocks_per_stack = 2\n"
                              "mlp_widths = 8,8\nratio_schedule = 0.5,0.5\n"
                              f"pooling_schedule = 2\nshared_weights = {value}\n")
            assert main(["param-count", "--config", str(config)]) == 0
            return capsys.readouterr().out.split("generic twin")[0]

        assert total(word) == total("true") != total("false")

    def test_percent_survives_the_resolved_config(self, tmp_path):
        config = tmp_path / "pct.ini"
        config.write_text("[data]\nid_column = a%%b\n")
        loaded = load_run_config(config)
        assert loaded.get("data", "id_column") == "a%b"
        write_resolved_config(loaded, tmp_path / "config.resolved")
        assert load_run_config(tmp_path / "config.resolved") == loaded

    def test_run_jobs_is_used_and_recorded(self, workspace, monkeypatch):
        tmp_path, config, data = workspace
        with_jobs = tmp_path / "jobs.ini"
        with_jobs.write_text("[run]\njobs = 2\nseed = 05\n" + open(config).read())
        seen = _seen_jobs(monkeypatch)
        out = tmp_path / "run"
        assert main(["train", data, "--config", str(with_jobs), "--out", str(out)]) == 0
        assert seen == [2]
        assert _resolved_run(out / "config.resolved") == {"seed": "5", "jobs": "2"}

    def test_flags_override_the_file(self, workspace, monkeypatch):
        tmp_path, config, data = workspace
        with_run = tmp_path / "run.ini"
        with_run.write_text("[run]\njobs = 0\nseed = 3\n" + open(config).read())
        seen = _seen_jobs(monkeypatch)
        out = tmp_path / "run"
        assert main(["train", data, "--config", str(with_run), "--out", str(out),
                     "--jobs", "2", "--seed", "4"]) == 0
        assert seen == [2]
        assert _resolved_run(out / "config.resolved") == {"seed": "4", "jobs": "2"}


class TestEntryPoint:
    def test_malformed_config_exits_one_without_traceback(self, workspace):
        tmp_path, config, data = workspace
        bad = tmp_path / "bad.ini"
        bad.write_text(open(config).read().replace("iterations = 60", "iterations = ten"))
        src = str(Path(dmidas.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "dmidas.cli", "train", data,
                               "--config", str(bad), "--out", str(tmp_path / "out")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("configuration error")
        assert not (tmp_path / "out").exists()


class TestTrain:
    def test_outputs_and_determinism(self, workspace):
        tmp_path, config, data = workspace
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["train", data, "--config", config, "--out", str(out1),
                     "--seed", "5"]) == 0
        assert (out1 / "config.resolved").exists()
        checkpoints = sorted(p.name for p in (out1 / "checkpoints").iterdir())
        assert checkpoints == ["member_0.npz", "member_1.npz"]
        histories = sorted(p.name for p in (out1 / "history").iterdir())
        assert histories == ["member_0.csv", "member_1.csv"]

        assert main(["train", data, "--config", config, "--out", str(out2),
                     "--seed", "5"]) == 0
        for name in checkpoints:
            assert (out1 / "checkpoints" / name).read_bytes() == \
                (out2 / "checkpoints" / name).read_bytes()

    def test_missing_data_exit_two(self, workspace):
        tmp_path, config, _ = workspace
        code = main(["train", str(tmp_path / "missing.csv"), "--config", config,
                     "--out", str(tmp_path / "r")])
        assert code == 2

    def test_non_utf8_data_exit_two(self, workspace, capsys):
        tmp_path, config, _ = workspace
        data = tmp_path / "latin.csv"
        data.write_bytes(b"id,time,value\na,0,1.0\na,1,\xff\xfe\n")
        code = main(["train", str(data), "--config", config, "--out", str(tmp_path / "r")])
        assert code == 2
        assert "latin.csv' line 3" in capsys.readouterr().err

    def test_unknown_config_key_exit_one(self, workspace, capsys):
        tmp_path, _, data = workspace
        bad = tmp_path / "bad.ini"
        bad.write_text("[model]\nbogus_key = 1\n")
        code = main(["train", data, "--config", str(bad), "--out", str(tmp_path / "r")])
        assert code == 1
        assert "bogus_key" in capsys.readouterr().err

    def test_does_not_mutate_input(self, workspace):
        tmp_path, config, data = workspace
        before = open(data, "rb").read()
        main(["train", data, "--config", config, "--out", str(tmp_path / "r"),
              "--seed", "1"])
        assert open(data, "rb").read() == before


RUN_COMMANDS = ["train", "evaluate", "evaluate --checkpoints", "forecast", "decompose", "search"]


def _assert_rejected(workspace, capsys, command, flag, message, config_text=None):
    """``command`` with ``flag``, and with ``config_text`` as its config if given,
    exits 1 with ``message`` and writes nothing."""
    tmp_path, config, data = workspace
    run = tmp_path / "run"
    assert main(["train", data, "--config", config, "--out", str(run)]) == 0
    extra = {
        "evaluate --checkpoints": ["--checkpoints", str(run / "checkpoints")],
        "forecast": ["--checkpoints", str(run / "checkpoints")],
        "decompose": ["--checkpoint", str(run / "checkpoints" / "member_0.npz")],
        "search": ["--budget", "1"],
    }.get(command, [])
    if config_text is not None:
        config = tmp_path / "command.ini"
        config.write_text(config_text)
    out = tmp_path / "out"
    capsys.readouterr()
    code = main([command.split()[0], data, "--config", str(config), "--out", str(out),
                 *flag, *extra])
    assert code == 1
    assert message in capsys.readouterr().err
    assert list(tmp_path.glob("out*")) == []


class TestJobsOption:
    @pytest.mark.parametrize("command", RUN_COMMANDS)
    def test_jobs_zero_exit_one(self, workspace, capsys, command):
        _assert_rejected(workspace, capsys, command, ["--jobs", "0"], "jobs must be >= 1")

    @pytest.mark.parametrize("command", RUN_COMMANDS)
    def test_negative_seed_exit_one(self, workspace, capsys, command):
        _assert_rejected(workspace, capsys, command, ["--seed", "-1"], "seed must be >= 0")


class TestConfigTypes:
    @pytest.mark.parametrize("command", RUN_COMMANDS)
    def test_every_key_parses_as_its_type(self, workspace, capsys, command):
        text = TINY_CONFIG.replace("base_ratio = 0.5", "base_ratio = abc")
        _assert_rejected(workspace, capsys, command, [],
                         "[model] base_ratio = abc is not a number", text)


class TestEvaluate:
    def test_table_and_json(self, workspace, capsys):
        tmp_path, config, data = workspace
        out = tmp_path / "eval"
        assert main(["evaluate", data, "--config", config, "--out", str(out),
                     "--seed", "3"]) == 0
        table = (out / "metrics.txt").read_text()
        assert "dmidas" in table and "seasonal-naive" in table
        assert "MAE" in table and "RMSE" in table
        assert "*" in table  # row minimum marked
        payload = json.loads((out / "metrics.json").read_text())
        assert set(payload["data"]["8"]) == {"dmidas", "seasonal-naive"}

    def test_checkpoint_mode(self, workspace):
        tmp_path, config, data = workspace
        run = tmp_path / "run"
        assert main(["train", data, "--config", config, "--out", str(run),
                     "--seed", "4"]) == 0
        out = tmp_path / "eval-ckpt"
        assert main(["evaluate", data, "--config", config, "--out", str(out),
                     "--checkpoints", str(run / "checkpoints"), "--seed", "4"]) == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert "dmidas" in payload["data"]["8"]

    def test_no_test_windows_is_a_strict_json_error_cell(self, workspace):
        tmp_path, config, data = workspace
        empty = tmp_path / "empty.ini"
        empty.write_text(open(config).read().replace("test_len = 32", "test_len = 0")
                         .replace("models = dmidas,seasonal-naive", "models = seasonal-naive"))
        out = tmp_path / "eval"
        assert main(["evaluate", data, "--config", str(empty), "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        payload = json.loads((out / "metrics.json").read_text(), parse_constant=reject)
        error = payload["data"]["8"]["seasonal-naive"]["error"]
        assert "no test windows" in error and "seasonal-naive" in error

    @staticmethod
    def _with_key(text: str, key: str, value: str) -> str:
        """``text`` with ``key = value``: in place where it is set, else under [model]."""
        lines = text.splitlines()
        if not any(line.startswith(f"{key} =") for line in lines):
            return text.replace("[model]\n", f"[model]\n{key} = {value}\n", 1)
        return "\n".join(f"{key} = {value}" if line.startswith(f"{key} =") else line
                         for line in lines)

    @pytest.mark.parametrize("key, value, message", [
        ("val_len", "-5", "val_len and test_len must be >= 0"),
        ("horizons", "0", "horizons must be >= 1, got 0"),
        ("horizons", "", "horizons must be a non-empty list without repeats, got []"),
        ("models", ",", "models must be a non-empty list without repeats, got []"),
        ("naive_period", "0", "model 'seasonal-naive': period must be >= 1, got 0"),
        ("base_ratio", "nan", "base_ratio must lie in (0, 1], got nan"),
        ("input_size", "0", "input_size must be >= 1, got 0"),
        ("mlp_widths", "0", "mlp_widths must be positive ints, got (0,)"),
        ("pooling_mode", "bogus", "unknown pooling_mode 'bogus'"),
        ("blocks_per_stack", "0", "blocks_per_stack must be >= 1, got 0"),
        ("ratio_schedule", "0.5", "ratio_schedule lists 1 values for 2 blocks"),
    ])
    def test_error_every_cell_shares_exits_one(self, workspace, capsys, key, value, message):
        tmp_path, config, data = workspace
        bad = tmp_path / "bad.ini"
        bad.write_text(self._with_key(open(config).read(), key, value))
        assert main(["evaluate", data, "--config", str(bad), "--out", str(tmp_path / "e")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("key, value", [("models", "dmidas,seasonal-naive,dmidas"),
                                            ("horizons", "8,8")])
    def test_repeated_entry_exits_one_before_training(self, workspace, capsys, monkeypatch,
                                                      key, value):
        tmp_path, config, data = workspace
        calls = []
        real = metrics.train_ensemble
        monkeypatch.setattr(metrics, "train_ensemble",
                            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        bad = tmp_path / "bad.ini"
        bad.write_text(self._with_key(open(config).read(), key, value))
        assert main(["evaluate", data, "--config", str(bad), "--out", str(tmp_path / "e")]) == 1
        assert f"{key} " in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "e").exists()

    def test_naive_period_above_the_input_is_an_error_cell(self, workspace):
        tmp_path, config, data = workspace
        long = tmp_path / "long.ini"
        long.write_text(self._with_key(open(config).read(), "naive_period", "30"))
        out = tmp_path / "e"
        assert main(["evaluate", data, "--config", str(long), "--out", str(out)]) == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert "mae" in payload["data"]["8"]["dmidas"]
        assert "period 30 exceeds input length 24" in \
            payload["data"]["8"]["seasonal-naive"]["error"]

    def test_horizon_the_test_region_cannot_hold_is_an_error_cell(self, workspace):
        tmp_path, config, data = workspace
        wide = tmp_path / "wide.ini"
        wide.write_text(open(config).read().replace("horizons = 8", "horizons = 8,64")
                        .replace("models = dmidas,seasonal-naive", "models = seasonal-naive"))
        out = tmp_path / "e"
        assert main(["evaluate", data, "--config", str(wide), "--out", str(out)]) == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert "mae" in payload["data"]["8"]["seasonal-naive"]
        assert "no test windows" in payload["data"]["64"]["seasonal-naive"]["error"]

    def test_checkpoints_with_no_test_windows_exit_two(self, workspace, capsys):
        tmp_path, config, data = workspace
        run = tmp_path / "run"
        assert main(["train", data, "--config", config, "--out", str(run)]) == 0
        empty = tmp_path / "empty.ini"
        empty.write_text(open(config).read().replace("test_len = 32", "test_len = 0"))
        code = main(["evaluate", data, "--config", str(empty), "--out", str(tmp_path / "e"),
                     "--checkpoints", str(run / "checkpoints")])
        assert code == 2
        assert "no test windows" in capsys.readouterr().err


class TestForecastAndDecompose:
    def test_forecast_file(self, workspace):
        tmp_path, config, data = workspace
        run = tmp_path / "run"
        main(["train", data, "--config", config, "--out", str(run), "--seed", "6"])
        out = tmp_path / "fc.csv"
        assert main(["forecast", data, "--config", config, "--checkpoints",
                     str(run / "checkpoints"), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,forecast"
        assert len(lines) == 9

    def test_decompose_columns_additivity_and_smoothness(self, workspace):
        tmp_path, config, data = workspace
        run = tmp_path / "run"
        main(["train", data, "--config", config, "--out", str(run), "--seed", "7"])
        out = tmp_path / "dec.csv"
        assert main(["decompose", data, "--config", config, "--checkpoint",
                     str(run / "checkpoints" / "member_0.npz"),
                     "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "t,forecast,component_1,component_2"
        forecast, comps = load_decomposition_csv(out)
        assert np.max(np.abs(np.sum(comps, axis=0) - forecast)) < 1e-9
        # knot bounds: blocks have ratios 0.5 and 0.25 of horizon 8
        for comp, knots in zip(comps, (4, 2)):
            d2 = comp[2:] - 2 * comp[1:-1] + comp[:-2]
            assert int(np.sum(np.abs(d2) > 1e-9)) <= knots - 1

    def test_checkpoint_missing_an_array_exits_one(self, workspace, capsys):
        tmp_path, config, data = workspace
        run = tmp_path / "run"
        main(["train", data, "--config", config, "--out", str(run), "--seed", "6"])
        ckpt = run / "checkpoints" / "member_0.npz"
        with np.load(ckpt) as npz:
            arrays = {k: npz[k] for k in npz.files if k != "p:s0.b0.mlp0.weight"}
        with open(ckpt, "wb") as handle:  # the metadata still names the array
            np.savez(handle, **arrays)
        out = tmp_path / "fc.csv"
        assert main(["forecast", data, "--config", config, "--checkpoints",
                     str(run / "checkpoints"), "--out", str(out)]) == 1
        assert "s0.b0.mlp0.weight" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_member_is_named(self, workspace, capsys):
        tmp_path, config, data = workspace
        mlp = tmp_path / "mlp.ini"
        mlp.write_text(open(config).read().replace("kind = dmidas", "kind = mlp"))
        run = tmp_path / "run"
        assert main(["train", data, "--config", str(mlp), "--out", str(run)]) == 0
        ckpt = run / "checkpoints" / "member_1.npz"
        with np.load(ckpt) as npz:
            arrays = {k: npz[k] for k in npz.files if k != "p:out.bias"}
        with open(ckpt, "wb") as handle:  # the metadata still names the array
            np.savez(handle, **arrays)
        out = tmp_path / "fc.csv"
        assert main(["forecast", data, "--config", str(mlp), "--checkpoints",
                     str(run / "checkpoints"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"'{ckpt}': checkpoint parameter 'out.bias' has no array" in err
        assert not out.exists()

    @pytest.mark.parametrize("damage", ["text", "truncated"])
    def test_unreadable_checkpoint_exit_two(self, workspace, capsys, damage):
        tmp_path, config, data = workspace
        run = tmp_path / "run"
        main(["train", data, "--config", config, "--out", str(run), "--seed", "6"])
        ckpt = run / "checkpoints" / "member_0.npz"
        if damage == "text":
            ckpt.write_text("hello\n")
        else:
            ckpt.write_bytes(ckpt.read_bytes()[:100])
        out = tmp_path / "fc.csv"
        assert main(["forecast", data, "--config", config, "--checkpoints",
                     str(run / "checkpoints"), "--out", str(out)]) == 2
        assert "member_0.npz" in capsys.readouterr().err
        assert not out.exists()

    def test_npy_file_as_checkpoint_exits_one(self, workspace, capsys):
        tmp_path, config, data = workspace
        run = tmp_path / "run"
        main(["train", data, "--config", config, "--out", str(run), "--seed", "6"])
        with open(run / "checkpoints" / "member_0.npz", "wb") as handle:
            np.save(handle, np.arange(3.0))
        out = tmp_path / "fc.csv"
        assert main(["forecast", data, "--config", config, "--checkpoints",
                     str(run / "checkpoints"), "--out", str(out)]) == 1
        assert "member_0.npz" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("ratio_schedule", "linear"),
                                            ("pooling_schedule", "x")])
    def test_checkpoint_with_unknown_schedule_exits_one(self, workspace, capsys, key, value):
        tmp_path, config, data = workspace
        run = tmp_path / "run"
        main(["train", data, "--config", config, "--out", str(run), "--seed", "6"])
        ckpt = run / "checkpoints" / "member_0.npz"
        with np.load(ckpt) as npz:
            meta = json.loads(bytes(npz["__meta__"]).decode())
            arrays = {k: npz[k] for k in npz.files if k != "__meta__"}
        meta["config"][key] = value
        with open(ckpt, "wb") as handle:
            np.savez(handle, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                     **arrays)
        out = tmp_path / "fc.csv"
        assert main(["forecast", data, "--config", config, "--checkpoints",
                     str(run / "checkpoints"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "Traceback" not in err
        assert "member_0.npz" in err and f"'{value}'" in err
        assert not out.exists()

    def test_window_selector_out_of_range(self, workspace):
        tmp_path, config, data = workspace
        run = tmp_path / "run"
        main(["train", data, "--config", config, "--out", str(run), "--seed", "8"])
        code = main(["forecast", data, "--config", config, "--checkpoints",
                     str(run / "checkpoints"), "--window", "99",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1


class TestSearch:
    def test_trials_and_best_config(self, workspace):
        tmp_path, config, data = workspace
        out = tmp_path / "search"
        assert main(["search", data, "--config", config, "--budget", "2",
                     "--out", str(out), "--seed", "11"]) == 0
        lines = (out / "trials.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2
        best_path = out / "best_config.ini"
        assert best_path.exists()
        best = load_run_config(best_path)
        assert float(best.get("training", "lr")) > 0

    def test_replay_reproduces_logged_mae(self, workspace):
        tmp_path, config, data = workspace
        out = tmp_path / "search2"
        assert main(["search", data, "--config", config, "--budget", "2",
                     "--out", str(out), "--seed", "12"]) == 0
        trials = [json.loads(l) for l in
                  (out / "trials.jsonl").read_text().strip().splitlines()]
        best = min((t for t in trials if t["status"] == "ok"),
                   key=lambda t: t["val_mae"])
        run_cfg = load_run_config(config)
        dataset = load_csv(data, name="data")
        objective = search_objective(run_cfg, dataset)
        replayed = objective(best["config"], best["seed"])
        assert abs(replayed - best["val_mae"]) < 1e-9

    def test_best_config_replays_the_winning_trial(self, workspace):
        tmp_path, config, data = workspace
        one = tmp_path / "one.ini"
        one.write_text(open(config).read().replace("n_members = 2", "n_members = 1"))
        out = tmp_path / "search"
        assert main(["search", data, "--config", str(one), "--budget", "2",
                     "--out", str(out), "--seed", "12", "--jobs", "2"]) == 0
        trials = [json.loads(l) for l in
                  (out / "trials.jsonl").read_text().strip().splitlines()]
        best = min((t for t in trials if t["status"] == "ok"), key=lambda t: t["val_mae"])
        assert _resolved_run(out / "best_config.ini") == {"seed": str(best["seed"]),
                                                          "jobs": "2"}
        run = tmp_path / "replay"
        assert main(["train", data, "--config", str(out / "best_config.ini"),
                     "--out", str(run)]) == 0
        rows = (run / "history" / "member_0.csv").read_text().strip().splitlines()[1:]
        assert min(float(r.split(",")[2]) for r in rows) == best["val_mae"]

    def test_budget_zero_exit_one(self, workspace):
        tmp_path, config, data = workspace
        code = main(["search", data, "--config", config, "--budget", "0",
                     "--out", str(tmp_path / "s")])
        assert code == 1


class TestParamCount:
    def test_flagship_totals_printed(self, tmp_path, capsys):
        config = tmp_path / "pc.ini"
        config.write_text("[model]\nkind = dmidas\ninput_size = 288\nhorizon = 96\n"
                          "stacks = 1\nblocks_per_stack = 3\nbase_ratio = 0.5\n")
        assert main(["param-count", "--config", str(config)]) == 0
        text = capsys.readouterr().out
        assert "84 vs 288" in text
        assert "70.8% reduction" in text
        assert "geometric closed form" in text and "84" in text

    def test_ratio_one_zero_reduction(self, tmp_path, capsys):
        config = tmp_path / "pc.ini"
        config.write_text("[model]\nkind = dmidas\ninput_size = 24\nhorizon = 8\n"
                          "blocks_per_stack = 2\nbase_ratio = 1.0\n"
                          "pooling_schedule = 1\n")
        assert main(["param-count", "--config", str(config)]) == 0
        text = capsys.readouterr().out
        assert "(0.0% reduction)" in text
