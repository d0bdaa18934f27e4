"""End-to-end CLI behavior: files, determinism, exit codes."""

import json

import numpy as np
import pytest

from dmidas.cli import load_run_config, main, search_objective
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


class TestJobsOption:
    @pytest.mark.parametrize("command", ["train", "evaluate", "evaluate --checkpoints",
                                         "forecast", "decompose", "search"])
    def test_jobs_zero_exit_one(self, workspace, capsys, command):
        tmp_path, config, data = workspace
        run = tmp_path / "run"
        assert main(["train", data, "--config", config, "--out", str(run)]) == 0
        extra = {
            "evaluate --checkpoints": ["--checkpoints", str(run / "checkpoints")],
            "forecast": ["--checkpoints", str(run / "checkpoints")],
            "decompose": ["--checkpoint", str(run / "checkpoints" / "member_0.npz")],
            "search": ["--budget", "1"],
        }.get(command, [])
        out = tmp_path / "out"
        capsys.readouterr()
        code = main([command.split()[0], data, "--config", config, "--out", str(out),
                     "--jobs", "0", *extra])
        assert code == 1
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert list(tmp_path.glob("out*")) == []


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
