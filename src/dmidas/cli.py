"""Command-line entry point: generate, train, evaluate, forecast, decompose,
search and param-count, all deterministic under --seed.

Run configuration is flat INI (sections data/model/training/ensemble/
evaluation/search) with unknown keys rejected; every command writes the
resolved configuration next to its outputs. Exit codes: 0 success, 1
configuration error, 2 data error, 3 training or runtime error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import metrics as metrics_mod
from . import search as search_mod
from .errors import ConfigError, DataError, DmidasError, NumericsError, TrainingError
from .model import (build_any, count_parameters, generic_twin, load_checkpoint,
                    save_checkpoint)
from .search import default_search_space
from .training import (EnsembleConfig, TrainConfig, denormalize_forecast,
                       ensemble_forecast, ensemble_forecast_batch, prepared_windows,
                       split_tail, train, train_ensemble, write_history_csv)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3

# section -> key -> default (as INI text)
CONFIG_SCHEMA = {
    "run": {
        "seed": "0",
        "jobs": "1",
    },
    "data": {
        "id_column": "id",
        "time_column": "time",
        "value_column": "value",
        "delimiter": ",",
    },
    "model": {
        "kind": "dmidas",
        "input_size": "288",
        "horizon": "96",
        "stacks": "1",
        "blocks_per_stack": "3",
        "mlp_widths": "512,512",
        "base_ratio": "0.5",
        "ratio_schedule": "exponential",
        "pooling_schedule": "auto",
        "pooling_mode": "avg",
        "poly_degree": "2",
        "n_harmonics": "4",
        "shared_weights": "false",
    },
    "training": {
        "lr": "1e-3",
        "iterations": "1000",
        "batch_size": "128",
        "l1_lambda": "0",
        "early_stop_patience": "10",
        "eval_every": "100",
        "loss": "mae",
        "normalization": "per-series-median",
    },
    "ensemble": {
        "n_members": "4",
        "member_seeds": "",
    },
    "evaluation": {
        "horizons": "96",
        "val_len": "480",
        "test_len": "960",
        "models": "dmidas,seasonal-naive",
        "naive_period": "168",
        "scope": "global",
    },
    "search": {
        "budget": "16",
    },
}

MODEL_KINDS = ("dmidas", "nbeats-g", "nbeats-i", "mlp")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as configuration errors (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


@dataclass
class RunConfig:
    """A parsed and validated run configuration file."""

    sections: dict

    def get(self, section: str, key: str) -> str:
        return self.sections[section][key]

    def getint(self, section: str, key: str) -> int:
        return int(self.get(section, key))

    def getfloat(self, section: str, key: str) -> float:
        return float(self.get(section, key))

    def int_list(self, section: str, key: str) -> list[int]:
        text = self.get(section, key).strip()
        return [int(x) for x in text.split(",") if x.strip()] if text else []


def load_run_config(path) -> RunConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file '{path}'")
    sections = {name: dict(defaults) for name, defaults in CONFIG_SCHEMA.items()}
    for section in parser.sections():
        if section not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in CONFIG_SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            sections[section][key] = value
    return RunConfig(sections=sections)


def default_run_config() -> RunConfig:
    return RunConfig(sections={name: dict(defaults)
                               for name, defaults in CONFIG_SCHEMA.items()})


def write_resolved_config(config: RunConfig, path, seed: int, jobs: int) -> None:
    parser = configparser.ConfigParser()
    for section, keys in config.sections.items():
        parser[section] = dict(keys)
    parser["run"]["seed"] = str(seed)
    parser["run"]["jobs"] = str(jobs)
    with open(path, "w", encoding="utf-8") as handle:
        parser.write(handle)


def resolve_seed(args, config: RunConfig | None = None) -> int:
    """--seed wins; otherwise the config's [run] seed; otherwise 0."""
    if args.seed is not None:
        return args.seed
    if config is not None:
        return config.getint("run", "seed")
    return 0


def _model_spec_from_config(config: RunConfig, name: str) -> metrics_mod.ModelSpec:
    if name == "seasonal-naive":
        return metrics_mod.ModelSpec(name=name, kind="seasonal-naive",
                                     params={"period": config.getint("evaluation", "naive_period")})
    if name not in MODEL_KINDS:
        raise ConfigError(f"unknown model '{name}', expected one of "
                          f"{MODEL_KINDS + ('seasonal-naive',)}")
    params = {
        "stacks": config.getint("model", "stacks"),
        "blocks_per_stack": config.getint("model", "blocks_per_stack"),
        "mlp_widths": tuple(config.int_list("model", "mlp_widths")),
        "base_ratio": config.getfloat("model", "base_ratio"),
        "pooling_mode": config.get("model", "pooling_mode"),
        "poly_degree": config.getint("model", "poly_degree"),
        "n_harmonics": config.getint("model", "n_harmonics"),
        "input_size": config.getint("model", "input_size"),
        "shared_weights": config.get("model", "shared_weights").lower()
        in ("1", "true", "yes"),
    }
    sched = config.get("model", "ratio_schedule")
    params["ratio_schedule"] = sched if sched == "exponential" else tuple(
        float(x) for x in sched.split(","))
    pooling = config.get("model", "pooling_schedule")
    if pooling == "auto":
        params["pooling_schedule"] = "auto"
    elif "," in pooling:
        params["pooling_schedule"] = tuple(int(x) for x in pooling.split(","))
    else:
        params["pooling_schedule"] = int(pooling)
    return metrics_mod.ModelSpec(name=name, kind=name, params=params)


def _model_config_from_run(config: RunConfig):
    spec = _model_spec_from_config(config, config.get("model", "kind"))
    input_size = config.getint("model", "input_size")
    horizon = config.getint("model", "horizon")
    return metrics_mod.model_config_for(spec, input_size, horizon)


def _train_config_from_run(config: RunConfig, seed: int) -> TrainConfig:
    return TrainConfig(
        lr=config.getfloat("training", "lr"),
        iterations=config.getint("training", "iterations"),
        batch_size=config.getint("training", "batch_size"),
        l1_lambda=config.getfloat("training", "l1_lambda"),
        early_stop_patience=config.getint("training", "early_stop_patience"),
        eval_every=config.getint("training", "eval_every"),
        seed=seed,
        loss_kind=config.get("training", "loss"),
        normalization=config.get("training", "normalization"),
    )


def _ensemble_from_run(config: RunConfig) -> EnsembleConfig:
    seeds = config.int_list("ensemble", "member_seeds")
    return EnsembleConfig(n_members=config.getint("ensemble", "n_members"),
                          member_seeds=seeds or None)


def _schema_from_run(config: RunConfig) -> data_mod.CsvSchema:
    return data_mod.CsvSchema(
        id_column=config.get("data", "id_column"),
        value_column=config.get("data", "value_column"),
        time_column=config.get("data", "time_column") or None,
        delimiter=config.get("data", "delimiter"),
    )


def _windows(config: RunConfig, dataset, part: str, input_size: int, horizon: int):
    """One part of the run config's tail split, windowed and normalized."""
    split = split_tail(dataset, config.getint("evaluation", "val_len"),
                       config.getint("evaluation", "test_len"))
    return prepared_windows(split, part, input_size, horizon,
                            config.get("training", "normalization"))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    name = args.spec
    if name in data_mod.PRESETS:
        spec = data_mod.PRESETS[name]()
    elif Path(name).is_file():
        with open(name, encoding="utf-8") as handle:
            raw = json.load(handle)
        components = []
        for comp in raw.get("components", []):
            kind = comp.get("kind")
            if kind == "sinusoid":
                components.append(data_mod.Sinusoid(comp["period"],
                                                    comp.get("amplitude", 1.0),
                                                    comp.get("phase", 0.0)))
            elif kind == "linear_trend":
                components.append(data_mod.LinearTrend(comp["slope"]))
            elif kind == "noise":
                components.append(data_mod.GaussianNoise(comp["sigma"]))
            else:
                raise ConfigError(f"unknown component kind '{kind}' in '{name}'")
        spec = data_mod.SyntheticSpec(length=raw["length"], components=tuple(components),
                                      seed=raw.get("seed", 0),
                                      name=raw.get("name", "synthetic"))
    else:
        raise ConfigError(f"unknown preset '{name}'; available presets: "
                          f"{sorted(data_mod.PRESETS)}")
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    dataset = data_mod.generate_synthetic(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    data_mod.save_dataset_csv(dataset, out)
    with open(str(out) + ".resolved", "w", encoding="utf-8") as handle:
        json.dump({"spec": spec.name, "length": spec.length, "seed": spec.seed},
                  handle, sort_keys=True)
        handle.write("\n")
    print(f"wrote {sum(len(s.values) for s in dataset)} rows to {out}")
    return EXIT_OK


def _load_dataset(args, config: RunConfig):
    path = Path(args.data)
    if not path.is_file():
        raise DataError(f"data file '{path}' does not exist")
    return data_mod.load_csv(path, _schema_from_run(config), name=path.stem)


def cmd_train(args) -> int:
    config = load_run_config(args.config)
    seed = resolve_seed(args, config)
    dataset = _load_dataset(args, config)
    shape = config.getint("model", "input_size"), config.getint("model", "horizon")
    train_n = _windows(config, dataset, "train", *shape)
    val_n = _windows(config, dataset, "val", *shape)

    model_config = _model_config_from_run(config)
    train_cfg = _train_config_from_run(config, seed)
    members = train_ensemble(model_config, train_n, val_n, train_cfg,
                             _ensemble_from_run(config), jobs=args.jobs)

    out = Path(args.out)
    (out / "checkpoints").mkdir(parents=True, exist_ok=True)
    (out / "history").mkdir(parents=True, exist_ok=True)
    write_resolved_config(config, out / "config.resolved", seed, args.jobs)
    for k, member in enumerate(members):
        save_checkpoint(member.model, out / "checkpoints" / f"member_{k}.npz")
        write_history_csv(member.result.history, out / "history" / f"member_{k}.csv")
    best = min(m.result.best_val_mae for m in members)
    print(f"trained {len(members)} members; best member validation MAE {best:.6g}")
    print(f"outputs in {out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = load_run_config(args.config)
    seed = resolve_seed(args, config)
    dataset = _load_dataset(args, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_resolved_config(config, out / "config.resolved", seed, args.jobs)

    if args.checkpoints:
        report = _evaluate_checkpoints(args, config, dataset)
    else:
        model_names = [m.strip() for m in config.get("evaluation", "models").split(",")
                       if m.strip()]
        specs = [_model_spec_from_config(config, name) for name in model_names]
        protocol = metrics_mod.BenchmarkProtocol(
            val_len=config.getint("evaluation", "val_len"),
            test_len=config.getint("evaluation", "test_len"),
            train=_train_config_from_run(config, seed),
            ensemble=_ensemble_from_run(config),
            scope=config.get("evaluation", "scope"),
        )
        horizons = config.int_list("evaluation", "horizons")
        report = metrics_mod.run_benchmark(dataset, specs, horizons, protocol,
                                           seed=seed, jobs=args.jobs)
    data_mod.export_results(report, out / "metrics.json", "json")
    table = metrics_mod.render_table(report)
    with open(out / "metrics.txt", "w", encoding="utf-8") as handle:
        handle.write(table + "\n")
    print(table)
    return EXIT_OK


def _load_members(checkpoint_dir) -> list:
    directory = Path(checkpoint_dir)
    if directory.is_file():
        return [load_checkpoint(directory)]
    if not directory.is_dir():
        raise DataError(f"checkpoint path '{directory}' does not exist")
    files = sorted(directory.glob("member_*.npz"))
    if not files:
        raise DataError(f"no member_*.npz checkpoints under '{directory}'")
    return [load_checkpoint(f) for f in files]


def _evaluate_checkpoints(args, config: RunConfig, dataset) -> metrics_mod.MetricsReport:
    members = _load_members(args.checkpoints)
    horizon = members[0].horizon
    test_n = _windows(config, dataset, "test", members[0].input_size, horizon)
    fc = ensemble_forecast_batch(members, np.stack([w.input for w in test_n]))
    entry = metrics_mod.score_windows(test_n, fc, dataset.name, horizon,
                                      config.get("model", "kind"))
    return metrics_mod.MetricsReport(entries=[entry])


def _select_test_window(config: RunConfig, dataset, input_size: int, horizon: int,
                        index: int, series_id: str | None):
    windows = _windows(config, dataset, "test", input_size, horizon)
    if series_id is not None:
        windows = [w for w in windows if w.series_id == series_id]
        if not windows:
            raise DataError(f"no test windows for series '{series_id}'")
    if not -len(windows) <= index < len(windows):
        raise ConfigError(f"window selector {index} out of range "
                          f"(have {len(windows)} test windows)")
    return windows[index]


def cmd_forecast(args) -> int:
    config = load_run_config(args.config)
    dataset = _load_dataset(args, config)
    members = _load_members(args.checkpoints)
    window = _select_test_window(config, dataset, members[0].input_size,
                                 members[0].horizon, args.window, args.series)
    yhat = denormalize_forecast(window, ensemble_forecast(members, window.input))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        handle.write("t,forecast\n")
        for t, v in enumerate(yhat):
            handle.write(f"{t},{repr(float(v))}\n")
    write_resolved_config(config, str(out) + ".resolved", resolve_seed(args, config), args.jobs)
    print(f"wrote {len(yhat)}-step forecast to {out}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    config = load_run_config(args.config)
    dataset = _load_dataset(args, config)
    model = load_checkpoint(args.checkpoint)
    window = _select_test_window(config, dataset, model.input_size, model.horizon,
                                 args.window, args.series)
    bundle = model.decompose(window.input)
    # Components are rescaled to series units; the per-window offset (if the
    # normalization uses one) is not distributable across blocks and is left out,
    # so the file's component sum always equals its forecast column.
    bundle.forecast = bundle.forecast * window.scale
    bundle.components = [c * window.scale for c in bundle.components]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    data_mod.export_results(bundle, out, "csv")
    write_resolved_config(config, str(out) + ".resolved", resolve_seed(args, config), args.jobs)
    print(f"wrote decomposition with {len(bundle.components)} components to {out}")
    return EXIT_OK


def search_objective(config: RunConfig, dataset):
    """Objective for random search: train one model, return validation MAE."""
    base_spec = _model_spec_from_config(config, config.get("model", "kind"))
    input_size = config.getint("model", "input_size")
    horizon = config.getint("model", "horizon")
    train_n = _windows(config, dataset, "train", input_size, horizon)
    val_n = _windows(config, dataset, "val", input_size, horizon)

    def objective(assignment: dict, trial_seed: int) -> float:
        params = dict(base_spec.params)
        if "mlp_width" in assignment:
            w = int(assignment["mlp_width"])
            params["mlp_widths"] = (w, w)
        if "blocks_per_stack" in assignment:
            params["blocks_per_stack"] = int(assignment["blocks_per_stack"])
        if "base_ratio" in assignment:
            params["base_ratio"] = float(assignment["base_ratio"])
        spec = metrics_mod.ModelSpec(base_spec.name, base_spec.kind, params)
        model_config = metrics_mod.model_config_for(spec, input_size, horizon)
        lam = float(assignment.get("l1_lambda", 0.0)) * float(assignment.get("l1_enabled", 1))
        train_cfg = replace(_train_config_from_run(config, trial_seed),
                            lr=float(assignment.get("lr", config.getfloat("training", "lr"))),
                            l1_lambda=lam)
        model = build_any(model_config, trial_seed)
        result = train(model, train_n, val_n, train_cfg)
        return result.best_val_mae

    return objective


def cmd_search(args) -> int:
    config = load_run_config(args.config)
    seed = resolve_seed(args, config)
    budget = args.budget if args.budget is not None else config.getint("search", "budget")
    dataset = _load_dataset(args, config)
    objective = search_objective(config, dataset)
    result = search_mod.random_search(default_search_space(), budget, objective,
                                      seed=seed, jobs=args.jobs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_resolved_config(config, out / "config.resolved", seed, args.jobs)
    search_mod.write_trial_log(result.trials, out / "trials.jsonl")

    best = result.best
    best_config = RunConfig(sections={s: dict(k) for s, k in config.sections.items()})
    width = int(best.config["mlp_width"])
    best_config.sections["model"]["mlp_widths"] = f"{width},{width}"
    best_config.sections["model"]["blocks_per_stack"] = str(int(best.config["blocks_per_stack"]))
    best_config.sections["model"]["base_ratio"] = repr(float(best.config["base_ratio"]))
    best_config.sections["training"]["lr"] = repr(float(best.config["lr"]))
    lam = float(best.config["l1_lambda"]) * float(best.config["l1_enabled"])
    best_config.sections["training"]["l1_lambda"] = repr(lam)
    write_resolved_config(best_config, out / "best_config.ini", best.seed, args.jobs)
    print(f"best trial {best.index}: validation MAE {best.val_mae:.6g} "
          f"(seed {best.seed}); config written to {out / 'best_config.ini'}")
    return EXIT_OK


def cmd_param_count(args) -> int:
    config = load_run_config(args.config) if args.config else default_run_config()
    model_config = _model_config_from_run(config)
    model = build_any(model_config, seed=0)
    report = count_parameters(model)
    print("configured model")
    print(report.render())
    if hasattr(model_config, "stacks"):
        twin = build_any(generic_twin(model_config), seed=0)
        twin_report = count_parameters(twin)
        print()
        print("generic twin (expressivity 1, pooling kernel 1)")
        print(twin_report.render())
        knots = report.forecast_theta_total
        full = twin_report.forecast_theta_total
        reduction = 100.0 * (1.0 - knots / full) if full else 0.0
        total_reduction = 100.0 * (1.0 - report.total / twin_report.total)
        print()
        print(f"forecast coefficient outputs: {knots} vs {full} "
              f"({reduction:.1f}% reduction)")
        print(f"whole-model parameter total: {report.total} vs {twin_report.total} "
              f"({total_reduction:.1f}% reduction)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="dmidas", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, config_required=True, needs_out=True):
        p.add_argument("--config", required=config_required, help="run config file (INI)")
        p.add_argument("--seed", type=int, default=None, help="root random seed")
        p.add_argument("--jobs", type=int, default=1, help="parallel workers")
        if needs_out:
            p.add_argument("--out", required=True, help="output path")

    p = sub.add_parser("generate", help="write a synthetic dataset CSV")
    p.add_argument("spec", help="preset name or synthetic spec JSON file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train an ensemble and write checkpoints")
    p.add_argument("data", help="dataset CSV")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="benchmark models and write metric reports")
    p.add_argument("data", help="dataset CSV")
    p.add_argument("--checkpoints", default=None,
                   help="evaluate existing checkpoints instead of train-and-evaluate")
    common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("forecast", help="forecast one test window from checkpoints")
    p.add_argument("data", help="dataset CSV")
    p.add_argument("--checkpoints", required=True, help="checkpoint file or directory")
    p.add_argument("--window", type=int, default=-1, help="test window index")
    p.add_argument("--series", default=None, help="series id (default: all)")
    common(p)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("decompose", help="export a per-block forecast decomposition")
    p.add_argument("data", help="dataset CSV")
    p.add_argument("--checkpoint", required=True, help="one member checkpoint")
    p.add_argument("--window", type=int, default=-1, help="test window index")
    p.add_argument("--series", default=None, help="series id (default: all)")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("search", help="random hyperparameter search")
    p.add_argument("data", help="dataset CSV")
    p.add_argument("--budget", type=int, default=None, help="number of trials")
    common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("param-count", help="parameter breakdown and twin comparison")
    p.add_argument("--config", default=None, help="run config file (INI)")
    p.set_defaults(func=cmd_param_count)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingError, NumericsError) as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DmidasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
