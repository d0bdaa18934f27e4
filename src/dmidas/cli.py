"""Command-line entry point: generate, train, evaluate, forecast, decompose,
search and param-count, all deterministic under --seed.

Run configuration is flat INI (sections run/data/model/training/ensemble/
evaluation/search) with unknown keys rejected and every key parsed as its type
on load; --seed and --jobs override [run]. Every command writes the resolved
configuration next to its outputs.
Exit codes: 0 success, 1 configuration error, 2 data error, 3 training or
runtime error.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import operator
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import metrics as metrics_mod
from . import search as search_mod
from .errors import ConfigError, DataError, DmidasError, NumericsError, TrainingError
from .model import (build_any, count_parameters, generic_twin, load_checkpoint,
                    save_checkpoint)
from .training import (EnsembleConfig, TrainConfig, denormalize_forecast,
                       ensemble_forecast, ensemble_forecast_batch, parallel_map,
                       prepared_windows, split_tail, train, train_ensemble,
                       write_history_csv)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


def _boolean(text: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip())


def _seeds(text: str) -> tuple[int, ...] | None:
    return _ints(text) or None


def _names(text: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in text.split(",") if x.strip())


def _ratio_schedule(text: str):
    return text if text == "exponential" else tuple(
        float(x) for x in text.split(",") if x.strip())


def _pooling_schedule(text: str):
    if text == "auto":
        return text
    return _ints(text) if "," in text else int(text)


# what a converter's ValueError or LookupError means
_EXPECTED = {
    int: "an integer",
    float: "a number",
    _boolean: "a boolean",
    _ints: "a comma-separated list of ints",
    _seeds: "a comma-separated list of ints",
    _ratio_schedule: "'exponential' or a comma-separated list of numbers",
    _pooling_schedule: "'auto', an integer or a comma-separated list of ints",
}


def _ini_text(value) -> str:
    """A [model] default as the INI text its converter reads back (False as false)."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value).lower()


_SPEC_DEFAULTS = {f.name: f.default for f in fields(metrics_mod.ModelSpec)}

# section -> key -> (default as INI text, converter to the key's type)
CONFIG_SCHEMA = {
    "run": {
        "seed": ("0", int),
        "jobs": ("1", int),
    },
    "data": {
        "id_column": ("id", str),
        "time_column": ("time", lambda text: text or None),
        "value_column": ("value", str),
        "delimiter": (",", str),
    },
    "model": {
        "kind": ("dmidas", str),
        "input_size": ("288", int),
        "horizon": ("96", int),
        **{key: (_ini_text(_SPEC_DEFAULTS[key]), convert) for key, convert in (
            ("stacks", int), ("blocks_per_stack", int), ("mlp_widths", _ints),
            ("base_ratio", float), ("ratio_schedule", _ratio_schedule),
            ("pooling_schedule", _pooling_schedule), ("pooling_mode", str),
            ("poly_degree", int), ("n_harmonics", int), ("shared_weights", _boolean))},
    },
    "training": {
        "lr": ("1e-3", float),
        "iterations": ("1000", int),
        "batch_size": ("128", int),
        "l1_lambda": ("0", float),
        "early_stop_patience": ("10", int),
        "eval_every": ("100", int),
        "loss": ("mae", str),
        "normalization": ("per-series-median", str),
    },
    "ensemble": {
        "n_members": ("4", int),
        "member_seeds": ("", _seeds),
    },
    "evaluation": {
        "horizons": ("96", _ints),
        "val_len": ("480", int),
        "test_len": ("960", int),
        "models": ("dmidas,seasonal-naive", _names),
        "naive_period": ("168", int),
        "scope": ("global", str),
    },
    "search": {
        "budget": ("16", int),
    },
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as configuration errors (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


@dataclass
class RunConfig:
    """A run configuration as INI text; ``value`` reads a key as its schema type."""

    sections: dict

    def value(self, section: str, key: str):
        text = self.sections[section][key]
        convert = CONFIG_SCHEMA[section][key][1]
        try:
            return convert(text)
        except (ValueError, LookupError):
            raise ConfigError(f"[{section}] {key} = {text} is not "
                              f"{_EXPECTED[convert]}") from None

    def build(self, cls, section: str, **overrides):
        """``cls`` from the keys of ``section`` that name its fields, then ``overrides``."""
        names = {f.name for f in fields(cls)}
        values = {key: self.value(section, key) for key in self.sections[section]
                  if key in names}
        return cls(**{**values, **overrides})


def load_run_config(path) -> RunConfig:
    """Read ``path`` over the defaults; every key must parse as its type."""
    parser = configparser.ConfigParser()
    config = default_run_config()
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file '{path}'")
        for section in parser.sections():
            if section not in CONFIG_SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, value in parser.items(section):
                if key not in CONFIG_SCHEMA[section]:
                    raise ConfigError(f"unknown key '{key}' in section [{section}]")
                config.sections[section][key] = value
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file '{path}': {exc}") from None
    for section, keys in config.sections.items():
        for key in keys:
            config.value(section, key)
    return config


def default_run_config() -> RunConfig:
    return RunConfig(sections={name: {key: default for key, (default, _) in keys.items()}
                               for name, keys in CONFIG_SCHEMA.items()})


def _run_config(args) -> RunConfig:
    """--config with [run] seed and jobs resolved: the flag, else the file, else the default."""
    config = load_run_config(args.config)
    for key in ("seed", "jobs"):
        flag = getattr(args, key)
        config.sections["run"][key] = str(config.value("run", key) if flag is None else flag)
    if config.value("run", "seed") < 0:
        raise ConfigError(f"seed must be >= 0, got {config.value('run', 'seed')}")
    if config.value("run", "jobs") < 1:
        raise ConfigError(f"jobs must be >= 1, got {config.value('run', 'jobs')}")
    return config


def write_resolved_config(config: RunConfig, path) -> None:
    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in config.sections.items():  # '%' escaped, so it reads back as it was
        parser[section] = {key: value.replace("%", "%%") for key, value in keys.items()}
    with open(path, "w", encoding="utf-8") as handle:
        parser.write(handle)


def _model_config(config: RunConfig):
    """The buildable config of the [model] section."""
    kind = config.value("model", "kind")
    spec = config.build(metrics_mod.ModelSpec, "model", name=kind)
    return metrics_mod.model_config_for(spec, spec.input_size, config.value("model", "horizon"))


def _train_config(config: RunConfig, seed: int) -> TrainConfig:
    return config.build(TrainConfig, "training", loss_kind=config.value("training", "loss"),
                        seed=seed)


def _windows(config: RunConfig, dataset, part: str, input_size: int, horizon: int):
    """One part of the run config's tail split, windowed and normalized."""
    split = split_tail(dataset, config.value("evaluation", "val_len"),
                       config.value("evaluation", "test_len"))
    return prepared_windows(split, part, input_size, horizon,
                            config.value("training", "normalization"))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _spec_from_file(name) -> data_mod.SyntheticSpec:
    """A synthetic spec JSON file; a malformed one is a ConfigError naming the file."""
    try:
        with open(name, encoding="utf-8") as handle:
            raw = json.load(handle)
        components = []
        for comp in raw.get("components", []):
            kind = comp.get("kind")
            if kind == "sinusoid":
                components.append(data_mod.Sinusoid(float(comp["period"]),
                                                    float(comp.get("amplitude", 1.0)),
                                                    float(comp.get("phase", 0.0))))
            elif kind == "linear_trend":
                components.append(data_mod.LinearTrend(float(comp["slope"])))
            elif kind == "noise":
                components.append(data_mod.GaussianNoise(float(comp["sigma"])))
            else:
                raise ConfigError(f"unknown component kind '{kind}' in '{name}'")
        return data_mod.SyntheticSpec(length=operator.index(raw["length"]),
                                      components=tuple(components),
                                      seed=operator.index(raw.get("seed", 0)),
                                      name=raw.get("name", "synthetic"))
    except KeyError as exc:
        raise ConfigError(f"synthetic spec '{name}' is missing key {exc}") from None
    except (ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(f"malformed synthetic spec '{name}': {exc}") from None


def cmd_generate(args) -> int:
    name = args.spec
    if name in data_mod.PRESETS:
        spec = data_mod.PRESETS[name]()
    elif Path(name).is_file():
        spec = _spec_from_file(name)
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
    return data_mod.load_csv(path, config.build(data_mod.CsvSchema, "data"), name=path.stem)


def cmd_train(args) -> int:
    config = _run_config(args)
    model_config = _model_config(config)
    train_cfg = _train_config(config, config.value("run", "seed"))
    ensemble = config.build(EnsembleConfig, "ensemble")
    dataset = _load_dataset(args, config)
    shape = model_config.input_size, model_config.horizon
    train_n = _windows(config, dataset, "train", *shape)
    val_n = _windows(config, dataset, "val", *shape)
    members = train_ensemble(model_config, train_n, val_n, train_cfg, ensemble)

    out = Path(args.out)
    (out / "checkpoints").mkdir(parents=True, exist_ok=True)
    (out / "history").mkdir(parents=True, exist_ok=True)
    write_resolved_config(config, out / "config.resolved")
    for k, member in enumerate(members):
        save_checkpoint(member.model, out / "checkpoints" / f"member_{k}.npz")
        write_history_csv(member.result.history, out / "history" / f"member_{k}.csv")
    best = min(m.result.best_val_mae for m in members)
    print(f"trained {len(members)} members; best member validation MAE {best:.6g}")
    print(f"outputs in {out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = _run_config(args)
    dataset = _load_dataset(args, config)
    if args.checkpoints:
        report = _evaluate_checkpoints(args, config, dataset)
    else:
        seed = config.value("run", "seed")
        period = config.value("evaluation", "naive_period")
        specs = [metrics_mod.ModelSpec(name, name, period=period) if name == "seasonal-naive"
                 else config.build(metrics_mod.ModelSpec, "model", name=name, kind=name)
                 for name in config.value("evaluation", "models")]
        protocol = config.build(metrics_mod.BenchmarkProtocol, "evaluation",
                                train=_train_config(config, seed),
                                ensemble=config.build(EnsembleConfig, "ensemble"))
        report = metrics_mod.run_benchmark(dataset, specs, config.value("evaluation", "horizons"),
                                           protocol, seed=seed, jobs=config.value("run", "jobs"))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_resolved_config(config, out / "config.resolved")
    data_mod.write_metrics_json(report, out / "metrics.json")
    table = metrics_mod.render_table(report)
    with open(out / "metrics.txt", "w", encoding="utf-8") as handle:
        handle.write(table + "\n")
    print(table)
    return EXIT_OK


def _member_order(path: Path) -> tuple:
    """member_<k>.npz sorts by k, as ``train`` numbered it; other names follow by text."""
    k = path.stem.removeprefix("member_")
    return (0, int(k), "") if k.isdecimal() else (1, 0, path.name)


def _load_members(checkpoint_dir) -> list:
    directory = Path(checkpoint_dir)
    if directory.is_file():
        return [load_checkpoint(directory)]
    if not directory.is_dir():
        raise DataError(f"checkpoint path '{directory}' does not exist")
    files = sorted(directory.glob("member_*.npz"), key=_member_order)
    if not files:
        raise DataError(f"no member_*.npz checkpoints under '{directory}'")
    return parallel_map(load_checkpoint, files)


def _evaluate_checkpoints(args, config: RunConfig, dataset) -> metrics_mod.MetricsReport:
    members = _load_members(args.checkpoints)
    horizon = members[0].horizon
    test_n = _windows(config, dataset, "test", members[0].input_size, horizon)
    fc = (ensemble_forecast_batch(members, np.stack([w.input for w in test_n]))
          if test_n else [])
    entry = metrics_mod.score_windows(test_n, fc, dataset.name, horizon,
                                      config.value("model", "kind"))
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
    config = _run_config(args)
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
    write_resolved_config(config, str(out) + ".resolved")
    print(f"wrote {len(yhat)}-step forecast to {out}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    config = _run_config(args)
    dataset = _load_dataset(args, config)
    model = load_checkpoint(args.checkpoint)
    window = _select_test_window(config, dataset, model.input_size, model.horizon,
                                 args.window, args.series)
    bundle = model.forward(window.input)
    # Components are rescaled to series units; the per-window offset (if the
    # normalization uses one) is not distributable across blocks and is left out,
    # so the file's component sum always equals its forecast column.
    bundle.forecast = bundle.forecast * window.scale
    bundle.components = [c * window.scale for c in bundle.components]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    data_mod.write_decomposition_csv(bundle, out)
    write_resolved_config(config, str(out) + ".resolved")
    print(f"wrote decomposition with {len(bundle.components)} components to {out}")
    return EXIT_OK


def _apply_assignment(config: RunConfig, assignment: dict) -> RunConfig:
    """A copy of ``config`` with one search draw, floats by ``repr`` so they round-trip."""
    trial = RunConfig(sections={s: dict(keys) for s, keys in config.sections.items()})
    width = int(assignment["mlp_width"])
    trial.sections["model"].update(
        mlp_widths=f"{width},{width}",
        blocks_per_stack=str(int(assignment["blocks_per_stack"])),
        base_ratio=repr(float(assignment["base_ratio"])))
    lam = float(assignment["l1_lambda"]) * float(assignment["l1_enabled"])
    trial.sections["training"].update(lr=repr(float(assignment["lr"])), l1_lambda=repr(lam))
    return trial


def search_objective(config: RunConfig, dataset):
    """Objective for random search: train one model, return validation MAE."""
    # Build the base configs once, so an out-of-range key fails the run, not every trial.
    base = _model_config(config)
    _train_config(config, 0)
    shape = base.input_size, base.horizon
    train_n = _windows(config, dataset, "train", *shape)
    val_n = _windows(config, dataset, "val", *shape)

    def objective(assignment: dict, trial_seed: int) -> float:
        trial = _apply_assignment(config, assignment)
        model = build_any(_model_config(trial), trial_seed)
        return train(model, train_n, val_n, _train_config(trial, trial_seed)).best_val_mae

    return objective


def cmd_search(args) -> int:
    config = _run_config(args)
    budget = args.budget if args.budget is not None else config.value("search", "budget")
    dataset = _load_dataset(args, config)
    objective = search_objective(config, dataset)
    result = search_mod.random_search(budget, objective, seed=config.value("run", "seed"))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_resolved_config(config, out / "config.resolved")
    search_mod.write_trial_log(result.trials, out / "trials.jsonl")

    best = result.best
    best_config = _apply_assignment(config, best.config)
    best_config.sections["run"]["seed"] = str(best.seed)
    write_resolved_config(best_config, out / "best_config.ini")
    print(f"best trial {best.index}: validation MAE {best.val_mae:.6g} "
          f"(seed {best.seed}); config written to {out / 'best_config.ini'}")
    return EXIT_OK


def cmd_param_count(args) -> int:
    config = load_run_config(args.config) if args.config else default_run_config()
    model_config = _model_config(config)
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

@functools.cache
def build_parser() -> _Parser:
    """The parser of every command, built once per process: ``main`` only parses."""
    parser = _Parser(prog="dmidas", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("--config", required=True, help="run config file (INI)")
        p.add_argument("--seed", type=int, default=None, help="root random seed ([run] seed)")
        p.add_argument("--jobs", type=int, default=None,
                       help="evaluate cells run at once ([run] jobs); other commands record it")
        p.add_argument("--out", required=True, help="output path")

    p = sub.add_parser("generate", help="write a synthetic dataset CSV")
    p.add_argument("spec", help="preset name or synthetic spec JSON file")
    p.add_argument("--seed", type=int, default=None)
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
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
