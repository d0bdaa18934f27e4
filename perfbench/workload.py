"""The three benchmark workloads and the sequence every one of them runs:
prepare the data, train an ensemble, save and reload checkpoints, serve
forecasts, then check the outputs against computations made apart from the
program.

All dmidas calls go through module attributes (``training.train_ensemble``,
not a name imported from it) so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks
import tracing
from dmidas import cli, data, engine, model, params, training
from dmidas.blocks import BlockConfig

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_steps_per_s": "1/s",
    "test_mae": "units",
    "forecast_p50_ms": "ms",
    "forecast_p90_ms": "ms",
    "batch_windows_per_s": "1/s",
    "cli_forecast_ms": "ms",
    "peak_rss_mb": "MiB",
}

LONG_SERIES = 4
# The program's own training seed stays fixed: the workload seed makes the
# inputs (the series), as a user's data would differ, not the program's settings.
TRAIN_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str            # "multifreq" (the acceptance preset) or "long"
    input_size: int
    horizon: int
    n_blocks: int
    widths: tuple[int, ...]
    members: int
    jobs: int
    iterations: int
    eval_every: int
    val_len: int
    test_len: int
    naive_period: int
    skill_margin: float     # share by which test MAE must beat seasonal naive
    singles_per_round: int  # single-window forecasts per serving round
    min_rounds: int
    series_length: int = 0  # long series only
    base_ratio: float = 0.5
    batch_size: int = 128
    lr: float = 1e-3
    calibration_steps: int = 8


WORKLOADS = {
    w.name: w for w in (
        Workload("train-256x2", "multifreq", 288, 96, 2, (256, 256), members=4, jobs=1,
                 iterations=200, eval_every=50, val_len=480, test_len=960,
                 naive_period=168, skill_margin=0.10, singles_per_round=100,
                 min_rounds=10),
        # After 120 steps one member can still trail seasonal naive by 27%, and
        # over 38 data seeds the ensemble led it by 7.6% to 23.5%: it must beat it.
        Workload("ensemble-512x3-jobs2", "multifreq", 288, 96, 3, (512, 512), members=2,
                 jobs=2, iterations=120, eval_every=20, val_len=480, test_len=960,
                 naive_period=168, skill_margin=0.0, singles_per_round=100,
                 min_rounds=10),
        Workload("long-horizon-serve", "long", 1440, 720, 3, (256, 256), members=2, jobs=1,
                 iterations=90, eval_every=45, val_len=720, test_len=1080,
                 naive_period=1008, skill_margin=0.10, singles_per_round=100,
                 min_rounds=10, series_length=7000, calibration_steps=4),
    )
}


def smoke(w: Workload) -> Workload:
    """A seconds-long variant with the same shape of run, for the benchmark's tests.

    A few training steps cannot beat seasonal naive, so the skill check is
    dropped (a NaN margin is reported as skipped)."""
    return replace(w, iterations=4, eval_every=2, singles_per_round=10, min_rounds=2,
                   series_length=min(w.series_length, 4400), skill_margin=math.nan,
                   calibration_steps=2)


class SetupDone(Exception):
    """Raised at the first training step of a set-up probe."""


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def make_dataset(w: Workload, seed: int):
    """The workload's series, from the package's synthetic generator."""
    if w.dataset == "multifreq":
        return data.generate_synthetic(replace(data.multifreq_v1(), seed=seed))
    series = []
    for k in range(LONG_SERIES):
        # 10-minute readings: a daily (144) and a weekly (1008) cycle, a slow
        # drift and noise, with different mixes per series.
        spec = data.SyntheticSpec(
            length=w.series_length,
            components=(data.Sinusoid(144, amplitude=8.0 + 2.0 * k, phase=0.7 * k),
                        data.Sinusoid(1008, amplitude=4.0 + k, phase=1.3 * k),
                        data.LinearTrend(slope=0.0004 * (k - 1.5)),
                        data.GaussianNoise(sigma=0.6 + 0.1 * k)),
            seed=(seed << 8) + k, name=f"long-{k}")
        series.extend(data.generate_synthetic(spec).series)
    return data.TimeSeriesDataset(series=series, name="long-horizon")


def model_config(w: Workload):
    template = BlockConfig(basis="midas", input_size=w.input_size, horizon=w.horizon,
                           mlp_widths=w.widths)
    return model.ModelConfig(stacks=(model.StackConfig(w.n_blocks, template),),
                             input_size=w.input_size, horizon=w.horizon,
                             base_ratio=w.base_ratio)


def train_config(w: Workload) -> training.TrainConfig:
    return training.TrainConfig(lr=w.lr, iterations=w.iterations, batch_size=w.batch_size,
                                eval_every=w.eval_every, seed=TRAIN_SEED, loss_kind="mae",
                                normalization="per-series-median")


def write_cli_config(w: Workload, path: Path) -> None:
    path.write_text(
        "[model]\nkind = dmidas\n"
        f"input_size = {w.input_size}\nhorizon = {w.horizon}\n"
        f"blocks_per_stack = {w.n_blocks}\nmlp_widths = {','.join(map(str, w.widths))}\n"
        f"base_ratio = {w.base_ratio}\n"
        "[training]\nnormalization = per-series-median\n"
        f"[evaluation]\nval_len = {w.val_len}\ntest_len = {w.test_len}\n",
        encoding="utf-8")


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

class Run:
    def __init__(self, w: Workload, seed: int, seconds: float, workdir: Path,
                 tracer: tracing.Tracer | None, probe: bool, t0: float):
        self.w, self.seed, self.seconds = w, seed, seconds
        self.workdir, self.tracer, self.probe, self.t0 = workdir, tracer, probe, t0
        self.checks: list[tuple[str, bool, str]] = []
        self.attempted = 0
        self.first_step: float | None = None

    def check(self, name: str, result) -> None:
        ok, detail = result
        self.checks.append((name, bool(ok), detail))

    def set_tracing(self, on: bool) -> None:
        if self.tracer is not None:
            self.tracer.enabled = on

    # -- set-up ------------------------------------------------------------

    def _hook_first_step(self):
        """Time the first ``zero_grad``: the first thing a training step does."""
        original = params.ParameterStore.zero_grad
        run = self

        def zero_grad(store):
            if run.probe:
                raise SetupDone()
            if run.first_step is None:
                run.first_step = time.perf_counter()
                params.ParameterStore.zero_grad = original
            return original(store)

        params.ParameterStore.zero_grad = zero_grad
        return original

    def prepare(self) -> None:
        w = self.w
        self.set_tracing(True)
        generated = make_dataset(w, self.seed)
        self.generated = {s.id: s.values for s in generated}
        self.csv_path = self.workdir / "series.csv"
        data.save_dataset_csv(generated, self.csv_path)
        self.dataset = data.load_csv(self.csv_path, name="bench")
        split = training.split_tail(self.dataset, w.val_len, w.test_len)
        self.split = split
        scales = training.median_abs_scales(split)
        self.train_n, _ = training.normalize(split.train_windows(w.input_size, w.horizon),
                                             "per-series-median", scales)
        self.val_n, _ = training.normalize(split.val_windows(w.input_size, w.horizon),
                                           "per-series-median", scales)

    def train(self) -> None:
        w = self.w
        original = self._hook_first_step()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            self.members = training.train_ensemble(
                model_config(w), self.train_n, self.val_n, train_config(w),
                training.EnsembleConfig(n_members=w.members), jobs=w.jobs)
        finally:
            params.ParameterStore.zero_grad = original
        self.ensemble_wall = time.perf_counter() - wall0
        self.ensemble_cpu = time.process_time() - cpu0
        self.member_steps = sum(m.result.history[-1].iteration for m in self.members)
        self.attempted += self.member_steps

    # -- checkpoints and serving -------------------------------------------

    def checkpoints(self) -> None:
        ckpt_dir = self.workdir / "checkpoints"
        ckpt_dir.mkdir()
        self.ckpt_paths = [ckpt_dir / f"member_{k}.npz" for k in range(len(self.members))]
        for m, path in zip(self.members, self.ckpt_paths):
            model.save_checkpoint(m.model, path)
        self.served = [model.load_checkpoint(path) for path in self.ckpt_paths]
        self.attempted += 2 * len(self.members)
        same = all(checks.same_bits(a.value, self.served[k].params[name].value)
                   for k, m in enumerate(self.members) for name, a in m.model.params.items())
        self.check("checkpoint_roundtrip", (same, f"{len(self.members)} members"))

    def test_set(self) -> None:
        """Every stride-1 test origin of every series, from the CSV values."""
        w = self.w
        inputs, targets, scales = [], [], []
        self.scale = {}
        for sp in self.split.splits:
            values = sp.series.values
            self.scale[sp.series.id] = float(np.median(np.abs(values[:sp.train_end]))) or 1.0
            x, y = checks.rolling_origins(values, sp.val_end, w.input_size, w.horizon)
            inputs.append(x)
            targets.append(y)
            scales.append(np.full(x.shape[0], self.scale[sp.series.id]))
        self.x_raw = np.concatenate(inputs)
        self.y_raw = np.concatenate(targets)
        self.row_scale = np.concatenate(scales)
        self.x_test = self.x_raw / self.row_scale[:, None]

    def serve(self) -> None:
        """Closed loop, one caller: rounds of single-window forecasts taken
        round-robin over the test origins, one batch forecast over all of them
        and one in-process CLI forecast, until the run's seconds are used."""
        w = self.w
        config_path = self.workdir / "run.ini"
        write_cli_config(w, config_path)
        cli_out = self.workdir / "forecast.csv"
        first_id = self.split.splits[0].series.id
        argv = ["forecast", str(self.csv_path), "--config", str(config_path),
                "--checkpoints", str(self.ckpt_paths[0].parent), "--window", "0",
                "--series", first_id, "--out", str(cli_out)]
        n = self.x_test.shape[0]
        self.latencies, self.batch_rates, self.cli_ms = [], [], []
        self.batch_fc = None
        batch_repeats = True
        cursor, rounds = 0, 0
        start = time.perf_counter()
        while rounds < w.min_rounds or time.perf_counter() - start < self.seconds:
            for _ in range(w.singles_per_round):
                x = self.x_test[cursor % n]
                t = time.perf_counter()
                training.ensemble_forecast(self.served, x)
                self.latencies.append(time.perf_counter() - t)
                cursor += 1
            t = time.perf_counter()
            fc = training.ensemble_forecast_batch(self.served, self.x_test)
            self.batch_rates.append(n / (time.perf_counter() - t))
            if self.batch_fc is None:
                self.batch_fc = fc
            else:
                batch_repeats &= checks.same_bits(fc, self.batch_fc)
            sink = io.StringIO()
            t = time.perf_counter()
            with contextlib.redirect_stdout(sink):
                code = cli.main(argv)
            self.cli_ms.append(1e3 * (time.perf_counter() - t))
            if code != 0:
                raise RuntimeError(f"dmidas forecast exited with {code}")
            rounds += 1
        self.attempted += rounds * (w.singles_per_round + 2)
        self.check("batch_repeats", (batch_repeats, f"{rounds} batch calls"))
        self.cli_out = cli_out

    # -- checks ------------------------------------------------------------

    def run_checks(self) -> None:
        w = self.w
        self.set_tracing(False)
        rng = np.random.default_rng(self.seed % 2 ** 32)
        self.check("csv_reload", checks.check_reload(self.generated, self.dataset))
        values = {sp.series.id: sp.series.values for sp in self.split.splits}
        train_end = {sp.series.id: sp.train_end for sp in self.split.splits}
        self.check("train_windows", checks.check_windows(
            self.train_n, values, train_end, self.scale, w.input_size, w.horizon))

        n = self.x_test.shape[0]
        sample = np.sort(rng.choice(n, size=min(8, n), replace=False))
        singles = np.stack([training.ensemble_forecast(self.served, self.x_test[i])
                            for i in sample])
        # A batch runs matrix-matrix products and a single window matrix-vector
        # ones; BLAS may round them differently, so rows agree to 1e-12.
        err = checks.rel_error(self.batch_fc[sample], singles)
        self.check("batch_rows_equal_single",
                   (err <= 1e-12, f"{len(sample)} windows, relative error {err:.1e}"))
        ckpts = [checks.read_checkpoint(p) for p in self.ckpt_paths]
        self.check("reference_forward", checks.check_reference_forward(
            ckpts, self.x_test[sample], singles, len(w.widths)))

        sp0 = self.split.splits[0]
        sid = sp0.series.id
        x_cli = sp0.series.values[sp0.val_end - w.input_size:sp0.val_end] / self.scale[sid]
        want = training.ensemble_forecast(self.served, x_cli) * self.scale[sid] + 0.0
        got = checks.read_forecast_csv(self.cli_out)
        self.check("cli_equals_library", (checks.same_bits(got, want),
                                          f"{want.size} steps, relative error "
                                          f"{checks.rel_error(got, want):.1e}"))

        self.gradient_and_adam_checks(rng, ckpts[0][1])

        yhat = self.batch_fc * self.row_scale[:, None]
        self.test_mae = float(np.mean(np.abs(self.y_raw - yhat)))
        naive = checks.seasonal_naive(self.x_raw, w.horizon, w.naive_period)
        naive_mae = float(np.mean(np.abs(self.y_raw - naive)))
        if math.isnan(w.skill_margin):
            self.checks.append(("skill_vs_seasonal_naive", True, "skipped in smoke runs"))
        else:
            self.check("skill_vs_seasonal_naive",
                       checks.check_skill(self.test_mae, naive_mae, w.skill_margin))

        if w.jobs > 1:
            first = self.members[0]
            serial = model.build_any(model_config(w), first.seed)
            cfg = replace(train_config(w), seed=first.seed,
                          iterations=first.result.history[0].iteration)
            row = training.train(serial, self.train_n, self.val_n, cfg).history[0]
            self.check("jobs_matches_serial",
                       checks.check_same_row(first.result.history[0], row))
        self.attempted += len(self.checks)

    def gradient_and_adam_checks(self, rng, raw_params: dict) -> None:
        w = self.w
        member = model.load_checkpoint(self.ckpt_paths[0])
        picks = np.sort(rng.choice(len(self.train_n), size=4, replace=False))
        xb = np.stack([self.train_n[i].input for i in picks])
        yb = np.stack([self.train_n[i].target for i in picks])
        grads = tape_gradients(member, xb, yb)
        names = list(raw_params)
        coords = []
        for _ in range(12):
            name = names[int(rng.integers(len(names)))]
            coords.append((name, int(rng.integers(raw_params[name].size))))
        prefixes = checks.block_layout(raw_params)
        self.check("tape_gradients_vs_finite_differences", checks.check_gradients(
            {k: v.copy() for k, v in raw_params.items()}, prefixes, len(w.widths),
            xb, yb, grads, coords))

        cfg = train_config(w)
        state = params.OptimizerState.for_store(member.params)
        ok, details = True, []
        for t in (1, 2):
            before = {name: (p.value.copy(), state.m[name].copy(), state.v[name].copy())
                      for name, p in member.params.items()}
            for name, p in member.params.items():
                p.grad = grads[name] * (1.0 if t == 1 else -0.5)
            used = {name: p.grad for name, p in member.params.items()}
            params.adam_step(member.params, state, lr=cfg.lr, beta1=cfg.beta1,
                             beta2=cfg.beta2, eps=cfg.eps)
            after = {name: (p.value, state.m[name], state.v[name])
                     for name, p in member.params.items()}
            step_ok, detail = checks.check_adam(before, used, after, state.step, cfg.lr,
                                                cfg.beta1, cfg.beta2, cfg.eps)
            ok &= step_ok
            details.append(detail)
        self.check("adam_closed_form", (ok, "; ".join(details)))

    # -- tracing overhead --------------------------------------------------

    def trace_overhead_pct(self) -> float:
        """Median step time traced vs untraced, on interleaved blocks of the
        same training steps (spans recorded here are dropped)."""
        w = self.w
        m = model.build_model(model_config(w), self.seed)
        xb = np.stack([wd.input for wd in self.train_n[:w.batch_size]])
        yb = np.stack([wd.target for wd in self.train_n[:w.batch_size]])
        state = params.OptimizerState.for_store(m.params)
        cfg = train_config(w)
        mark = len(self.tracer.spans)
        counts = {k: len(v) for k, v in self.tracer.counts.items()}
        timings = {False: [], True: []}
        for _ in range(3):
            for traced in (False, True):
                self.set_tracing(traced)
                t = time.perf_counter()
                for _ in range(w.calibration_steps):
                    tape = engine.GradientTape()
                    m.params.zero_grad()
                    fc = m.forward_batch(xb, tape)[0]
                    obj = engine.loss(yb, fc, cfg.loss_kind, tape)
                    tape.backward(obj)
                    params.adam_step(m.params, state, lr=cfg.lr)
                timings[traced].append(time.perf_counter() - t)
        self.set_tracing(False)
        del self.tracer.spans[mark:]
        for k, v in self.tracer.counts.items():
            del v[counts.get(k, 0):]
        return 100.0 * (statistics.median(timings[True]) / statistics.median(timings[False]) - 1)

    # -- results -----------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        lat = np.array(self.latencies) * 1e3
        return {
            "setup_s": self.first_step - self.t0,
            "train_steps_per_s": self.member_steps / self.ensemble_wall,
            "test_mae": self.test_mae,
            "forecast_p50_ms": float(np.percentile(lat, 50)),
            "forecast_p90_ms": float(np.percentile(lat, 90)),
            "batch_windows_per_s": statistics.median(self.batch_rates),
            "cli_forecast_ms": statistics.median(self.cli_ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def window_bytes(self) -> int:
        return sum(wd.input.nbytes + wd.target.nbytes for wd in self.train_n + self.val_n)


def tape_gradients(member, xb: np.ndarray, yb: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of the batch MSE from the program's own tape. The last block's
    backcast head feeds nothing, so it gets no gradient: zero, as Adam reads it."""
    tape = engine.GradientTape()
    member.params.zero_grad()
    fc = member.forward_batch(xb, tape)[0]
    tape.backward(engine.loss(yb, fc, "mse", tape))
    return {name: np.zeros_like(p.value) if p.grad is None else p.grad.copy()
            for name, p in member.params.items()}


def run(w: Workload, seed: int, seconds: float, workdir: Path, trace: bool, probe: bool,
        t0: float, trace_path: Path | None = None) -> dict:
    """One workload end to end. Returns the result object the benchmark prints."""
    tracer = None
    if trace:
        tracer = tracing.Tracer(f"{w.name}/seed{seed}/pid{os.getpid()}")
        tracing.install(tracer)
    r = Run(w, seed, seconds, workdir, tracer, probe, t0)
    r.prepare()
    if probe:
        try:
            r.train()
        except training.TrainingError as exc:
            if not isinstance(exc.__cause__, SetupDone):
                raise
            return {"setup_s": time.perf_counter() - t0}
        raise RuntimeError("set-up probe reached the end of training")
    r.train()
    r.checkpoints()
    r.test_set()
    r.serve()
    r.run_checks()
    result = {"correct": all(ok for _, ok, _ in r.checks), "attempted": r.attempted,
              "failed": 0, "checks": r.checks}
    if tracer is None:
        result["metrics"] = {k: (v, END_TO_END_UNITS[k]) for k, v in r.end_to_end().items()}
        return result
    overhead = r.trace_overhead_pct()
    facts = {"member_steps": r.member_steps, "window_bytes": r.window_bytes(),
             "checkpoint_bytes": r.ckpt_paths[0].stat().st_size,
             "ensemble_wall_s": r.ensemble_wall, "ensemble_cpu_s": r.ensemble_cpu,
             "trace_overhead_pct": overhead}
    metrics = tracing.per_layer_metrics(tracer, facts)
    coverage = metrics["trace.step_coverage"][0]
    result["checks"].append(("trace_step_coverage", 0.9 <= coverage <= 1.0 + 1e-9,
                             f"median step: traced self times cover {100 * coverage:.1f}% "
                             f"of its wall"))
    result["correct"] = all(ok for _, ok, _ in result["checks"])
    result["metrics"] = metrics
    tracer.uninstall()
    if trace_path is not None:
        tracer.write(trace_path)
    return result
