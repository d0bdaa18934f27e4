"""Run the benchmark harness end to end: ensembles of several model families
scored against a seasonal-naive baseline, rendered as an accuracy table.

Every (model, horizon) cell trains its own ensemble on the training region,
early-stops on validation MAE, and scores non-overlapping test windows in
original units. The whole run is reproducible from the single seed.
"""

import dmidas as dm
from dmidas.data import write_metrics_json
from dmidas.metrics import (BenchmarkProtocol, ModelSpec, relative_improvement,
                            render_table, run_benchmark)

dataset = dm.generate_synthetic(dm.SyntheticSpec(
    length=1600,
    components=(dm.Sinusoid(period=24, amplitude=5.0),
                dm.Sinusoid(period=96, amplitude=2.0),
                dm.GaussianNoise(sigma=0.3)),
    seed=5,
    name="demo-bench",
))

protocol = BenchmarkProtocol(
    val_len=192, test_len=192,
    train=dm.TrainConfig(iterations=400, batch_size=64, eval_every=100, loss_kind="mae"),
    ensemble=dm.EnsembleConfig(n_members=2),
)

specs = [
    ModelSpec("dmidas", "dmidas", blocks_per_stack=2, mlp_widths=(64, 64), base_ratio=0.5),
    ModelSpec("nbeats-g", "nbeats-g", blocks_per_stack=2, mlp_widths=(64, 64)),
    ModelSpec("mlp", "mlp", mlp_widths=(64, 64)),
    # period 24 fits inside every cell's input window (3x the horizon); it
    # nails the fast component but misses the period-96 one, so it is beatable
    ModelSpec("seasonal-naive", "seasonal-naive", period=24),
]

print("running 4 models x 2 horizons (each trained cell fits its own ensemble) ...")
report = run_benchmark(dataset, specs, horizons=[24, 48], protocol=protocol, seed=3)
print()
print(render_table(report))

print()
improvements = relative_improvement(report, "seasonal-naive")
print("improvement over the seasonal-naive baseline:")
for (ds, h, model), pct in sorted(improvements.items()):
    if model == "seasonal-naive":
        continue
    print(f"  H={h:<4} {model:<10} MAE {pct['mae']:+6.1f}%   RMSE {pct['rmse']:+6.1f}%")

write_metrics_json(report, "metrics.json")
print()
print("nested (dataset -> horizon -> model) report written to metrics.json")
