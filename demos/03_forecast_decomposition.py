"""Train a small pooled-interpolated model on a two-frequency signal and look
at the additive per-block decomposition.

Blocks with high expressivity ratios can track fast oscillations; deeper
blocks with few knots are forced onto slow components. The components always
sum exactly to the forecast, and each block's forecast can change slope at
most (knots - 1) times.
"""

import numpy as np

import dmidas as dm
from dmidas.data import export_results

rng = np.random.default_rng(7)

spec = dm.SyntheticSpec(
    length=1200,
    components=(dm.Sinusoid(period=12, amplitude=4.0),
                dm.Sinusoid(period=96, amplitude=2.0),
                dm.GaussianNoise(sigma=0.2)),
    seed=11,
    name="two-frequency",
)
dataset = dm.generate_synthetic(spec)

horizon, input_size = 48, 144
split = dm.split_tail(dataset, val_len=96, test_len=96)
train_w = dm.prepared_windows(split, "train", input_size, horizon, "per-series-median")
val_w = dm.prepared_windows(split, "val", input_size, horizon, "per-series-median")
test_w = dm.prepared_windows(split, "test", input_size, horizon, "per-series-median")

template = dm.BlockConfig(basis="midas", input_size=input_size, horizon=horizon,
                          mlp_widths=(64, 64))
config = dm.ModelConfig(stacks=(dm.StackConfig(3, template),), input_size=input_size,
                        horizon=horizon, base_ratio=0.5)
model = dm.build_model(config, seed=1)

print("training a 3-block model (ratios 0.5, 0.25, 0.125) ...")
result = dm.train(model, train_w, val_w,
                  dm.TrainConfig(iterations=600, batch_size=64, eval_every=100, seed=1))
print(f"best validation MAE: {result.best_val_mae:.4f} (iteration {result.best_iteration})")

window = test_w[-1]
bundle = model.decompose(window.input)
print()
print("per-block decomposition of the last test window:")
gap = np.max(np.abs(np.sum(bundle.components, axis=0) - bundle.forecast))
print(f"  component sum minus forecast: {gap:.2e}")
for label, component, block in zip(bundle.block_labels, bundle.components, model.blocks):
    knots = block.config.theta_sizes()[0]
    d2 = component[2:] - 2 * component[1:-1] + component[:-2]
    changes = int(np.sum(np.abs(d2) > 1e-9))
    spread = component.max() - component.min()
    print(f"  {label:<24} knots {knots:>2}  slope changes {changes:>2} "
          f"(bound {knots - 1:>2})  range {spread:6.3f}")

out = "decomposition.csv"
export_results(bundle, out, "csv")
print()
print(f"decomposition written to {out} (columns: t, forecast, component_1..K)")
