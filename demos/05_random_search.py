"""Seeded random search over the fixed hyperparameter draw.

Each trial samples a config (learning rate, base ratio, width, depth, L1),
trains one model and reports validation MAE; the search returns the best
trial with ties broken toward the earliest. The trial log is one JSON object
per line, replayable because every trial carries its own derived seed.
"""

import json

import dmidas as dm
from dmidas.search import random_search, write_trial_log

dataset = dm.generate_synthetic(dm.SyntheticSpec(
    length=800,
    components=(dm.Sinusoid(period=24, amplitude=3.0), dm.GaussianNoise(sigma=0.2)),
    seed=2,
    name="search-demo",
))

horizon, input_size = 24, 72
split = dm.split_tail(dataset, val_len=96, test_len=0)
train_w = dm.prepared_windows(split, "train", input_size, horizon, "per-series-median")
val_w = dm.prepared_windows(split, "val", input_size, horizon, "per-series-median")


def objective(assignment, trial_seed):
    width = int(assignment["mlp_width"])
    template = dm.BlockConfig(basis="midas", input_size=input_size, horizon=horizon,
                              mlp_widths=(width, width))
    config = dm.ModelConfig(
        stacks=(dm.StackConfig(int(assignment["blocks_per_stack"]), template),),
        input_size=input_size, horizon=horizon,
        base_ratio=float(assignment["base_ratio"]))
    lam = float(assignment["l1_lambda"]) * float(assignment["l1_enabled"])
    model = dm.build_any(config, trial_seed)
    result = dm.train(model, train_w, val_w,
                      dm.TrainConfig(lr=float(assignment["lr"]), iterations=40,
                                     batch_size=32, eval_every=20, l1_lambda=lam,
                                     seed=trial_seed))
    return result.best_val_mae


print("searching 4 trials; each draws lr and l1_lambda log-uniformly, base_ratio,")
print("mlp_width and l1_enabled from a short list, and blocks_per_stack from 1-3 ...")
result = random_search(budget=4, objective=objective, seed=13)

print()
for trial in result.trials:
    tag = "ok    " if trial.status == "ok" else "failed"
    mae = f"{trial.val_mae:.4f}" if trial.val_mae is not None else "-"
    print(f"  trial {trial.index}: {tag} val MAE {mae}  "
          f"lr={trial.config['lr']:.2e} r={trial.config['base_ratio']} "
          f"width={trial.config['mlp_width']} blocks={trial.config['blocks_per_stack']}")
print()
print(f"best: trial {result.best.index} with validation MAE {result.best.val_mae:.4f}")

write_trial_log(result.trials, "trials.jsonl")
first = json.loads(open("trials.jsonl").readline())
print(f"trial log written to trials.jsonl; first line keys: {sorted(first)}")
