"""Self times subtract the union of child spans, including children that ran
on other threads; the tracer leaves the program as it found it."""

import numpy as np

import tracing
from dmidas import data, engine, model, params, training
from dmidas.blocks import BlockConfig


def span(sid, name, start, end, parent=None):
    return tracing.Span(sid, name, start, end, parent, 0)


def test_self_time_subtracts_the_union_of_children():
    spans = [span(1, "training.train_ensemble", 0.0, 10.0),
             span(2, "training.train", 1.0, 6.0, 1),
             span(3, "training.train", 4.0, 9.0, 1),
             span(4, "params.adam_step", 2.0, 3.0, 2)]
    idx = tracing.SpanIndex(spans)
    assert idx.self_time[1] == 2.0
    assert idx.self_time[2] == 4.0
    assert idx.self_time[4] == 1.0


def test_traced_training_covers_its_steps_and_uninstalls():
    originals = (engine.affine, engine.GradientTape.record, training.train,
                 params.ParameterStore.zero_grad)
    tracer = tracing.Tracer("test")
    tracing.install(tracer)
    try:
        tracer.enabled = True
        cfg = model.ModelConfig(
            stacks=(model.StackConfig(2, BlockConfig(
                basis="midas", input_size=16, horizon=4, mlp_widths=(8,))),),
            input_size=16, horizon=4, base_ratio=0.5)
        values = np.sin(np.arange(200) / 5.0) + 2.0
        split = training.split_tail(data.TimeSeriesDataset([data.Series("a", values)]),
                                    val_len=8, test_len=8)
        windows = split.train_windows(16, 4)
        training.train_ensemble(cfg, windows, split.val_windows(16, 4),
                                training.TrainConfig(iterations=6, batch_size=8, eval_every=6),
                                training.EnsembleConfig(n_members=2), jobs=2)
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert {"training.train", "engine.affine.fwd", "engine.affine.bwd", "engine.backward",
            "params.adam_step", "model.forward_train"} <= names
    idx = tracing.SpanIndex(tracer.spans)
    ensemble = next(s for s in tracer.spans if s.name == "training.train_ensemble")
    trains = [s for s in tracer.spans if s.name == "training.train"]
    assert len(trains) == 2 and all(s.parent == ensemble.id for s in trains)
    assert len(idx.step_coverage()) == 2 * 5
    assert (engine.affine, engine.GradientTape.record, training.train,
            params.ParameterStore.zero_grad) == originals
