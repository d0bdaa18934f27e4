"""Stacked model: residual wiring, schedules, parameter accounting, checkpoints."""

import json
import re
import struct
import sys
import tracemalloc
import zipfile

import numpy as np
import pytest

from dmidas import params
from dmidas.blocks import BlockConfig
from dmidas.engine import GradientTape
from dmidas.errors import ConfigError, DataError
from dmidas.metrics import ModelSpec, model_config_for
from dmidas.model import (MlpConfig, ModelConfig, StackConfig, build_any,
                          build_model, count_parameters,
                          expressivity_schedule, generic_twin, load_checkpoint,
                          model_config_from_dict, model_config_to_dict, save_checkpoint)


def midas_model(input_size=24, horizon=8, blocks=3, widths=(8, 8), ratio=0.5, seed=0):
    template = BlockConfig(basis="midas", input_size=input_size, horizon=horizon,
                           mlp_widths=widths)
    cfg = ModelConfig(stacks=(StackConfig(blocks, template),), input_size=input_size,
                      horizon=horizon, base_ratio=ratio)
    return cfg, build_model(cfg, seed)


def random_model(rng):
    basis = rng.choice(["generic", "polynomial", "harmonic", "midas"])
    horizon = int(rng.integers(2, 12))
    input_size = int(rng.integers(4, 24))
    template = BlockConfig(basis=str(basis), input_size=input_size, horizon=horizon,
                           mlp_widths=(int(rng.integers(4, 10)),))
    cfg = ModelConfig(stacks=(StackConfig(int(rng.integers(1, 4)), template),),
                      input_size=input_size, horizon=horizon,
                      base_ratio=float(rng.uniform(0.3, 1.0)))
    return cfg, build_model(cfg, int(rng.integers(0, 10 ** 6)))


class TestSchedules:
    def test_exponential_half(self):
        assert expressivity_schedule(0.5, 3) == [0.5, 0.25, 0.125]

    def test_ratio_one_all_full_resolution(self):
        assert expressivity_schedule(1.0, 4) == [1.0, 1.0, 1.0, 1.0]

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            expressivity_schedule(0.0, 2)
        with pytest.raises(ConfigError):
            expressivity_schedule(1.2, 2)

    def test_knot_counts_for_flagship_config(self):
        cfg, model = midas_model(input_size=288, horizon=96, blocks=3, ratio=0.5)
        knots = [b.config.theta_sizes()[0] for b in model.blocks]
        assert knots == [48, 24, 12]

    def test_ratios_strictly_decreasing_and_knots_non_increasing(self):
        cfg, model = midas_model(blocks=4, ratio=0.7)
        ratios = [b.config.expressivity_ratio for b in model.blocks]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        knots = [b.config.theta_sizes()[0] for b in model.blocks]
        assert all(a >= b for a, b in zip(knots, knots[1:]))

    @pytest.mark.parametrize("schedules, message", [
        ({"ratio_schedule": [0.5, 0.25]}, "lists 2 values for 3 blocks"),
        ({"ratio_schedule": [0.5, 1.5, 0.25]}, r"must lie in \(0, 1\]"),
        ({"ratio_schedule": [0.5, 0.0, 0.25]}, r"must lie in \(0, 1\]"),
        ({"ratio_schedule": "linear"}, "unknown ratio_schedule 'linear'"),
        ({"pooling_schedule": [2, 2, 2, 2]}, "lists 4 values for 3 blocks"),
        ({"pooling_schedule": "x"}, "unknown pooling_schedule 'x'"),
    ])
    def test_bad_schedule_raises_at_construction(self, schedules, message):
        template = BlockConfig(basis="midas", input_size=24, horizon=8, mlp_widths=(4,))
        with pytest.raises(ConfigError, match=message):
            ModelConfig(stacks=(StackConfig(3, template),), input_size=24, horizon=8,
                        base_ratio=0.5, **schedules)

    def test_explicit_schedules_are_stored_as_tuples(self):
        template = BlockConfig(basis="midas", input_size=24, horizon=8, mlp_widths=(4,))
        cfg = ModelConfig(stacks=(StackConfig(2, template),), input_size=24, horizon=8,
                          ratio_schedule=[1, 0.5], pooling_schedule=[2, 4])
        assert cfg.ratio_schedule == (1.0, 0.5)
        assert cfg.pooling_schedule == (2, 4)
        assert ModelConfig(stacks=cfg.stacks, input_size=24, horizon=8,
                           pooling_schedule=3).pooling_schedule == 3

    @pytest.mark.parametrize("blocks, schedules, key", [
        (1100, {"base_ratio": 0.5}, "base_ratio"),
        (2, {"base_ratio": 1e-300}, "base_ratio"),
        (2, {"ratio_schedule": [0.5, 5e-324]}, "ratio_schedule"),
        (2, {"ratio_schedule": [0.5, 1e-310], "pooling_schedule": 2}, "ratio_schedule"),
    ])
    def test_midas_ratio_below_the_smallest_normal_float_rejected(self, blocks, schedules, key):
        template = BlockConfig(basis="midas", input_size=24, horizon=8, mlp_widths=(4,))
        with pytest.raises(ConfigError, match=f"{key}.*smallest normal float"):
            ModelConfig(stacks=(StackConfig(blocks, template),), input_size=24, horizon=8,
                        **schedules)

    def test_smallest_normal_ratio_builds(self):
        template = BlockConfig(basis="midas", input_size=24, horizon=8, mlp_widths=(4,))
        cfg = ModelConfig(stacks=(StackConfig(2, template),), input_size=24, horizon=8,
                          ratio_schedule=[0.5, sys.float_info.min])
        assert [b.config.pooling.kernel for b in build_model(cfg, 0).blocks] == [2, 24]

    def test_ratios_of_blocks_that_are_not_midas_are_not_checked(self):
        midas = BlockConfig(basis="midas", input_size=24, horizon=8, mlp_widths=(4,))
        generic = BlockConfig(basis="generic", input_size=24, horizon=8, mlp_widths=(4,))
        ModelConfig(stacks=(StackConfig(1100, generic),), input_size=24, horizon=8,
                    base_ratio=0.5)
        cfg = ModelConfig(stacks=(StackConfig(2, midas), StackConfig(1100, generic)),
                          input_size=24, horizon=8, base_ratio=0.5)
        assert cfg.total_blocks == 1102

    def test_default_pooling_kernels_coarsen(self):
        cfg, model = midas_model(input_size=64, horizon=16, blocks=3, ratio=0.5)
        kernels = [b.config.pooling.kernel for b in model.blocks]
        assert kernels == [2, 4, 8]


class TestBuildModel:
    def test_same_seed_bitwise_identical(self):
        cfg, a = midas_model(seed=123)
        _, b = midas_model(seed=123)
        assert a.params.names() == b.params.names()
        for name in a.params.names():
            assert np.array_equal(a.params[name].value, b.params[name].value)

    def test_three_stacks_one_block_each(self):
        template = BlockConfig(basis="generic", input_size=8, horizon=4, mlp_widths=(4,))
        cfg = ModelConfig(stacks=tuple(StackConfig(1, template) for _ in range(3)),
                          input_size=8, horizon=4)
        model = build_model(cfg, 0)
        prefixes = {b.prefix for b in model.blocks}
        assert prefixes == {"s0.b0", "s1.b0", "s2.b0"}

    def test_inconsistent_geometry_rejected(self):
        t1 = BlockConfig(basis="generic", input_size=8, horizon=4, mlp_widths=(4,))
        t2 = BlockConfig(basis="generic", input_size=9, horizon=4, mlp_widths=(4,))
        with pytest.raises(ConfigError):
            ModelConfig(stacks=(StackConfig(1, t1), StackConfig(1, t2)),
                        input_size=8, horizon=4)

    def test_parameter_count_matches_closed_form(self):
        widths = (8, 8)
        cfg, model = midas_model(input_size=24, horizon=8, blocks=2, widths=widths,
                                 ratio=0.5)
        expected = 0
        for block in model.blocks:
            fan_in = block.config.mlp_input_size()
            for w in widths:
                expected += fan_in * w + w
                fan_in = w
            kf, kb = block.config.theta_sizes()
            expected += fan_in * kf + kf + fan_in * kb + kb
        assert count_parameters(model).total == expected

    def test_shared_weights_single_group(self):
        template = BlockConfig(basis="generic", input_size=8, horizon=4, mlp_widths=(4,))
        cfg = ModelConfig(stacks=(StackConfig(3, template, shared_weights=True),),
                          input_size=8, horizon=4)
        model = build_model(cfg, 0)
        assert len({b.prefix for b in model.blocks}) == 1
        assert len(model.blocks) == 3

    def test_shared_weights_with_varying_ratio_rejected(self):
        template = BlockConfig(basis="midas", input_size=8, horizon=4, mlp_widths=(4,))
        with pytest.raises(ConfigError, match="share"):
            ModelConfig(stacks=(StackConfig(2, template, shared_weights=True),),
                        input_size=8, horizon=4, base_ratio=0.5)

    @pytest.mark.parametrize("schedules", [
        dict(ratio_schedule=(1.0, 0.5, 0.5, 0.25)),
        dict(base_ratio=1.0, pooling_schedule=(1, 2, 2, 1)),
    ])
    def test_shared_stack_with_varying_explicit_slice_rejected(self, schedules):
        template = BlockConfig(basis="midas", input_size=8, horizon=4, mlp_widths=(4,))
        stacks = (StackConfig(1, template), StackConfig(3, template, shared_weights=True))
        with pytest.raises(ConfigError, match="stack 1 shares weights but its blocks resolve "
                                              "to different shapes"):
            ModelConfig(stacks=stacks, input_size=8, horizon=4, **schedules)

    def test_shared_stack_with_constant_explicit_slice_builds_one_group(self):
        template = BlockConfig(basis="midas", input_size=8, horizon=4, mlp_widths=(4,))
        stacks = (StackConfig(1, template), StackConfig(3, template, shared_weights=True))
        cfg = ModelConfig(stacks=stacks, input_size=8, horizon=4,
                          ratio_schedule=(1.0, 0.5, 0.5, 0.5), pooling_schedule=(1, 2, 2, 2))
        model = build_model(cfg, 0)
        assert [b.prefix for b in model.blocks] == ["s0.b0"] + ["s1.shared"] * 3
        assert [(b.config.expressivity_ratio, b.config.pooling.kernel)
                for b in model.blocks] == [(1.0, 1), (0.5, 2), (0.5, 2), (0.5, 2)]

    def test_huge_shared_stack_at_ratio_one_is_checked_at_once(self):
        template = BlockConfig(basis="midas", input_size=8, horizon=4, mlp_widths=(4,))
        cfg = ModelConfig(stacks=(StackConfig(10 ** 12, template, shared_weights=True),),
                          input_size=8, horizon=4)
        assert cfg.midas_shape(10 ** 12 - 1) == (1.0, 1)

    @pytest.mark.parametrize("pooling_schedule", [0, (1, 0), (2, -1)])
    def test_midas_kernel_below_one_rejected(self, pooling_schedule):
        template = BlockConfig(basis="midas", input_size=8, horizon=4, mlp_widths=(4,))
        with pytest.raises(ConfigError, match="pooling kernel must be >= 1"):
            ModelConfig(stacks=(StackConfig(2, template),), input_size=8, horizon=4,
                        base_ratio=0.5, pooling_schedule=pooling_schedule)

    def test_kernel_below_one_at_a_generic_block_is_ignored(self):
        midas = BlockConfig(basis="midas", input_size=8, horizon=4, mlp_widths=(4,))
        generic = BlockConfig(basis="generic", input_size=8, horizon=4, mlp_widths=(4,))
        cfg = ModelConfig(stacks=(StackConfig(1, generic), StackConfig(1, midas)),
                          input_size=8, horizon=4, pooling_schedule=(0, 2))
        assert [b.config.pooling.kernel for b in build_model(cfg, 0).blocks] == [1, 2]


class TestForward:
    def test_zero_parameters_zero_forecast_and_untouched_residuals(self):
        cfg, model = midas_model()
        for p in model.params.params():
            p.value[...] = 0.0
        y = np.random.default_rng(0).normal(size=24)
        bundle = model.forward(y)
        assert not bundle.forecast.any()
        for res in bundle.residual_trace:
            np.testing.assert_array_equal(res, y)

    def test_single_generic_block_forecast_is_block_output(self):
        template = BlockConfig(basis="generic", input_size=8, horizon=4, mlp_widths=(4,))
        cfg = ModelConfig(stacks=(StackConfig(1, template),), input_size=8, horizon=4)
        model = build_model(cfg, 3)
        y = np.random.default_rng(1).normal(size=8)
        bundle = model.forward(y)
        out = model.blocks[0].forward(model.params, y)
        np.testing.assert_array_equal(bundle.forecast, out.forecast.value)
        assert len(bundle.components) == 1

    def test_components_sum_to_forecast(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            cfg, model = random_model(rng)
            y = rng.normal(size=model.input_size)
            bundle = model.forward(y)
            total = np.sum(bundle.components, axis=0)
            assert np.max(np.abs(total - bundle.forecast)) < 1e-9

    def test_residual_telescoping(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            cfg, model = random_model(rng)
            y = rng.normal(size=model.input_size)
            bundle = model.forward(y)
            # replay backcasts by re-running blocks on the stored residuals
            residual = y
            backcasts = []
            for block in model.blocks:
                out = block.forward(model.params, residual)
                backcasts.append(out.backcast.value)
                residual = residual - out.backcast.value
            final = bundle.residual_trace[-1]
            assert np.max(np.abs(final - (y - np.sum(backcasts, axis=0)))) < 1e-9

    @pytest.mark.parametrize("basis, skipped", [("midas", 3), ("generic", 2)])
    def test_last_backcast_only_with_collect(self, basis, skipped):
        # midas skips the backcast head, its interpolation and the last sub;
        # a generic block has no interpolation to skip
        template = BlockConfig(basis=basis, input_size=24, horizon=8, mlp_widths=(8, 8))
        cfg = ModelConfig(stacks=(StackConfig(3, template),), input_size=24, horizon=8,
                          base_ratio=0.5)
        model = build_model(cfg, 9)
        x = np.random.default_rng(10).normal(size=(5, 24))
        tapes = {collect: GradientTape() for collect in (False, True)}
        forecasts = {collect: model.forward_batch(x, tape, collect=collect)[0].value
                     for collect, tape in tapes.items()}
        np.testing.assert_array_equal(forecasts[False], forecasts[True])
        assert len(tapes[True]) - len(tapes[False]) == skipped

    def test_wrong_input_length_rejected(self):
        cfg, model = midas_model()
        with pytest.raises(ConfigError):
            model.forward(np.zeros(10))

    def test_decompose_labels_carry_decreasing_ratios(self):
        cfg, model = midas_model(blocks=3, ratio=0.5)
        bundle = model.forward(np.zeros(24))
        assert bundle.block_labels == ["s0.b0:midas(r=0.5)", "s0.b1:midas(r=0.25)",
                                       "s0.b2:midas(r=0.125)"]

    def test_generic_components_carry_no_knot_labels(self):
        template = BlockConfig(basis="generic", input_size=8, horizon=4, mlp_widths=(4,))
        cfg = ModelConfig(stacks=(StackConfig(2, template),), input_size=8, horizon=4)
        model = build_model(cfg, 0)
        bundle = model.forward(np.zeros(8))
        assert all(label.endswith(":generic") for label in bundle.block_labels)

    def test_midas_components_respect_slope_bounds(self):
        cfg, model = midas_model(input_size=288, horizon=96, blocks=3, ratio=0.5, seed=5)
        y = np.random.default_rng(6).normal(size=288)
        bundle = model.forward(y)
        for block, component in zip(model.blocks, bundle.components):
            knots = block.config.theta_sizes()[0]
            d2 = component[2:] - 2 * component[1:-1] + component[:-2]
            assert int(np.sum(np.abs(d2) > 1e-9)) <= knots - 1


class TestEquivalence:
    def test_degenerate_midas_model_equals_generic_model(self):
        template = BlockConfig(basis="midas", input_size=16, horizon=8, mlp_widths=(8,))
        midas_cfg = ModelConfig(stacks=(StackConfig(2, template),), input_size=16,
                                horizon=8, base_ratio=1.0, pooling_schedule=1)
        generic_template = BlockConfig(basis="generic", input_size=16, horizon=8,
                                       mlp_widths=(8,))
        generic_cfg = ModelConfig(stacks=(StackConfig(2, generic_template),),
                                  input_size=16, horizon=8)
        midas = build_model(midas_cfg, 11)
        generic = build_model(generic_cfg, 0)
        for name in midas.params.names():
            generic.params[name].value[...] = midas.params[name].value
        rng = np.random.default_rng(12)
        for _ in range(10):
            y = rng.normal(size=16)
            diff = np.abs(midas.forward(y).forecast - generic.forward(y).forecast)
            assert np.max(diff) < 1e-12


class TestParameterCounting:
    def test_generic_forecast_outputs_scale_linearly(self):
        template = BlockConfig(basis="generic", input_size=24, horizon=8, mlp_widths=(4,))
        cfg = ModelConfig(stacks=(StackConfig(3, template),), input_size=24, horizon=8)
        report = count_parameters(build_model(cfg, 0))
        assert report.forecast_theta_total == 3 * 8

    def test_flagship_knot_totals(self):
        cfg, model = midas_model(input_size=288, horizon=96, blocks=3, ratio=0.5)
        report = count_parameters(model)
        assert report.forecast_theta_total == 84
        assert report.geometric_closed_form == pytest.approx(84.0)
        twin = count_parameters(build_model(generic_twin(cfg), 0))
        assert twin.forecast_theta_total == 288
        assert round(report.forecast_theta_total / twin.forecast_theta_total, 4) == 0.2917

    def test_ratio_one_matches_generic_totals(self):
        cfg, model = midas_model(input_size=24, horizon=8, blocks=2, ratio=1.0)
        report = count_parameters(model)
        twin = count_parameters(build_model(generic_twin(cfg), 0))
        assert report.forecast_theta_total == twin.forecast_theta_total

    def test_per_layer_walk_matches_total(self):
        cfg, model = midas_model()
        report = count_parameters(model)
        assert report.total == sum(report.per_layer.values())
        assert report.total == sum(p.value.size for p in model.params.params())


class TestMlpBaseline:
    def test_zero_parameters_zero_forecast(self):
        model = build_any(MlpConfig(8, 4, (6,)), seed=0)
        for p in model.params.params():
            p.value[...] = 0.0
        assert not model.forward(np.ones(8)).forecast.any()

    def test_identity_like_network_copies_positive_input(self):
        model = build_any(MlpConfig(4, 4, (4,)), seed=0)
        model.params["mlp0.weight"].value[...] = np.eye(4)
        model.params["mlp0.bias"].value[...] = 0.0
        model.params["out.weight"].value[...] = np.eye(4)
        model.params["out.bias"].value[...] = 0.0
        y = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(model.forward(y).forecast, y)

    def test_parameter_count_closed_form(self):
        model = build_any(MlpConfig(10, 7, (5, 3)), seed=0)
        expected = (10 * 5 + 5) + (5 * 3 + 3) + (3 * 7 + 7)
        assert count_parameters(model).total == expected

    def test_empty_widths_rejected(self):
        with pytest.raises(ConfigError):
            build_any(MlpConfig(4, 4, ()), seed=0)

    def test_zero_width_rejected(self):
        with pytest.raises(ConfigError, match=r"positive hidden widths, got \(4, 0\)"):
            MlpConfig(4, 4, (4, 0))


def drop_checkpoint_parameter(path, name, keep_meta):
    """Rewrite a checkpoint without the array of ``name``, and without its
    metadata record unless ``keep_meta``."""
    import json

    with np.load(path) as npz:
        meta = json.loads(bytes(npz["__meta__"]).decode())
        arrays = {k: npz[k] for k in npz.files if k not in ("__meta__", "p:" + name)}
    assert len(arrays) == len(meta["params"]) - 1
    if not keep_meta:
        meta["params"] = [rec for rec in meta["params"] if rec["name"] != name]
    meta_bytes = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with open(path, "wb") as handle:
        np.savez(handle, __meta__=meta_bytes, **arrays)


GOLDEN_CONFIGS = {
    "dmidas": '{"base_ratio": 0.5, "horizon": 4, "input_size": 8, "kind": "stacked", '
              '"pooling_schedule": [2, 1], "ratio_schedule": [0.5, 0.25], "stacks": '
              '[{"block_template": {"basis": "midas", "expressivity_ratio": 1.0, "horizon": 4, '
              '"input_size": 8, "mlp_widths": [2], "n_harmonics": 4, "poly_degree": 2, '
              '"pooling": {"kernel": 1, "mode": "avg", "stride": null}}, "n_blocks": 2, '
              '"shared_weights": false}]}',
    "nbeats-i": '{"base_ratio": 1.0, "horizon": 4, "input_size": 8, "kind": "stacked", '
                '"pooling_schedule": "auto", "ratio_schedule": "exponential", "stacks": '
                '[{"block_template": {"basis": "polynomial", "expressivity_ratio": 1.0, '
                '"horizon": 4, "input_size": 8, "mlp_widths": [2], "n_harmonics": 4, '
                '"poly_degree": 1, "pooling": {"kernel": 1, "mode": "avg", "stride": null}}, '
                '"n_blocks": 2, "shared_weights": true}, {"block_template": {"basis": '
                '"harmonic", "expressivity_ratio": 1.0, "horizon": 4, "input_size": 8, '
                '"mlp_widths": [2], "n_harmonics": 1, "poly_degree": 2, "pooling": {"kernel": 1, '
                '"mode": "avg", "stride": null}}, "n_blocks": 2, "shared_weights": true}]}',
    "mlp": '{"horizon": 4, "input_size": 8, "kind": "mlp", "widths": [3]}',
}


def golden_config(name):
    """Small fixed configs whose checkpoint config JSON is pinned in GOLDEN_CONFIGS."""
    if name == "mlp":
        return MlpConfig(8, 4, (3,))
    if name == "dmidas":
        midas = BlockConfig(basis="midas", input_size=8, horizon=4, mlp_widths=(2,))
        return ModelConfig((StackConfig(2, midas),), 8, 4, base_ratio=0.5,
                           ratio_schedule=[0.5, 0.25], pooling_schedule=[2, 1])
    trend = BlockConfig(basis="polynomial", input_size=8, horizon=4, mlp_widths=(2,),
                        poly_degree=1)
    season = BlockConfig(basis="harmonic", input_size=8, horizon=4, mlp_widths=(2,),
                         n_harmonics=1)
    return ModelConfig((StackConfig(2, trend, True), StackConfig(2, season, True)), 8, 4)


def edit_checkpoint_config(path, edit):
    """Apply ``edit`` to a saved checkpoint's config dict in place, keeping its arrays."""
    with np.load(path) as npz:
        meta = json.loads(bytes(npz["__meta__"]).decode())
        arrays = {k: npz[k] for k in npz.files if k != "__meta__"}
    edit(meta["config"])
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             **arrays)


class TestCheckpoints:
    def test_roundtrip_preserves_forecasts(self, tmp_path):
        cfg, model = midas_model(seed=21)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        y = np.random.default_rng(22).normal(size=24)
        np.testing.assert_array_equal(model.forward(y).forecast,
                                      restored.forward(y).forecast)

    @pytest.mark.parametrize("build", [lambda: midas_model(seed=23)[1],
                                       lambda: build_any(MlpConfig(6, 3, (4,)), seed=2)])
    def test_load_draws_no_random_values(self, tmp_path, monkeypatch, build):
        model = build()
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)

        def no_draws(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random values")

        monkeypatch.setattr(params, "uniform_fan_in", no_draws)
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        restored = load_checkpoint(path)
        for name, p in model.params.items():
            np.testing.assert_array_equal(restored.params[name].value, p.value)
            assert restored.params[name].kind == p.kind

    def test_roundtrip_mlp(self, tmp_path):
        model = build_any(MlpConfig(6, 3, (4,)), seed=2)
        path = tmp_path / "mlp.npz"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        y = np.random.default_rng(1).normal(size=6)
        np.testing.assert_array_equal(model.forward(y).forecast,
                                      restored.forward(y).forecast)

    def test_writes_exactly_the_given_path(self, tmp_path):
        _, model = midas_model(seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
        y = np.random.default_rng(4).normal(size=24)
        np.testing.assert_array_equal(load_checkpoint(path).forward(y).forecast,
                                      model.forward(y).forecast)

    def test_bytes_match_numpy_savez_of_a_path(self, tmp_path):
        _, model = midas_model(seed=5)
        ours = tmp_path / "ours.npz"
        save_checkpoint(model, ours)
        with np.load(ours) as npz:
            arrays = {k: npz[k] for k in npz.files}
        ref = tmp_path / "ref.npz"
        np.savez(ref, **arrays)
        assert ours.read_bytes() == ref.read_bytes()

    def test_failed_save_keeps_the_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        import dmidas.model as model_mod

        path = tmp_path / "member_0.npz"
        save_checkpoint(midas_model(seed=1)[1], path)
        before = path.read_bytes()

        def broken_savez(handle, **arrays):
            handle.write(b"PK\x03\x04 partial")
            raise OSError("disk full")

        monkeypatch.setattr(model_mod.np, "savez", broken_savez)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(midas_model(seed=2)[1], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["member_0.npz"]

    def test_missing_path_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="absent.npz"):
            load_checkpoint(tmp_path / "absent.npz")

    @pytest.mark.parametrize("damage", ["text", "truncated", "corrupted", "corrupted-meta"])
    def test_unreadable_file_is_data_error(self, tmp_path, damage):
        _, model = midas_model(seed=6)
        path = tmp_path / "member_0.npz"
        save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        if damage == "text":
            raw = bytearray(b"hello\n")  # numpy takes a non-archive for pickled data
        elif damage == "truncated":
            raw = raw[:100]
        elif damage == "corrupted":
            raw[len(raw) // 2] ^= 0xFF  # inside a stored array: its CRC no longer matches
        else:
            raw[raw.index(b'{"config"')] ^= 0xFF  # the metadata's first byte: its CRC fails
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="member_0.npz"):
            load_checkpoint(path)

    @staticmethod
    def write_malformed(path, kind):
        """A file under an .npz name with no usable checkpoint metadata."""
        if kind == "npy":
            with open(path, "wb") as handle:  # what np.save writes
                np.save(handle, np.arange(3.0))
            return
        config = model_config_to_dict(midas_model()[0])
        meta = {"not-json": b"{version: 1",
                "list": b"[1, 2]",
                "no-config": b'{"version": 1, "params": []}',
                "no-params": json.dumps({"version": 1, "config": config}).encode()}[kind]
        np.savez(path, __meta__=np.frombuffer(meta, dtype=np.uint8))

    @pytest.mark.parametrize("kind", ["npy", "not-json", "list", "no-config", "no-params"])
    def test_malformed_file_is_config_error_naming_it(self, tmp_path, kind):
        path = tmp_path / "m.npz"
        self.write_malformed(path, kind)
        with pytest.raises(ConfigError, match=r"m\.npz"):
            load_checkpoint(path)

    def test_version_field_checked(self, tmp_path):
        import json

        cfg, model = midas_model()
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        with np.load(path) as npz:
            meta = json.loads(bytes(npz["__meta__"]).decode())
            arrays = {k: npz[k] for k in npz.files if k != "__meta__"}
        meta["version"] = 999
        bad = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, __meta__=bad, **arrays)
        with pytest.raises(ConfigError, match="version"):
            load_checkpoint(path)

    def test_parameter_missing_from_checkpoint_rejected(self, tmp_path):
        _, model = midas_model()
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        drop_checkpoint_parameter(path, "s0.b0.mlp0.weight", keep_meta=False)
        with pytest.raises(ConfigError, match=r"missing parameter 's0\.b0\.mlp0\.weight'"):
            load_checkpoint(path)

    def test_parameter_named_without_array_rejected(self, tmp_path):
        _, model = midas_model()
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        drop_checkpoint_parameter(path, "s0.b1.theta_f.bias", keep_meta=True)
        with pytest.raises(ConfigError, match=r"'s0\.b1\.theta_f\.bias' has no array"):
            load_checkpoint(path)

    def test_list_schedules_survive_a_reload(self, tmp_path):
        template = BlockConfig(basis="midas", input_size=24, horizon=8, mlp_widths=(4,))
        cfg = ModelConfig(stacks=(StackConfig(3, template),), input_size=24, horizon=8,
                          base_ratio=0.5, ratio_schedule=[0.5, 0.25, 0.125],
                          pooling_schedule=[2, 4, 8])
        save_checkpoint(build_model(cfg, 0), tmp_path / "m.npz")
        assert load_checkpoint(tmp_path / "m.npz").config == cfg

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_config_format_is_pinned(self, tmp_path, name):
        cfg = golden_config(name)
        save_checkpoint(build_any(cfg, 0), tmp_path / "m.npz")
        with np.load(tmp_path / "m.npz") as npz:
            meta = bytes(npz["__meta__"]).decode()
        assert f'"config": {GOLDEN_CONFIGS[name]}, "params": ' in meta
        assert model_config_from_dict(json.loads(GOLDEN_CONFIGS[name])) == cfg

    @pytest.mark.parametrize("key, value", [("ratio_schedule", "linear"),
                                            ("pooling_schedule", "x")])
    def test_bad_schedule_in_checkpoint_is_config_error_naming_it(self, tmp_path, key, value):
        path = tmp_path / "member_0.npz"
        save_checkpoint(midas_model()[1], path)
        edit_checkpoint_config(path, lambda config: config.update({key: value}))
        with pytest.raises(ConfigError, match=rf"member_0\.npz.*'{value}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("where", [(), ("stacks", 0), ("stacks", 0, "block_template"),
                                       ("stacks", 0, "block_template", "pooling"), "mlp"],
                             ids=["model", "stack", "block", "pooling", "mlp"])
    def test_unknown_config_key_in_checkpoint_rejected(self, tmp_path, where):
        path = tmp_path / "m.npz"
        save_checkpoint(build_any(MlpConfig(8, 4, (3,)) if where == "mlp"
                                  else midas_model()[0], 0), path)

        def add_unknown_key(config):
            for key in () if where == "mlp" else where:
                config = config[key]
            config["dropout"] = 0.1

        edit_checkpoint_config(path, add_unknown_key)
        with pytest.raises(ConfigError, match=r"m\.npz.*dropout"):
            load_checkpoint(path)

    def test_build_any_dispatch(self):
        cfg, _ = midas_model()
        assert build_any(cfg, 0).horizon == 8
        assert build_any(MlpConfig(8, 4, (4,)), 0).horizon == 4
        with pytest.raises(ConfigError):
            build_any("nope", 0)

    @pytest.mark.parametrize("shared, edit, blocks", [
        (False, {"n_blocks": 3}, 3),
        (False, {"n_blocks": 2 ** 63}, 2 ** 63),
        (True, {"shared_weights": False}, 3),  # 2 own blocks + the second shared stack
    ])
    def test_block_count_the_arrays_cannot_hold_is_rejected_before_building(
            self, tmp_path, monkeypatch, shared, edit, blocks):
        import dmidas.model as model_mod

        template = BlockConfig(basis="generic", input_size=8, horizon=4, mlp_widths=(3,))
        stacks = (StackConfig(2, template, True),) * 2 if shared else (StackConfig(2, template),)
        path = tmp_path / "m.npz"
        save_checkpoint(build_model(ModelConfig(stacks=stacks, input_size=8, horizon=4), 0), path)
        edit_checkpoint_config(path, lambda config: config["stacks"][0].update(edit))

        def no_assembly(*args):
            raise AssertionError("load_checkpoint built a model")

        monkeypatch.setattr(model_mod, "_assemble", no_assembly)
        with pytest.raises(ConfigError, match=rf"m\.npz': checkpoint config has {blocks} blocks "
                                              rf"with their own parameters, but the file "
                                              rf"stores arrays for 2$"):
            load_checkpoint(path)

    def test_fewer_blocks_than_the_arrays_keeps_the_parameter_message(self, tmp_path):
        template = BlockConfig(basis="generic", input_size=8, horizon=4, mlp_widths=(3,))
        path = tmp_path / "m.npz"
        save_checkpoint(build_model(ModelConfig(stacks=(StackConfig(2, template),),
                                                input_size=8, horizon=4), 0), path)
        edit_checkpoint_config(path, lambda config: config["stacks"][0].update(n_blocks=1))
        with pytest.raises(ConfigError, match=r"'s0\.b1\.mlp0\.weight' not present in model"):
            load_checkpoint(path)

    def test_a_huge_width_is_rejected_before_anything_is_allocated(self, tmp_path, monkeypatch):
        path = tmp_path / "m.npz"
        save_checkpoint(build_any(MlpConfig(8, 4, (3,)), 0), path)
        edit_checkpoint_config(path, lambda config: config.update(widths=[2 ** 31]))
        zeros = np.zeros

        def small_zeros(shape, *args, **kwargs):
            assert np.prod(shape, dtype=float) < 2 ** 20, f"np.zeros{shape}"
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", small_zeros)
        with pytest.raises(ConfigError, match=r"m\.npz': checkpoint parameter 'mlp0\.weight' has "
                                              r"shape \(8, 3\), expected \(8, 2147483648\)$"):
            load_checkpoint(path)


def _resave(path, transform=lambda key, arr: arr, savez=np.savez):
    """Rewrite a checkpoint with each array passed through ``transform``."""
    with np.load(path) as npz:
        arrays = {k: transform(k, npz[k]) for k in npz.files}
    with open(path, "wb") as handle:
        savez(handle, **arrays)


def _npy_header_span(path, key):
    """Start and end offsets in the file of member ``key``'s npy magic and header."""
    raw = path.read_bytes()
    with zipfile.ZipFile(path) as archive:
        start = raw.index(b"\x93NUMPY", archive.getinfo(key + ".npy").header_offset)
    n_header = int.from_bytes(raw[start + 8:start + 10], "little")  # version 1.0 length
    return start, start + 10 + n_header


def _edited_npy_header(npy, old, new):
    """``npy`` (magic, version 1.0 header, then any data) with ``old`` replaced by
    ``new`` in its header text, padded with spaces so that the header keeps its
    length."""
    end = 10 + int.from_bytes(npy[8:10], "little")
    text = npy[10:end]
    assert old in text
    edited = text.replace(old, new).rstrip(b" \n")
    assert len(edited) < len(text)
    return npy[:10] + edited.ljust(len(text) - 1) + b"\n" + npy[end:]


def _rewrite_npy_header(path, key, old, new, member="stored"):
    """Replace ``old`` with ``new`` in member ``key``'s npy header text. A
    ``stored`` member is edited in place (its CRC then fails); with
    ``compressed``, every member is written again deflated, with a CRC that
    holds."""
    if member == "stored":
        raw = bytearray(path.read_bytes())
        start, end = _npy_header_span(path, key)
        raw[start:end] = _edited_npy_header(bytes(raw[start:end]), old, new)
        path.write_bytes(bytes(raw))
        return
    with zipfile.ZipFile(path) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    members[key + ".npy"] = _edited_npy_header(members[key + ".npy"], old, new)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
        for name, data in members.items():
            archive.writestr(name, data)


class TestCheckpointReads:
    """``load_checkpoint`` reads what ``np.load`` reads, and rejects damage early."""

    KINDS = ("dmidas", "nbeats-g", "nbeats-i", "mlp")

    @staticmethod
    def model_of(kind):
        spec = ModelSpec(name=kind, kind=kind, blocks_per_stack=2, mlp_widths=(8, 6))
        return build_any(model_config_for(spec, 24, 8), seed=3)

    @pytest.mark.parametrize("resave", ["as-saved", "fortran", "big-endian", "compressed"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_parameters_equal_numpy_load_bit_for_bit(self, tmp_path, kind, resave):
        path = tmp_path / "member_0.npz"
        save_checkpoint(self.model_of(kind), path)
        if resave == "fortran":  # the first 2-D parameter, stored column-major
            first = next(k for k in np.load(path).files if k.endswith(".weight"))
            _resave(path, lambda k, a: np.asfortranarray(a) if k == first else a)
        elif resave == "big-endian":
            _resave(path, lambda k, a: a.astype(">f8") if k.startswith("p:") else a)
        elif resave == "compressed":
            _resave(path, savez=np.savez_compressed)
        restored = load_checkpoint(path)
        with np.load(path) as npz:
            arrays = {k[2:]: npz[k] for k in npz.files if k.startswith("p:")}
        assert sorted(arrays) == sorted(restored.params.names())
        for name, arr in arrays.items():
            value = restored.params[name].value
            assert value.dtype == np.float64 and value.shape == arr.shape
            assert value.tobytes() == arr.astype(np.float64).tobytes(), name

    def test_every_flipped_byte_of_an_npy_header_is_a_data_error(self, tmp_path):
        path = tmp_path / "member_0.npz"
        # 8 KiB: zipfile reads a member under 4 KiB whole, so would check its CRC first
        save_checkpoint(build_any(MlpConfig(64, 8, (16,)), seed=0), path)
        good = path.read_bytes()
        start, end = _npy_header_span(path, "p:mlp0.weight")
        for at in range(start, end):
            raw = bytearray(good)
            raw[at] ^= 0xFF
            path.write_bytes(bytes(raw))
            with pytest.raises(DataError, match=r"cannot read checkpoint '.*member_0\.npz'"):
                load_checkpoint(path)

    def test_every_flipped_byte_of_compressed_data_is_a_data_error_or_no_change(self, tmp_path):
        path = tmp_path / "member_0.npz"
        model = build_any(MlpConfig(32, 8, (16,)), seed=0)
        save_checkpoint(model, path)
        _resave(path, savez=np.savez_compressed)
        good = path.read_bytes()
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo("p:mlp0.weight.npy")
        # the data follows the 30-byte local header, the name and the extra field
        local = info.header_offset
        n_name, n_extra = struct.unpack("<HH", good[local + 26:local + 30])
        start = local + 30 + n_name + n_extra
        assert info.compress_type == zipfile.ZIP_DEFLATED and info.compress_size > 3000
        for at in range(start, start + info.compress_size):
            raw = bytearray(good)
            raw[at] ^= 0xFF
            path.write_bytes(bytes(raw))
            try:
                restored = load_checkpoint(path)
            except DataError as exc:
                assert re.match(r"cannot read checkpoint '.*member_0\.npz'", str(exc)), at
                continue
            for name, p in model.params.items():
                assert restored.params[name].value.tobytes() == p.value.tobytes(), at

    @staticmethod
    def large_checkpoint(path):
        """An MLP whose first weight is 2 MiB of the file's ~2.1 MiB."""
        save_checkpoint(build_any(MlpConfig(256, 4, (1024,)), seed=0), path)
        return path.stat().st_size

    @staticmethod
    def rejected_peak(path, error):
        """Peak traced bytes while ``load_checkpoint(path)`` raises ``error``."""
        tracemalloc.start()
        try:
            with pytest.raises(error, match=r"m\.npz"):
                load_checkpoint(path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("member", ["stored", "compressed"])
    def test_a_header_claiming_2_to_the_40_elements_allocates_nothing(self, tmp_path, member):
        path = tmp_path / "m.npz"
        size = self.large_checkpoint(path)
        _rewrite_npy_header(path, "p:mlp0.weight", b"'shape': (256, 1024)",
                            f"'shape': ({2 ** 40},)".encode(), member)
        assert self.rejected_peak(path, DataError) < size // 4

    def test_a_local_header_name_unlike_the_directory_allocates_nothing(self, tmp_path):
        path = tmp_path / "m.npz"
        size = self.large_checkpoint(path)
        with zipfile.ZipFile(path) as archive:  # the name follows the 30-byte local header
            at = archive.getinfo("p:mlp0.weight.npy").header_offset + 30
        raw = path.read_bytes()
        assert raw[at:at + 17] == b"p:mlp0.weight.npy"
        path.write_bytes(raw[:at] + b"q" + raw[at + 1:])
        assert self.rejected_peak(path, DataError) < size // 4
