"""Assemble blocks into doubly-residual stacks, decompose forecasts,
schedule expressivity ratios, count parameters and checkpoint models.
"""

from __future__ import annotations

import json
import os
import uuid
import zipfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import engine
from .blocks import Block, BlockConfig, PoolSpec
from .engine import GradientTape
from .errors import ConfigError, DataError
from .params import ParameterStore, uniform_fan_in

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class StackConfig:
    """A homogeneous run of blocks sharing one template."""

    n_blocks: int
    block_template: BlockConfig
    shared_weights: bool = False

    def __post_init__(self):
        if self.n_blocks < 1:
            raise ConfigError(f"a stack needs at least one block, got {self.n_blocks}")


@dataclass(frozen=True)
class ModelConfig:
    """Full model description: stacks plus the ratio and pooling schedules.

    ``ratio_schedule`` is either "exponential" (ratio of block l is
    base_ratio**l with l counted 1-based across all stacks) or an explicit
    per-block tuple. ``pooling_schedule`` is "auto" (kernel max(1, floor(1/r_l)),
    stride equal to kernel, average mode), a constant int, or a per-block tuple.
    Schedules apply to midas blocks only.
    """

    stacks: tuple[StackConfig, ...]
    input_size: int
    horizon: int
    base_ratio: float = 1.0
    ratio_schedule: object = "exponential"
    pooling_schedule: object = "auto"

    def __post_init__(self):
        object.__setattr__(self, "stacks", tuple(self.stacks))
        if not self.stacks:
            raise ConfigError("a model needs at least one stack")
        for s in self.stacks:
            t = s.block_template
            if t.input_size != self.input_size or t.horizon != self.horizon:
                raise ConfigError(
                    f"stack template (L={t.input_size}, H={t.horizon}) disagrees with "
                    f"model (L={self.input_size}, H={self.horizon})")
        if not 0.0 < self.base_ratio <= 1.0:
            raise ConfigError(f"base ratio must lie in (0, 1], got {self.base_ratio}")

    @property
    def total_blocks(self) -> int:
        return sum(s.n_blocks for s in self.stacks)


@dataclass
class ForecastBundle:
    """A forecast plus its additive per-block decomposition and residual trace."""

    forecast: np.ndarray
    components: list[np.ndarray]
    residual_trace: list[np.ndarray]
    block_labels: list[str]


def expressivity_schedule(r: float, total_blocks: int) -> list[float]:
    """Per-block ratios r**1, r**2, ..., r**B in stacking order."""
    if not 0.0 < r <= 1.0:
        raise ConfigError(f"expressivity base ratio must lie in (0, 1], got {r}")
    return [r ** l for l in range(1, total_blocks + 1)]


def default_pool_kernel(ratio: float, input_size: int) -> int:
    """Input coarsening matched to the output knot density: floor(1/r),
    clamped to [1, input_size] so one pooled sample always survives."""
    return min(input_size, max(1, int(1.0 / ratio + 1e-9)))


def _resolve_blocks(config: ModelConfig) -> list[tuple[str, BlockConfig, bool]]:
    """Concrete per-block configs: (prefix, config, is_first_with_prefix)."""
    ratios = None
    if config.ratio_schedule == "exponential":
        ratios = expressivity_schedule(config.base_ratio, config.total_blocks)
    else:
        ratios = [float(r) for r in config.ratio_schedule]
        if len(ratios) != config.total_blocks:
            raise ConfigError(f"ratio schedule lists {len(ratios)} values for "
                              f"{config.total_blocks} blocks")
        for r in ratios:
            if not 0.0 < r <= 1.0:
                raise ConfigError(f"per-block ratio {r} outside (0, 1]")

    kernels = None
    if isinstance(config.pooling_schedule, int):
        kernels = [config.pooling_schedule] * config.total_blocks
    elif config.pooling_schedule != "auto":
        kernels = [int(k) for k in config.pooling_schedule]
        if len(kernels) != config.total_blocks:
            raise ConfigError(f"pooling schedule lists {len(kernels)} kernels for "
                              f"{config.total_blocks} blocks")

    resolved = []
    l = 0
    for s_idx, stack in enumerate(config.stacks):
        for b_idx in range(stack.n_blocks):
            template = stack.block_template
            if template.basis == "midas":
                r_l = ratios[l]
                kernel = (kernels[l] if kernels is not None
                          else default_pool_kernel(r_l, template.input_size))
                pool = PoolSpec(kernel=kernel, stride=kernel, mode=template.pooling.mode)
                bconf = replace(template, expressivity_ratio=r_l, pooling=pool)
            else:
                bconf = template
            if stack.shared_weights:
                prefix = f"s{s_idx}.shared"
                if b_idx > 0 and bconf != resolved[-1][1]:
                    raise ConfigError(
                        f"stack {s_idx} shares weights but its blocks resolve to "
                        f"different shapes (is a varying ratio schedule in effect?)")
                first = b_idx == 0
            else:
                prefix = f"s{s_idx}.b{b_idx}"
                first = True
            resolved.append((prefix, bconf, first))
            l += 1
    return resolved


class StackedForecaster:
    """Blocks chained by doubly residual connections over one parameter store."""

    def __init__(self, config: ModelConfig, blocks: list[Block], params: ParameterStore):
        self.config = config
        self.blocks = blocks
        self.params = params

    @property
    def input_size(self) -> int:
        return self.config.input_size

    @property
    def horizon(self) -> int:
        return self.config.horizon

    def block_labels(self) -> list[str]:
        return [b.label() for b in self.blocks]

    def forward_batch(self, x, tape: GradientTape | None = None, collect: bool = False):
        """Forward on a (N, L) batch or an (L,) vector.

        Returns (forecast, components, residual_trace); the trailing lists are
        empty unless ``collect`` is set.
        """
        residual = x
        forecast = None
        components: list = []
        residuals: list = []
        for block in self.blocks:
            out = block.forward(self.params, residual, tape)
            residual = engine.sub(residual, out.backcast, tape)
            forecast = out.forecast if forecast is None else engine.add(forecast, out.forecast, tape)
            if collect:
                components.append(out.forecast)
                residuals.append(residual)
        return forecast, components, residuals

    def forward(self, y_in) -> ForecastBundle:
        """Forecast a single input window, keeping the per-block decomposition."""
        y = np.asarray(y_in, dtype=np.float64)
        if y.ndim != 1 or y.shape[0] != self.input_size:
            raise ConfigError(f"expected an input vector of length {self.input_size}, "
                              f"got shape {y.shape}")
        forecast, components, residuals = self.forward_batch(y, tape=None, collect=True)
        return ForecastBundle(
            forecast=engine.value_of(forecast).copy(),
            components=[engine.value_of(c).copy() for c in components],
            residual_trace=[engine.value_of(r).copy() for r in residuals],
            block_labels=self.block_labels(),
        )

    def decompose(self, y_in) -> ForecastBundle:
        """Alias of forward; the bundle already carries labeled components."""
        return self.forward(y_in)


def build_model(config: ModelConfig, seed: int) -> StackedForecaster:
    """Allocate and initialize all blocks; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    blocks = []
    for prefix, bconf, first in _resolve_blocks(config):
        block = Block(bconf, prefix)
        if first:
            block.register(store, rng)
        blocks.append(block)
    return StackedForecaster(config, blocks, store)


# ---------------------------------------------------------------------------
# MLP baseline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MlpConfig:
    """Plain fully-connected multi-horizon forecaster."""

    input_size: int
    horizon: int
    widths: tuple[int, ...] = (512, 512)

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if not self.widths:
            raise ConfigError("mlp baseline needs at least one hidden width")
        if self.input_size < 1 or self.horizon < 1:
            raise ConfigError("input_size and horizon must be >= 1")


class MlpForecaster:
    """Direct multi-horizon MLP with the same forward/train surface as the stack."""

    def __init__(self, config: MlpConfig, params: ParameterStore):
        self.config = config
        self.params = params

    input_size = StackedForecaster.input_size
    horizon = StackedForecaster.horizon
    forward = StackedForecaster.forward
    decompose = StackedForecaster.decompose

    def block_labels(self) -> list[str]:
        return ["mlp"]

    def forward_batch(self, x, tape: GradientTape | None = None, collect: bool = False):
        h = x
        for i in range(len(self.config.widths)):
            h = engine.relu(engine.affine(h, self.params[f"mlp{i}.weight"],
                                          self.params[f"mlp{i}.bias"], tape), tape)
        forecast = engine.affine(h, self.params["out.weight"], self.params["out.bias"], tape)
        return forecast, ([forecast] if collect else []), []


def build_mlp_baseline(input_size: int, horizon: int, widths, seed: int) -> MlpForecaster:
    """A parsimonious fully-connected multi-horizon baseline."""
    config = MlpConfig(input_size, horizon, tuple(widths))
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    fan_in = config.input_size
    for i, width in enumerate(config.widths):
        store.add(f"mlp{i}.weight", uniform_fan_in(rng, fan_in, (fan_in, width)), kind="weight")
        store.add(f"mlp{i}.bias", uniform_fan_in(rng, fan_in, (width,)), kind="bias")
        fan_in = width
    store.add("out.weight", uniform_fan_in(rng, fan_in, (fan_in, config.horizon)), kind="weight")
    store.add("out.bias", uniform_fan_in(rng, fan_in, (config.horizon,)), kind="bias")
    return MlpForecaster(config, store)


def build_any(config, seed: int):
    """Dispatch on config type; the uniform entry point for ensembles."""
    if isinstance(config, ModelConfig):
        return build_model(config, seed)
    if isinstance(config, MlpConfig):
        return build_mlp_baseline(config.input_size, config.horizon, config.widths, seed)
    raise ConfigError(f"cannot build a model from {type(config).__name__}")


# ---------------------------------------------------------------------------
# Parameter accounting
# ---------------------------------------------------------------------------

@dataclass
class ParamCountReport:
    """Exact per-layer sizes plus coefficient-output totals and the geometric bound."""

    per_layer: dict[str, int]
    total: int
    forecast_theta_total: int
    backcast_theta_total: int
    generic_forecast_total: int
    geometric_closed_form: float | None = None

    def render(self) -> str:
        lines = ["layer breakdown:"]
        for name, size in self.per_layer.items():
            lines.append(f"  {name:<40s} {size:>10d}")
        lines.append(f"  {'total':<40s} {self.total:>10d}")
        lines.append(f"forecast coefficient outputs: {self.forecast_theta_total}")
        lines.append(f"backcast coefficient outputs: {self.backcast_theta_total}")
        lines.append(f"full-resolution forecast outputs (H per block): {self.generic_forecast_total}")
        if self.geometric_closed_form is not None:
            lines.append(f"geometric closed form H*r*(1-r^B)/(1-r): {self.geometric_closed_form:g}")
        return "\n".join(lines)


def count_parameters(model) -> ParamCountReport:
    """Walk the store for exact counts; knot totals come from the block configs."""
    per_layer = {name: p.value.size for name, p in model.params.items()}
    total = sum(per_layer.values())
    if isinstance(model, MlpForecaster):
        return ParamCountReport(per_layer=per_layer, total=total,
                                forecast_theta_total=model.horizon,
                                backcast_theta_total=0,
                                generic_forecast_total=model.horizon)

    seen = set()
    fc_total = 0
    bc_total = 0
    for block in model.blocks:
        if block.prefix in seen:
            continue
        seen.add(block.prefix)
        kf, kb = block.config.theta_sizes()
        fc_total += kf
        bc_total += kb
    n_groups = len(seen)
    generic_total = n_groups * model.horizon

    geometric = None
    cfg = model.config
    if (cfg.ratio_schedule == "exponential"
            and all(b.config.basis == "midas" for b in model.blocks)
            and len(seen) == len(model.blocks)):
        r, h, b = cfg.base_ratio, cfg.horizon, cfg.total_blocks
        geometric = float(h * b) if r == 1.0 else h * r * (1.0 - r ** b) / (1.0 - r)
    return ParamCountReport(per_layer=per_layer, total=total,
                            forecast_theta_total=fc_total,
                            backcast_theta_total=bc_total,
                            generic_forecast_total=generic_total,
                            geometric_closed_form=geometric)


def generic_twin(config: ModelConfig) -> ModelConfig:
    """The same stack structure with every block replaced by a generic block."""
    stacks = []
    for s in config.stacks:
        template = replace(s.block_template, basis="generic", expressivity_ratio=1.0,
                           pooling=PoolSpec())
        stacks.append(StackConfig(s.n_blocks, template, s.shared_weights))
    return ModelConfig(stacks=tuple(stacks), input_size=config.input_size,
                       horizon=config.horizon, base_ratio=1.0,
                       ratio_schedule="exponential", pooling_schedule=1)


# ---------------------------------------------------------------------------
# Checkpoints: single self-describing npz container
# ---------------------------------------------------------------------------

def _pool_to_dict(p: PoolSpec) -> dict:
    return {"kernel": p.kernel, "stride": p.stride, "mode": p.mode}


def _block_to_dict(b: BlockConfig) -> dict:
    return {"basis": b.basis, "input_size": b.input_size, "horizon": b.horizon,
            "mlp_widths": list(b.mlp_widths), "pooling": _pool_to_dict(b.pooling),
            "expressivity_ratio": b.expressivity_ratio, "poly_degree": b.poly_degree,
            "n_harmonics": b.n_harmonics}


def _block_from_dict(d: dict) -> BlockConfig:
    pool = d.get("pooling", {})
    return BlockConfig(basis=d["basis"], input_size=d["input_size"], horizon=d["horizon"],
                       mlp_widths=tuple(d["mlp_widths"]),
                       pooling=PoolSpec(kernel=pool.get("kernel", 1),
                                        stride=pool.get("stride"),
                                        mode=pool.get("mode", "avg")),
                       expressivity_ratio=d.get("expressivity_ratio", 1.0),
                       poly_degree=d.get("poly_degree", 2),
                       n_harmonics=d.get("n_harmonics", 4))


def model_config_to_dict(config) -> dict:
    if isinstance(config, MlpConfig):
        return {"kind": "mlp", "input_size": config.input_size,
                "horizon": config.horizon, "widths": list(config.widths)}
    sched = config.ratio_schedule
    if sched != "exponential":
        sched = [float(r) for r in sched]
    pooling = config.pooling_schedule
    if pooling not in ("auto",) and not isinstance(pooling, int):
        pooling = [int(k) for k in pooling]
    return {"kind": "stacked", "input_size": config.input_size, "horizon": config.horizon,
            "base_ratio": config.base_ratio, "ratio_schedule": sched,
            "pooling_schedule": pooling,
            "stacks": [{"n_blocks": s.n_blocks, "shared_weights": s.shared_weights,
                        "block_template": _block_to_dict(s.block_template)}
                       for s in config.stacks]}


def model_config_from_dict(d: dict):
    kind = d.get("kind")
    if kind == "mlp":
        return MlpConfig(d["input_size"], d["horizon"], tuple(d["widths"]))
    if kind != "stacked":
        raise ConfigError(f"unknown model kind '{kind}' in checkpoint")
    sched = d["ratio_schedule"]
    if isinstance(sched, list):
        sched = tuple(sched)
    pooling = d["pooling_schedule"]
    if isinstance(pooling, list):
        pooling = tuple(pooling)
    stacks = tuple(StackConfig(s["n_blocks"], _block_from_dict(s["block_template"]),
                               s.get("shared_weights", False)) for s in d["stacks"])
    return ModelConfig(stacks=stacks, input_size=d["input_size"], horizon=d["horizon"],
                       base_ratio=d["base_ratio"], ratio_schedule=sched,
                       pooling_schedule=pooling)


def save_checkpoint(model, path) -> None:
    """Write config and every named parameter (little-endian float64) to one file.

    The bytes go to a temporary file beside ``path`` that then replaces it, so a
    save that fails part way leaves any earlier checkpoint at ``path`` intact.
    """
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": model_config_to_dict(model.config),
        "params": [{"name": name, "kind": p.kind, "shape": list(p.value.shape)}
                   for name, p in model.params.items()],
    }
    arrays = {"p:" + name: p.value.astype("<f8") for name, p in model.params.items()}
    meta_bytes = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as handle:  # a file object keeps np.savez from adding ".npz"
            np.savez(handle, __meta__=meta_bytes, **arrays)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path):
    """Rebuild a model from a checkpoint, validating version, names, shapes and completeness."""
    try:
        loaded = np.load(path)
        if not isinstance(loaded, np.lib.npyio.NpzFile):
            raise ConfigError(f"'{path}' is not a model checkpoint (not an npz archive)")
        with loaded as npz:
            arrays = {key: npz[key] for key in npz.files}
    except (OSError, EOFError, ValueError, NotImplementedError, zipfile.BadZipFile) as exc:
        raise DataError(f"cannot read checkpoint '{path}': {exc}") from None
    if "__meta__" not in arrays:
        raise ConfigError(f"'{path}' is not a model checkpoint (missing metadata)")
    try:
        meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
        version = meta.get("version")
        if version != CHECKPOINT_VERSION:
            raise ConfigError(f"unsupported checkpoint version {version!r}")
        config = model_config_from_dict(meta["config"])
        shapes = {rec["name"]: rec["shape"] for rec in meta["params"]}
    except KeyError as exc:
        raise ConfigError(f"'{path}' has checkpoint metadata without key {exc}") from None
    except (ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(f"'{path}' has malformed checkpoint metadata: {exc}") from None
    model = build_any(config, seed=0)
    missing = [name for name in model.params.names() if name not in shapes]
    if missing:
        raise ConfigError(f"checkpoint is missing parameter '{missing[0]}' of its model")
    for name, shape in shapes.items():
        if name not in model.params:
            raise ConfigError(f"checkpoint parameter '{name}' not present in model")
        if "p:" + name not in arrays:
            raise ConfigError(f"checkpoint parameter '{name}' has no array")
        arr = arrays["p:" + name]
        if list(arr.shape) != shape or arr.shape != model.params[name].value.shape:
            raise ConfigError(f"checkpoint parameter '{name}' has shape {arr.shape}, "
                              f"expected {model.params[name].value.shape}")
        model.params[name].value[...] = arr
    return model
