"""Assemble blocks into doubly-residual stacks, decompose forecasts,
schedule expressivity ratios, count parameters and checkpoint models.
"""

from __future__ import annotations

import json
import os
import sys
import uuid
import zipfile
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import engine
from .blocks import Block, BlockConfig, PoolSpec
from .engine import GradientTape
from .errors import ConfigError, DataError
from .params import ParameterStore, apply_affine, fan_in_init, register_affine

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
        self._set_schedule("ratio_schedule", "exponential", float)
        if self.ratio_schedule != "exponential" and not all(
                0.0 < r <= 1.0 for r in self.ratio_schedule):
            raise ConfigError(f"per-block ratios {self.ratio_schedule} must lie in (0, 1]")
        if not isinstance(self.pooling_schedule, int):
            self._set_schedule("pooling_schedule", "auto", int)
        self._check_midas_stacks()

    def _set_schedule(self, name: str, keyword: str, convert) -> None:
        """Keep ``keyword``; store an explicit schedule as one converted value per block."""
        schedule = getattr(self, name)
        if isinstance(schedule, str):
            if schedule != keyword:
                raise ConfigError(f"unknown {name} '{schedule}'")
            return
        values = tuple(convert(v) for v in schedule)
        if len(values) != self.total_blocks:
            raise ConfigError(f"{name} lists {len(values)} values for {self.total_blocks} blocks")
        object.__setattr__(self, name, values)

    def _check_midas_stacks(self) -> None:
        """Reject the midas blocks that could not be built: a ratio below the
        smallest normal float (1 / r, and so the default pooling kernel, would
        overflow or divide by zero), a pooling kernel below 1, and a
        weight-sharing stack whose blocks resolve to different shapes."""
        tiny = sys.float_info.min
        explicit = (isinstance(self.ratio_schedule, tuple)
                    or isinstance(self.pooling_schedule, tuple))
        end = 0
        for i, s in enumerate(self.stacks):
            start, end = end, end + s.n_blocks
            if s.block_template.basis != "midas":
                continue
            if self.ratio_schedule == "exponential":
                if self.base_ratio ** end < tiny:  # the stack's last, smallest ratio
                    raise ConfigError(
                        f"base_ratio = {self.base_ratio} over {end} blocks gives block {end} "
                        f"a ratio below the smallest normal float {tiny:g}")
            elif min(self.ratio_schedule[start:end]) < tiny:
                raise ConfigError(f"ratio_schedule holds a midas block ratio below the "
                                  f"smallest normal float {tiny:g}")
            # Exponential ratios differ from one block to the next unless r = 1,
            # so two blocks decide unless a schedule lists every block.
            last = end if explicit else min(end, start + 2)
            shapes = {self.midas_shape(l) for l in range(start, last)}
            kernel = min(k for _, k in shapes)
            if kernel < 1:
                raise ConfigError(f"pooling kernel must be >= 1, got {kernel} "
                                  f"(pooling_schedule, stack {i})")
            if s.shared_weights and len(shapes) > 1:
                raise ConfigError(
                    f"stack {i} shares weights but its blocks resolve to "
                    f"different shapes (is a varying ratio schedule in effect?)")

    def midas_shape(self, l: int) -> tuple[float, int]:
        """Expressivity ratio and pooling kernel of block ``l`` (0-based, across
        stacks) if it is a midas block."""
        if self.ratio_schedule == "exponential":
            ratio = self.base_ratio ** (l + 1)
        else:
            ratio = self.ratio_schedule[l]
        kernels = self.pooling_schedule
        if kernels == "auto":
            return ratio, default_pool_kernel(ratio, self.input_size)
        return ratio, kernels if isinstance(kernels, int) else kernels[l]

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
    resolved = []
    for s_idx, stack in enumerate(config.stacks):
        for b_idx in range(stack.n_blocks):
            template = stack.block_template
            if template.basis == "midas":
                ratio, kernel = config.midas_shape(len(resolved))
                pool = PoolSpec(kernel=kernel, stride=kernel, mode=template.pooling.mode)
                bconf = replace(template, expressivity_ratio=ratio, pooling=pool)
            else:
                bconf = template
            prefix = f"s{s_idx}.shared" if stack.shared_weights else f"s{s_idx}.b{b_idx}"
            resolved.append((prefix, bconf, not stack.shared_weights or b_idx == 0))
    return resolved


def input_vector(model, y_in) -> np.ndarray:
    """``y_in`` as the float64 vector of ``model.input_size`` lags that a
    single-window forecast takes; any other shape is a ``ConfigError``."""
    y = np.asarray(y_in, dtype=np.float64)
    if y.ndim != 1 or y.shape[0] != model.input_size:
        raise ConfigError(f"expected an input vector of length {model.input_size}, "
                          f"got shape {y.shape}")
    return y


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
        empty unless ``collect`` is set. The last block's backcast and residual
        feed only that trace, so they are computed only with ``collect``.
        """
        residual = x
        forecast = None
        components: list = []
        residuals: list = []
        last = len(self.blocks) - 1
        for k, block in enumerate(self.blocks):
            out = block.forward(self.params, residual, tape, backcast=collect or k < last)
            if out.backcast is not None:
                residual = engine.sub(residual, out.backcast, tape)
            forecast = out.forecast if forecast is None else engine.add(forecast, out.forecast, tape)
            if collect:
                components.append(out.forecast)
                residuals.append(residual)
        return forecast, components, residuals

    def forward(self, y_in) -> ForecastBundle:
        """Forecast a single input window, keeping the per-block decomposition."""
        y = input_vector(self, y_in)
        forecast, components, residuals = self.forward_batch(y, tape=None, collect=True)
        return ForecastBundle(
            forecast=engine.value_of(forecast).copy(),
            components=[engine.value_of(c).copy() for c in components],
            residual_trace=[engine.value_of(r).copy() for r in residuals],
            block_labels=self.block_labels(),
        )


def build_model(config: ModelConfig, seed: int) -> StackedForecaster:
    """Allocate and initialize all blocks; deterministic for a fixed seed."""
    return build_any(config, seed)


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
        if not self.widths or min(self.widths) < 1:
            raise ConfigError(f"mlp baseline needs positive hidden widths, got {self.widths}")
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

    def block_labels(self) -> list[str]:
        return ["mlp"]

    def forward_batch(self, x, tape: GradientTape | None = None, collect: bool = False):
        h = x
        for i in range(len(self.config.widths)):
            h = engine.relu(apply_affine(self.params, f"mlp{i}", h, tape), tape)
        forecast = apply_affine(self.params, "out", h, tape)
        return forecast, ([forecast] if collect else []), []


def _assemble(config, init):
    """The model of ``config``, its parameters valued by ``init`` (see
    ``params.register_affine``) in registration order."""
    store = ParameterStore()
    if isinstance(config, MlpConfig):
        fan_ins = (config.input_size,) + config.widths
        outs = [f"mlp{i}" for i in range(len(config.widths))] + ["out"]
        register_affine(store, zip(outs, fan_ins, config.widths + (config.horizon,)), init)
        return MlpForecaster(config, store)
    if not isinstance(config, ModelConfig):
        raise ConfigError(f"cannot build a model from {type(config).__name__}")
    blocks = []
    for prefix, bconf, first in _resolve_blocks(config):
        block = Block(bconf, prefix)
        if first:
            block.register(store, init)
        blocks.append(block)
    return StackedForecaster(config, blocks, store)


def build_any(config, seed: int):
    """Dispatch on config type; the uniform entry point for ensembles.
    Deterministic for a fixed seed."""
    return _assemble(config, fan_in_init(np.random.default_rng(seed)))


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

def model_config_to_dict(config) -> dict:
    """The config's dataclass fields, nested as plain JSON values, tagged by kind."""
    return {"kind": "mlp" if isinstance(config, MlpConfig) else "stacked", **asdict(config)}


def model_config_from_dict(d: dict):
    """Inverse of ``model_config_to_dict``; each dataclass validates its own fields."""
    fields = dict(d)
    kind = fields.pop("kind", None)
    if kind == "mlp":
        return MlpConfig(**fields)
    if kind != "stacked":
        raise ConfigError(f"unknown model kind '{kind}' in checkpoint")
    stacks = []
    for stack in fields.pop("stacks"):
        block = dict(stack["block_template"])
        block["pooling"] = PoolSpec(**block["pooling"])
        stacks.append(StackConfig(**{**stack, "block_template": BlockConfig(**block)}))
    return ModelConfig(stacks=stacks, **fields)


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
        if isinstance(config, ModelConfig):
            # Counted before anything is built: a block count the arrays cannot
            # hold would otherwise be assembled block by block.
            blocks = sum(1 if s.shared_weights else s.n_blocks for s in config.stacks)
            prefixes = {key[2:].rsplit(".", 2)[0] for key in arrays if key.startswith("p:")}
            if blocks > len(prefixes):
                raise ConfigError(f"checkpoint config has {blocks} blocks with their own "
                                  f"parameters, but the file stores arrays for {len(prefixes)}")

        def stored(name, fan_in, shape):
            # each array is checked before it is used, so a bad file allocates nothing
            if name not in shapes:
                raise ConfigError(f"checkpoint is missing parameter '{name}' of its model")
            arr = arrays.get("p:" + name)
            if arr is None:
                raise ConfigError(f"checkpoint parameter '{name}' has no array")
            if arr.shape != shape or list(shape) != shapes[name]:
                raise ConfigError(f"checkpoint parameter '{name}' has shape {arr.shape}, "
                                  f"expected {shape}")
            return arr

        model = _assemble(config, stored)
    except ConfigError as exc:
        raise ConfigError(f"'{path}': {exc}") from None
    except KeyError as exc:
        raise ConfigError(f"'{path}' has checkpoint metadata without key {exc}") from None
    except (ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(f"'{path}' has malformed checkpoint metadata: {exc}") from None
    for name in shapes:
        if name not in model.params:
            raise ConfigError(f"'{path}': checkpoint parameter '{name}' not present in model")
    return model
