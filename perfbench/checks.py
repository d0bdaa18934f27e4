"""Output checks made apart from the program.

Every reference here is plain numpy written from the documented method, not
a call back into dmidas: the pooled-input forward pass and the interpolation
between forecast knots, central finite differences, the bias-corrected Adam
update, sliding-window slicing, the seasonal-naive baseline and the MAE.
Each check returns ``(ok, detail)`` so a run can list what failed.
"""

from __future__ import annotations

import json
import math

import numpy as np

FORWARD_RTOL = 1e-9


def rel_error(a, b) -> float:
    """max |a - b| over max |b|, with a floor of 1e-300 on the scale."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return math.inf
    return float(np.max(np.abs(a - b)) / max(float(np.max(np.abs(b))), 1e-300))


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a, dtype=np.float64), np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# ---------------------------------------------------------------------------
# The documented model, in plain numpy
# ---------------------------------------------------------------------------

def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The metadata and raw parameter arrays of one npz checkpoint."""
    with np.load(path) as npz:
        meta = json.loads(bytes(npz["__meta__"]).decode("utf-8"))
        arrays = {rec["name"]: np.array(npz["p:" + rec["name"]], dtype=np.float64)
                  for rec in meta["params"]}
    return meta, arrays


def block_layout(names) -> list[str]:
    """Block prefixes in forward order, from parameter names like ``s0.b1.mlp0.weight``."""
    prefixes = []
    for name in names:
        prefix = name.rsplit(".", 2)[0]
        if prefix not in prefixes:
            prefixes.append(prefix)
    return prefixes


def schedule_problems(params: dict, prefixes: list[str], n_mlp: int, input_size: int,
                      horizon: int, base_ratio: float) -> list[str]:
    """Shapes that disagree with the documented exponential schedule: block l
    (1-based) has ratio r**l, ceil(r**l * H) forecast knots, ceil(r**l * L)
    backcast knots and an average-pooling kernel of floor(1/r**l)."""
    problems = []
    for l, prefix in enumerate(prefixes, start=1):
        r = base_ratio ** l
        kernel = min(input_size, max(1, int(math.floor(1.0 / r + 1e-9))))
        want_pooled = (input_size - kernel) // kernel + 1
        got = {
            "pooled": params[f"{prefix}.mlp0.weight"].shape[0],
            "knots_f": params[f"{prefix}.theta_f.weight"].shape[1],
            "knots_b": params[f"{prefix}.theta_b.weight"].shape[1],
        }
        want = {"pooled": want_pooled,
                "knots_f": max(1, math.ceil(r * horizon - 1e-9)),
                "knots_b": max(1, math.ceil(r * input_size - 1e-9))}
        for key in want:
            if got[key] != want[key]:
                problems.append(f"{prefix} {key} {got[key]} != {want[key]}")
        if f"{prefix}.mlp{n_mlp - 1}.weight" not in params:
            problems.append(f"{prefix} lacks mlp layer {n_mlp - 1}")
    return problems


def interpolate(theta: np.ndarray, n: int) -> np.ndarray:
    """Knot k sits at k*n/K; steps between knots blend linearly and steps past
    the last knot extend the final segment. One knot is held constant."""
    knots = theta.shape[-1]
    if knots == 1:
        return np.repeat(theta, n, axis=-1)
    pos = np.arange(n) * knots / n
    left = np.minimum(np.floor(pos).astype(np.int64), knots - 2)
    frac = pos - left
    return theta[..., left] * (1.0 - frac) + theta[..., left + 1] * frac


def reference_forward(params: dict, prefixes: list[str], n_mlp: int, x: np.ndarray,
                      horizon: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forecast of one member for rows of ``x``, plus every ReLU's active mask.

    Each block averages its residual input over non-overlapping windows (a
    reshape-mean), runs the ReLU MLP and the two coefficient heads, then
    interpolates the knots over the horizon (forecast) and the input window
    (backcast). The backcast is subtracted from the residual and the
    forecasts add up.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n_rows, length = x.shape
    residual = x.copy()
    forecast = np.zeros((n_rows, horizon))
    masks = []
    for prefix in prefixes:
        pooled = params[f"{prefix}.mlp0.weight"].shape[0]
        kernel = length // pooled
        h = residual[:, :pooled * kernel].reshape(n_rows, pooled, kernel).mean(axis=2)
        for i in range(n_mlp):
            pre = h @ params[f"{prefix}.mlp{i}.weight"] + params[f"{prefix}.mlp{i}.bias"]
            masks.append(pre > 0.0)
            h = np.maximum(pre, 0.0)
        theta_f = h @ params[f"{prefix}.theta_f.weight"] + params[f"{prefix}.theta_f.bias"]
        theta_b = h @ params[f"{prefix}.theta_b.weight"] + params[f"{prefix}.theta_b.bias"]
        forecast += interpolate(theta_f, horizon)
        residual -= interpolate(theta_b, length)
    return forecast, masks


def check_reference_forward(checkpoints: list[tuple[dict, dict]], x: np.ndarray,
                            served: np.ndarray, n_mlp: int):
    """The mean of the members' reference forecasts reproduces ``served``."""
    forecasts = []
    for meta, arrays in checkpoints:
        cfg = meta["config"]
        prefixes = block_layout(arrays)
        problems = schedule_problems(arrays, prefixes, n_mlp, cfg["input_size"],
                                     cfg["horizon"], cfg["base_ratio"])
        if problems:
            return False, "; ".join(problems)
        forecasts.append(reference_forward(arrays, prefixes, n_mlp, x, cfg["horizon"])[0])
    err = rel_error(served, np.mean(forecasts, axis=0))
    return err <= FORWARD_RTOL, f"relative error {err:.2e} (limit {FORWARD_RTOL:.0e})"


# ---------------------------------------------------------------------------
# Gradients and the optimizer
# ---------------------------------------------------------------------------

def mse(forecast: np.ndarray, y: np.ndarray) -> float:
    diff = forecast - y
    return float(np.mean(diff * diff))


def check_gradients(params: dict, prefixes: list[str], n_mlp: int, xb: np.ndarray,
                    yb: np.ndarray, grads: dict, coords: list[tuple[str, int]],
                    eps: float = 1e-6, rtol: float = 1e-5, atol: float = 1e-8):
    """Tape gradients of the MSE loss against central finite differences.

    A coordinate whose ±eps perturbation flips any ReLU is skipped as too near
    a kink; the check needs at least half the sampled coordinates to count.
    """
    horizon = yb.shape[1]
    _, base_masks = reference_forward(params, prefixes, n_mlp, xb, horizon)
    worst, used = 0.0, 0
    for name, flat in coords:
        arr = params[name]
        orig = arr.flat[flat]
        values = []
        near_kink = False
        for delta in (eps, -eps):
            arr.flat[flat] = orig + delta
            fc, masks = reference_forward(params, prefixes, n_mlp, xb, horizon)
            values.append(mse(fc, yb))
            near_kink |= any(not np.array_equal(m, b) for m, b in zip(masks, base_masks))
        arr.flat[flat] = orig
        if near_kink:
            continue
        numeric = (values[0] - values[1]) / (2.0 * eps)
        analytic = float(grads[name].flat[flat])
        err = abs(analytic - numeric) / max(abs(numeric), abs(analytic), atol / rtol)
        worst = max(worst, err)
        used += 1
    ok = used * 2 >= len(coords) and worst <= rtol
    return ok, f"{used}/{len(coords)} coordinates away from kinks, worst relative error {worst:.2e}"


def adam_reference(p, m, v, g, t: int, lr: float, beta1: float, beta2: float, eps: float):
    """The bias-corrected Adam update (Kingma & Ba, Algorithm 1)."""
    m_new = beta1 * m + (1.0 - beta1) * g
    v_new = beta2 * v + (1.0 - beta2) * g * g
    m_hat = m_new / (1.0 - beta1 ** t)
    v_hat = v_new / (1.0 - beta2 ** t)
    return p - lr * m_hat / (np.sqrt(v_hat) + eps), m_new, v_new


def check_adam(before: dict, grads: dict, after: dict, t: int, lr: float, beta1: float,
               beta2: float, eps: float, rtol: float = 1e-12):
    """``before``/``after`` map names to (param, m, v); every array must match."""
    worst = 0.0
    for name, (p, m, v) in before.items():
        want = adam_reference(p, m, v, grads[name], t, lr, beta1, beta2, eps)
        for got, ref in zip(after[name], want):
            scale = max(float(np.max(np.abs(ref))), 1e-300)
            worst = max(worst, float(np.max(np.abs(got - ref))) / scale)
    return worst <= rtol, f"worst relative error {worst:.2e} at step {t}"


# ---------------------------------------------------------------------------
# Data path
# ---------------------------------------------------------------------------

def check_reload(generated: dict[str, np.ndarray], loaded) -> tuple[bool, str]:
    """The series read back from CSV equal the generated ones bit for bit."""
    ids = [s.id for s in loaded]
    if ids != list(generated):
        return False, f"series ids {ids} != {list(generated)}"
    for s in loaded:
        if not same_bits(s.values, generated[s.id]):
            return False, f"series '{s.id}' differs after the CSV round trip"
    return True, f"{len(ids)} series, {sum(v.size for v in generated.values())} values"


def check_windows(windows, values: dict[str, np.ndarray], train_end: dict[str, int],
                  scale: dict[str, float], input_size: int, horizon: int):
    """Normalized training windows equal sliding_window_view slices divided by
    the series scale, in order, covering every start in the training region."""
    span = input_size + horizon
    cursor = 0
    for sid, series in values.items():
        view = np.lib.stride_tricks.sliding_window_view(series[:train_end[sid]], span)
        for t in range(view.shape[0]):
            if cursor >= len(windows):
                return False, f"only {len(windows)} windows; '{sid}' start {t} missing"
            w = windows[cursor]
            expect = view[t] / scale[sid]
            if (w.series_id != sid or w.t_start != t
                    or not same_bits(w.input, expect[:input_size])
                    or not same_bits(w.target, expect[input_size:])):
                return False, f"window {cursor} ('{w.series_id}', t={w.t_start}) differs"
            cursor += 1
    if cursor != len(windows):
        return False, f"{len(windows) - cursor} windows beyond the training regions"
    return True, f"{cursor} windows"


def rolling_origins(series: np.ndarray, first_origin: int, input_size: int, horizon: int):
    """Inputs and targets at every stride-1 origin from ``first_origin`` on."""
    view = np.lib.stride_tricks.sliding_window_view(
        series[first_origin - input_size:], input_size + horizon)
    return view[:, :input_size], view[:, input_size:]


def seasonal_naive(inputs: np.ndarray, horizon: int, period: int) -> np.ndarray:
    """Repeat the last ``period`` observations of each input over the horizon."""
    last = inputs[:, inputs.shape[1] - period:]
    return last[:, np.arange(horizon) % period]


def check_skill(model_mae: float, naive_mae: float, margin: float):
    """The ensemble beats seasonal naive by at least ``margin`` (a share)."""
    gain = 1.0 - model_mae / naive_mae
    return gain >= margin, (f"MAE {model_mae:.4f} vs seasonal naive {naive_mae:.4f}: "
                            f"{100 * gain:.1f}% better (needs {100 * margin:.0f}%)")


def check_same_row(ref, row):
    """Two training-history rows (iteration, train loss, val MAE) agree bit for bit."""
    same = (row.iteration == ref.iteration
            and same_bits(np.array([row.train_loss, row.val_mae]),
                          np.array([ref.train_loss, ref.val_mae])))
    return same, (f"iteration {ref.iteration}: loss {ref.train_loss!r} vs {row.train_loss!r}, "
                  f"val MAE {ref.val_mae!r} vs {row.val_mae!r}")


def read_forecast_csv(path) -> np.ndarray:
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip()
        if header != "t,forecast":
            raise ValueError(f"unexpected forecast header '{header}'")
        rows = [line.strip().split(",") for line in handle if line.strip()]
    if [int(r[0]) for r in rows] != list(range(len(rows))):
        raise ValueError("forecast rows are not numbered 0..H-1")
    return np.array([float(r[1]) for r in rows])
