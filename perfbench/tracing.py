"""Spans recorded around calls into the dmidas layers, from outside the package.

The tracer replaces public functions and methods of ``engine``, ``params``,
``model``, ``training``, ``data`` and ``cli`` with thin wrappers, and wraps
the backward rule that every engine primitive records on its tape. Each
wrapped call becomes one span: an id, a name, start and end times, the id of
the span that caused it and the run id. Spans stay in memory and are written
out once, when the run ends. Per-layer figures are self times: a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import threading
import time

ENGINE_OPS = ("affine", "relu", "pool1d", "project", "add", "sub", "loss")

# Nearest model-level ancestor -> the phase an engine span is charged to.
_CONTEXTS = {
    "model.forward_train": "train",
    "training.train": "train",
    "model.forward_infer": "infer",
    "model.forward": "single",
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "n")

    def __init__(self, sid, name, start, end, parent, n):
        self.id, self.name, self.start, self.end = sid, name, start, end
        self.parent, self.n = parent, n

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while ``enabled``; a disabled wrapper only forwards the call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = False
        self.spans: list[Span] = []
        self.counts: dict[str, list[float]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        # Worker threads of the ensemble pool start with an empty stack; their
        # spans are charged to the open train_ensemble span.
        self.adopt: int | None = None

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name: str, fn, args=(), kwargs=None, n: int = 0):
        kwargs = kwargs or {}
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1].id if stack else self.adopt
        span = Span(next(self._ids), name, 0.0, 0.0, parent, n)
        stack.append(span)
        adopting = name == "training.train_ensemble"
        if adopting:
            self.adopt = span.id
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if adopting:
                self.adopt = None
            self.spans.append(span)

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts.setdefault(name, []).append(value)

    def wrap(self, fn, name):
        """A wrapper recording ``name``; a callable name maps the call's
        arguments to ``(name, n)``, or to ``None`` for no span."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if callable(name):
                resolved = name(args, kwargs)
                if resolved is None:
                    return fn(*args, **kwargs)
                return tracer.call(resolved[0], fn, args, kwargs, resolved[1])
            return tracer.call(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def patch_function(self, module, attr: str, name) -> None:
        """Replace a function everywhere the dmidas package bound it by name."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dmidas" or mod_name.startswith("dmidas.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                         "end": s.end, "parent": s.parent,
                                         "run": self.run_id}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every layer the benchmark reports on."""
    from dmidas import cli, data, engine, model, params, training

    for module, attr, name in (
            (data, "generate_synthetic", "data.generate"),
            (data, "save_dataset_csv", "data.save_csv"),
            (data, "load_csv", "data.load_csv"),
            (training, "split_tail", "training.split"),
            (training, "median_abs_scales", "training.normalize"),
            (training, "normalize", "training.normalize"),
            (model, "build_model", "model.build"),
            (model, "save_checkpoint", "model.save_checkpoint"),
            (model, "load_checkpoint", "model.load_checkpoint"),
            (training, "train_ensemble", "training.train_ensemble"),
            (training, "train", "training.train"),
            (training, "ensemble_forecast", "training.ensemble_forecast"),
            (training, "ensemble_forecast_batch", "training.ensemble_forecast_batch"),
            (params, "adam_step", "params.adam_step"),
            (cli, "main", "cli.main")):
        tracer.patch_function(module, attr, name)
    for op in ENGINE_OPS:
        tracer.patch_function(engine, op, f"engine.{op}.fwd")

    for attr in ("train_windows", "val_windows", "test_windows"):
        tracer.patch_method(training.SplitDataset, attr, "training.windows")
    tracer.patch_method(params.ParameterStore, "zero_grad", "params.zero_grad")
    tracer.patch_method(params.ParameterStore, "snapshot", "params.snapshot")
    tracer.patch_method(params.ParameterStore, "restore", "params.restore")
    tracer.patch_method(model.StackedForecaster, "forward", "model.forward")

    def forward_batch_name(args, kwargs):
        tape = kwargs.get("tape", args[2] if len(args) > 2 else None)
        if tape is not None:
            return "model.forward_train", 0
        parent = tracer.current()
        if parent is not None and parent.name == "model.forward":
            return None  # the single-window path; already one span
        x = args[1]
        return "model.forward_infer", (x.shape[0] if getattr(x, "ndim", 1) == 2 else 1)

    tracer.patch_method(model.StackedForecaster, "forward_batch", forward_batch_name)

    original_backward = engine.GradientTape.backward

    def backward(self, root, seed=None):
        tracer.count("engine.tape_entries", len(self.entries))
        return tracer.call("engine.backward", original_backward, (self, root, seed))

    tracer._patches.append((engine.GradientTape, "backward", original_backward))
    engine.GradientTape.backward = backward

    original_record = engine.GradientTape.record

    def record(self, output, inputs, backward_rule, name="", kink_margin=math.inf):
        span_name = f"engine.{name.split('[')[0]}.bwd"

        def timed(g):
            return tracer.call(span_name, backward_rule, (g,))

        return original_record(self, output, inputs, timed, name, kink_margin)

    tracer._patches.append((engine.GradientTape, "record", original_record))
    engine.GradientTape.record = record


# ---------------------------------------------------------------------------
# Self times and the per-layer metrics
# ---------------------------------------------------------------------------

def _covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of the union of ``children`` clipped to ``interval``."""
    lo, hi = interval
    total, cur_lo, cur_hi = 0.0, None, None
    for c_lo, c_hi in sorted(children):
        c_lo, c_hi = max(c_lo, lo), min(c_hi, hi)
        if c_hi <= c_lo:
            continue
        if cur_hi is None or c_lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = c_lo, c_hi
        else:
            cur_hi = max(cur_hi, c_hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanIndex:
    """Parent links, self times and phase contexts over a finished span list."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        self.children = children
        self.self_time = {
            s.id: s.duration - _covered((s.start, s.end),
                                        [(c.start, c.end) for c in children.get(s.id, ())])
            for s in spans}
        self._context: dict[int, str | None] = {}

    def ancestors(self, span: Span):
        pid = span.parent
        while pid is not None:
            parent = self.by_id.get(pid)
            if parent is None:
                return
            yield parent
            pid = parent.parent

    def context(self, span: Span) -> str | None:
        """The phase ('train', 'infer', 'single') an engine span belongs to."""
        if span.id not in self._context:
            found = None
            for a in self.ancestors(span):
                if a.name in _CONTEXTS:
                    found = _CONTEXTS[a.name]
                    break
            self._context[span.id] = found
        return self._context[span.id]

    def under(self, span: Span, name: str) -> bool:
        return any(a.name == name for a in self.ancestors(span))

    def self_sum(self, name: str, pred=None) -> tuple[float, int]:
        total, calls = 0.0, 0
        for s in self.spans:
            if s.name == name and (pred is None or pred(s)):
                total += self.self_time[s.id]
                calls += 1
        return total, calls

    def step_coverage(self) -> list[float]:
        """Per training step: self time of the traced calls inside it ÷ its wall.

        A step runs from one ``params.zero_grad`` to the next on the same
        member; steps that ran a validation pass are skipped.
        """
        shares = []
        for train_span in (s for s in self.spans if s.name == "training.train"):
            kids = sorted(self.children.get(train_span.id, ()), key=lambda s: s.start)
            marks = [i for i, k in enumerate(kids) if k.name == "params.zero_grad"]
            for a, b in zip(marks, marks[1:]):
                inner = kids[a:b]
                if any(k.name == "model.forward_infer" for k in inner):
                    continue
                wall = kids[b].start - kids[a].start
                covered = sum(k.duration for k in inner)
                if wall > 0:
                    shares.append(covered / wall)
        return shares


def per_layer_metrics(tracer: Tracer, facts: dict) -> dict[str, tuple[float, str]]:
    """Reduce the span list to the named per-layer metrics.

    ``facts`` carries what the workload counted itself: member steps, windows
    per batch call, window bytes, checkpoint size, train_ensemble wall and CPU
    time, and the tracing overhead measured on interleaved steps.
    """
    idx = SpanIndex(tracer.spans)
    steps = facts["member_steps"]
    out: dict[str, tuple[float, str]] = {}

    def setup_only(s):
        return not idx.under(s, "cli.main") and not idx.under(s, "training.train_ensemble")

    def ms_total(name, pred=None):
        return 1e3 * idx.self_sum(name, pred)[0]

    def ms_per_call(name, pred=None):
        total, calls = idx.self_sum(name, pred)
        return 1e3 * total / max(calls, 1)

    out["data.generate_ms"] = (ms_total("data.generate", setup_only), "ms")
    out["data.load_csv_ms"] = (ms_per_call("data.load_csv"), "ms")
    out["training.windows_ms"] = (ms_total("training.windows", setup_only), "ms")
    out["training.normalize_ms"] = (ms_total("training.normalize", setup_only), "ms")
    out["training.window_mb"] = (facts["window_bytes"] / 2 ** 20, "MiB")
    out["model.build_ms"] = (ms_per_call("model.build"), "ms")

    def in_train(s):
        return idx.context(s) == "train"

    out["model.forward_train_ms"] = (ms_total("model.forward_train") / steps, "ms")
    out["engine.backward_ms"] = (ms_total("engine.backward", in_train) / steps, "ms")
    entries = tracer.counts.get("engine.tape_entries", [0])
    out["engine.tape_entries"] = (sum(entries) / max(len(entries), 1), "count")
    for op in ENGINE_OPS:
        for phase in ("fwd", "bwd"):
            out[f"engine.{op}.{phase}_ms"] = (
                ms_total(f"engine.{op}.{phase}", in_train) / steps, "ms")
    out["params.adam_step_ms"] = (ms_total("params.adam_step") / steps, "ms")

    walls = [s.duration for s in idx.spans if s.name == "training.train"]
    out["training.parallel_speedup"] = (sum(walls) / facts["ensemble_wall_s"], "ratio")
    out["training.cpu_per_wall"] = (facts["ensemble_cpu_s"] / facts["ensemble_wall_s"], "ratio")

    def serving(s):
        return not idx.under(s, "cli.main")

    single_total, single_calls = idx.self_sum("model.forward", serving)
    out["model.forward_ms"] = (1e3 * single_total / max(single_calls, 1), "ms")
    single_ops = sum(idx.self_time[s.id] for s in idx.spans
                     if s.name.startswith("engine.") and idx.context(s) == "single"
                     and serving(s))
    out["engine.single_fwd_ms"] = (1e3 * single_ops / max(single_calls, 1), "ms")

    def batch_serving(s):
        return idx.under(s, "training.ensemble_forecast_batch")

    infer_spans = [s for s in idx.spans if s.name == "model.forward_infer" and batch_serving(s)]
    kilo_windows = sum(s.n for s in infer_spans) / 1000.0
    infer_total = sum(idx.self_time[s.id] for s in infer_spans)
    out["model.forward_infer_ms"] = (1e3 * infer_total / max(kilo_windows, 1e-9), "ms")
    infer_ops = sum(idx.self_time[s.id] for s in idx.spans
                    if s.name.startswith("engine.") and idx.context(s) == "infer"
                    and batch_serving(s))
    out["engine.infer_fwd_ms"] = (1e3 * infer_ops / max(kilo_windows, 1e-9), "ms")

    out["model.save_checkpoint_ms"] = (ms_per_call("model.save_checkpoint"), "ms")
    out["model.load_checkpoint_ms"] = (ms_per_call("model.load_checkpoint"), "ms")
    out["model.checkpoint_kb"] = (facts["checkpoint_bytes"] / 1024.0, "KiB")

    shares = sorted(idx.step_coverage())
    out["trace.step_coverage"] = (shares[len(shares) // 2] if shares else 0.0, "ratio")
    out["trace.overhead_pct"] = (facts["trace_overhead_pct"], "%")
    return out
