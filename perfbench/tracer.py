"""Per-layer spans for sharedformer, recorded from outside the program.

Nothing under ``src/`` changes. ``Instrumentation.install`` rebinds the public
functions of each sharedformer module to timing wrappers, including every
copy a ``from .x import y`` left in another module (``training.forward``,
``cli.train``, ...), and ``uninstall`` puts the originals back.

Two kinds of wrapper exist:

* span wrappers around the calls at each layer boundary (``encoder.forward``,
  ``training.adam_step``, ``diagnostics.linear_probe``, ...). Each span keeps
  its name, start, end, parent span and unit id (a training step, an SLI
  utterance or a CLI command) in memory until the run ends;
* op wrappers around every ``autodiff`` operation. There are hundreds of
  thousands of these per round, so they are aggregated in place into a count,
  a time and output bytes per op group; their time is charged to the
  enclosing span as child time, so that span's self time excludes it.

A layer's self time is the duration of its spans minus the time of their
direct children. Every measurement lands in the current ``Bucket`` (one per
traced set-up or round); with no bucket the wrappers only pass calls through.

The step clock (one ``perf_counter`` read per call into
``training.adam_step``) is installed in both modes: it is the only thing the
untraced run adds to the program.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("autodiff", "encoder", "masking", "training", "rng", "diagnostics",
          "features", "cli")

# autodiff ops, grouped; Tensor methods are listed by attribute name
OP_GROUPS = {
    "matmul": ("matmul",),
    "layer_norm": ("layer_norm",),
    "softmax": ("softmax",),
    "conv": ("depthwise_conv1d",),
    "activation": ("sigmoid", "swish"),
    "elementwise": ("Tensor.__add__", "Tensor.__radd__", "Tensor.__sub__",
                    "Tensor.__neg__", "Tensor.__mul__", "Tensor.__rmul__",
                    "Tensor.abs"),
    "shape": ("Tensor.__getitem__", "Tensor.reshape", "Tensor.transpose"),
    "reduce": ("Tensor.sum", "Tensor.mean"),
}

# functions wrapped in spans, per module; config is counted under cli
SPAN_FUNCS = {
    "autodiff": ("Tensor.backward",),
    "encoder": ("forward", "sli_forward", "conformer_block", "save_checkpoint",
                "load_checkpoint", "store_from_checkpoint", "ParameterStore.init",
                "sample_depth", "param_count"),
    "masking": ("plan_masks", "apply_masks"),
    "training": ("train", "adam_step", "validation_loss", "predictor_apply",
                 "mpc_loss", "split_corpus", "noam_lr"),
    "rng": ("substream",),
    "diagnostics": ("collect_traces", "layer_transitions", "gradient_decomposition",
                    "layer_embeddings", "linear_probe", "sli_sweep", "probe_split",
                    "project_2d", "flop_report", "write_report"),
    "features": ("synth_corpus", "load_features", "load_labels", "save_features",
                 "save_labels"),
    "cli": ("main",),
    "config": ("load_config", "apply_preset", "apply_override", "parse_depth"),
}

# per-layer metric -> span names whose inclusive time it sums
INCLUSIVE_MS = {
    "encoder.ckpt_write_ms": ("encoder.save_checkpoint",),
    "encoder.ckpt_read_ms": ("encoder.load_checkpoint", "encoder.store_from_checkpoint"),
    "masking.plan_ms": ("masking.plan_masks",),
    "masking.apply_ms": ("masking.apply_masks",),
    "training.adam_ms": ("training.adam_step",),
    "training.validation_ms": ("training.validation_loss",),
    "training.loss_ms": ("training.predictor_apply", "training.mpc_loss"),
    "rng.substream_ms": ("rng.substream",),
    "diagnostics.collect_traces_ms": ("diagnostics.collect_traces",),
    "diagnostics.layer_transitions_ms": ("diagnostics.layer_transitions",),
    "diagnostics.grad_decomp_ms": ("diagnostics.gradient_decomposition",),
    "diagnostics.layer_embeddings_ms": ("diagnostics.layer_embeddings",),
    "diagnostics.linear_probe_ms": ("diagnostics.linear_probe",),
    "diagnostics.write_report_ms": ("diagnostics.write_report",),
    "features.synth_ms": ("features.synth_corpus",),
    "features.load_ms": ("features.load_features", "features.load_labels"),
    "autodiff.backward_ms": ("autodiff.Tensor.backward",),
}

FORWARD_SPANS = ("encoder.forward", "encoder.sli_forward", "encoder.conformer_block")


def _layer_of(module: str) -> str:
    return "cli" if module == "config" else module


class Bucket:
    """Everything measured during one traced set-up or round."""

    def __init__(self, label: str):
        self.label = label
        self.spans: list[tuple] = []   # (name, start, end, parent index, unit)
        self.child: list[float] = []   # per span: time of its direct children
        self.op_n: Counter = Counter()
        self.op_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.stores: list[tuple] = []  # (ParameterStore, block_applications at start)
        self.train_runs: list[tuple] = []  # (out_dir, store.block_applications)
        self.block_applications = 0        # summed over watched stores at close()

    def watch_store(self, store, baseline: int | None = None) -> None:
        if all(s is not store for s, _ in self.stores):
            start = store.block_applications if baseline is None else baseline
            self.stores.append((store, start))

    def close(self) -> None:
        """Read the block counters now: a store may outlive the bucket."""
        self.block_applications = sum(s.block_applications - start for s, start in self.stores)
        self.stores.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this bucket (times in ms, counts exact)."""
        incl: Counter = Counter()
        calls: Counter = Counter()
        self_by_name: Counter = Counter()
        for (name, t0, t1, _, _), child in zip(self.spans, self.child):
            incl[name] += t1 - t0
            calls[name] += 1
            self_by_name[name] += t1 - t0 - child
        self_by_layer: Counter = Counter()
        for name, s in self_by_name.items():
            self_by_layer[name.split(".", 1)[0]] += s
        self_by_layer["autodiff"] += sum(self.op_s.values())

        m: dict[str, float] = {}
        m["autodiff.op_count"] = sum(self.op_n.values())
        for g in OP_GROUPS:
            m[f"autodiff.op_count.{g}"] = self.op_n[g]
        for g in OP_GROUPS:
            m[f"autodiff.self_ms.{g}"] = self.op_s[g] * 1e3
        m["autodiff.backward_calls"] = calls["autodiff.Tensor.backward"]
        m["autodiff.activation_bytes"] = self.counts["activation_bytes"]
        m["encoder.forward_self_ms"] = sum(self_by_name[n] for n in FORWARD_SPANS) * 1e3
        m["encoder.block_applications"] = self.block_applications
        m["encoder.ckpt_write_bytes"] = self.counts["ckpt_write_bytes"]
        planned = self.counts["planned_frames"]
        m["masking.masked_frame_ratio"] = self.counts["masked_frames"] / planned if planned else 0.0
        m["training.best_ckpt_writes"] = self.counts["best_ckpt_writes"]
        m["rng.substream_calls"] = calls["rng.substream"]
        m["features.bytes_read"] = self.counts["bytes_read"]
        for key, names in INCLUSIVE_MS.items():
            m[key] = sum(incl[n] for n in names) * 1e3
        for layer in LAYERS:
            m[f"{layer}.self_ms"] = self_by_layer[layer] * 1e3
        m["trace.spans"] = len(self.spans)
        return m


# metrics that must repeat exactly from one traced round to the next
COUNT_METRICS = (
    ("autodiff.op_count",) + tuple(f"autodiff.op_count.{g}" for g in OP_GROUPS)
    + ("autodiff.backward_calls", "autodiff.activation_bytes",
       "encoder.block_applications", "encoder.ckpt_write_bytes",
       "masking.masked_frame_ratio", "training.best_ckpt_writes",
       "rng.substream_calls", "features.bytes_read", "trace.spans"))


class Instrumentation:
    """Installs the step clock and, when tracing, the span and op wrappers."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.bucket: Bucket | None = None
        self.stack: list[int] = []
        self.unit = "-"
        self.step_stamps: list[float] = []
        self.step_unit_prefix = "-"
        self._saved: list[tuple] = []

    # ---- install / uninstall -------------------------------------------------

    def install(self) -> None:
        import sharedformer.cli  # noqa: F401  (loads every module; src/ is on sys.path)
        from sharedformer import training
        if self.trace:
            for module, names in SPAN_FUNCS.items():
                for qual in names:
                    self._rebind(module, qual, self._span_wrapper)
            for group, names in OP_GROUPS.items():
                for qual in names:
                    self._rebind("autodiff", qual, self._op_wrapper, group)
        # outermost, so the clock read does not fall inside the adam span
        self._rebind_function(training, "adam_step", self._clock_wrapper(training.adam_step))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _rebind(self, module: str, qual: str, make, *extra) -> None:
        mod = sys.modules[f"sharedformer.{module}"]
        layer = _layer_of(module)
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(raw.__func__, f"{layer}.{qual}", *extra))
            else:
                wrapped = make(raw, f"{layer}.{qual}", *extra)
            self._saved.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
            return
        original = getattr(mod, qual)
        self._rebind_function(mod, qual, make(original, f"{layer}.{qual}", *extra))

    def _rebind_function(self, mod, name: str, wrapped) -> None:
        """Replace `mod.name` and every other sharedformer binding of the same object."""
        original = getattr(mod, name)
        for other in list(sys.modules.values()):
            if other is None or not getattr(other, "__name__", "").startswith("sharedformer"):
                continue
            for attr, value in list(vars(other).items()):
                if value is original:
                    self._saved.append((other, attr, original))
                    setattr(other, attr, wrapped)

    # ---- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        post = _POST_HOOKS.get(name)
        perf = time.perf_counter

        def span(*args, **kwargs):
            b = self.bucket
            if b is None:
                return fn(*args, **kwargs)
            stack = self.stack
            idx = len(b.spans)
            parent = stack[-1] if stack else -1
            b.spans.append(None)
            b.child.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                b.spans[idx] = (name, t0, t1, parent, self.unit)
                if parent >= 0:
                    b.child[parent] += t1 - t0
            if post is not None:
                post(b, args, kwargs, out)
            return out

        span.__wrapped__ = fn
        return span

    def _op_wrapper(self, fn, name: str, group: str):
        perf = time.perf_counter

        def op(*args, **kwargs):
            b = self.bucket
            if b is None:
                return fn(*args, **kwargs)
            t0 = perf()
            out = fn(*args, **kwargs)
            dt = perf() - t0
            b.op_n[group] += 1
            b.op_s[group] += dt
            b.counts["activation_bytes"] += out.data.nbytes
            if self.stack:
                b.child[self.stack[-1]] += dt
            return out

        op.__wrapped__ = fn
        return op

    def _clock_wrapper(self, fn):
        stamps = self.step_stamps
        perf = time.perf_counter

        def adam_step(*args, **kwargs):
            stamps.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                if self.bucket is not None:
                    self.unit = f"{self.step_unit_prefix}:step{len(stamps) + 1}"

        adam_step.__wrapped__ = fn
        return adam_step

    # ---- buckets -------------------------------------------------------------

    def start_bucket(self, label: str) -> Bucket:
        if self.stack:
            raise RuntimeError("cannot switch buckets inside an open span")
        self.bucket = Bucket(label) if self.trace else None
        return self.bucket

    def stop_bucket(self) -> None:
        if self.bucket is not None:
            self.bucket.close()
        self.bucket = None

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        saved, self.bucket = self.bucket, None
        try:
            yield
        finally:
            self.bucket = saved


def write_spans(path: Path, buckets: list[Bucket]) -> None:
    """One line per span: bucket, index, name, start_us, end_us, parent, unit."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write("bucket\tindex\tname\tstart_us\tend_us\tparent\tunit\n")
        for b in buckets:
            if not b.spans:
                continue
            origin = b.spans[0][1]
            for i, (name, t0, t1, parent, unit) in enumerate(b.spans):
                f.write(f"{b.label}\t{i}\t{name}\t{(t0 - origin) * 1e6:.1f}\t"
                        f"{(t1 - origin) * 1e6:.1f}\t{parent}\t{unit}\n")


# ---- counters read at span boundaries ----------------------------------------


def _post_save_checkpoint(b: Bucket, args, kwargs, out) -> None:
    path = Path(args[0] if args else kwargs["path"])
    b.counts["ckpt_write_bytes"] += os.path.getsize(path)
    if path.name == "best.ckpt":
        b.counts["best_ckpt_writes"] += 1


def _post_bytes_read(b: Bucket, args, kwargs, out) -> None:
    b.counts["bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])


def _post_plan_masks(b: Bucket, args, kwargs, out) -> None:
    b.counts["masked_frames"] += out.num_masked
    b.counts["planned_frames"] += out.total_frames


def _post_store(b: Bucket, args, kwargs, out) -> None:
    b.watch_store(out, baseline=0)


def _post_train(b: Bucket, args, kwargs, out) -> None:
    b.watch_store(out.store, baseline=0)
    b.train_runs.append((str(kwargs.get("out_dir")), out.store.block_applications))


_POST_HOOKS = {
    "encoder.save_checkpoint": _post_save_checkpoint,
    "features.load_features": _post_bytes_read,
    "features.load_labels": _post_bytes_read,
    "masking.plan_masks": _post_plan_masks,
    "encoder.store_from_checkpoint": _post_store,
    "encoder.ParameterStore.init": _post_store,
    "training.train": _post_train,
}
