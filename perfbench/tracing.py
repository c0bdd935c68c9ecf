"""Spans and counts at the layer boundaries of seqcal, recorded from outside.

The benchmark never edits the package.  Instead the traced stage process
replaces module-level names with wrappers that time each call.  Each name is
patched in the module that *calls* it, because seqcal modules bind these
names at import (`from .model import spectral_normalize`), so patching the
defining module would miss every call.

A span is `[run_id, span_id, parent_id, name, start, end]` on the
system-wide monotonic clock.  Span 0 is the stage root.  A layer's self time
is its span's duration minus the union of its child spans.

This module imports nothing from seqcal at import time, so the parent
benchmark process can use the aggregation half without loading the program.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

METHODS = ("base", "mcd", "be", "sngp", "sngp_mcd", "de", "sngp_de")
STAGES = ("gen-data", "train", "infer", "eval")
MiB = 2.0**20


def now() -> float:
    """System-wide monotonic time, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# Counter hooks.  Each sees (counters, args, kwargs, result, error) after the
# wrapped call; they read only what the call signatures at this revision
# carry, and a failing hook is counted, never raised.


def _add(counters, key, value):
    counters[key] = counters.get(key, 0.0) + value


def _loss_rows(counters, args, kwargs, result, error):
    _add(counters, "model.loss_and_grads.rows", len(args[2]))


def _dense_rows(counters, args, kwargs, result, error):
    rows, vocab = result.ctx_weights.shape
    mb = 2 * rows * vocab * 8 / MiB
    counters["model.build_rows.dense_mb"] = max(counters.get("model.build_rows.dense_mb", 0.0), mb)


def _variance_rows(counters, args, kwargs, result, error):
    phi = args[1]
    _add(counters, "model.predictive_variance.rows", phi.shape[0] if phi.ndim == 2 else 1)


def _step_rows(counters, args, kwargs, result, error):
    _add(counters, "inference.step_distributions.rows", len(args[2]))


def _bundle_size(counters, args, kwargs, result, error):
    if error is None:
        _add(counters, "training.bundle.mb", os.path.getsize(args[1]) / MiB)


def _bootstrap_use(counters, args, kwargs, result, error):
    if result is not None:
        _add(counters, "calib.bootstrap.used", result.resamples_used)
        _add(counters, "calib.bootstrap.attempted",
             result.resamples_used + result.resamples_failed)
    elif type(error).__name__ == "MetricError":
        _add(counters, "calib.bootstrap.attempted", args[2])


def _train_name(args, kwargs):
    return f"training.train_method.{args[2].method}"


def _decode_name(args, kwargs):
    return f"inference.decode_corpus.{args[0][0].config.method}"


# (module that calls the name, attribute, span key, span-name function, hook)
BOUNDARIES = (
    ("seqcal.cli", "generate_corpus", "corpus.generate_corpus", None, None),
    ("seqcal.cli", "split_corpus", "corpus.io", None, None),
    ("seqcal.cli", "write_vocabulary", "corpus.io", None, None),
    ("seqcal.cli", "write_records", "corpus.io", None, None),
    ("seqcal.cli", "read_vocabulary", "corpus.io", None, None),
    ("seqcal.cli", "read_records", "corpus.io", None, None),
    ("seqcal.training", "_loss_and_grads", "model.loss_and_grads", None, _loss_rows),
    ("seqcal.training", "spectral_normalize", "model.spectral_normalize", None, None),
    ("seqcal.training", "update_precision", "model.update_precision", None, None),
    ("seqcal.training", "build_rows", "model.build_rows", None, _dense_rows),
    ("seqcal.inference", "predictive_variance", "model.predictive_variance", None,
     _variance_rows),
    ("seqcal.inference", "dropout_mask", "model.dropout_mask", None, None),
    ("seqcal.cli", "train_method", "training.train_method", _train_name, None),
    ("seqcal.cli", "write_bundle", "training.bundle_io", None, _bundle_size),
    ("seqcal.cli", "read_bundle", "training.bundle_io", None, None),
    ("seqcal.cli", "evaluate_loss", "training.evaluate_loss", None, None),
    ("seqcal.inference", "step_distributions", "inference.step_distributions", None,
     _step_rows),
    ("seqcal.cli", "decode_corpus", "inference.decode_corpus", _decode_name, None),
    ("seqcal.cli", "write_predictions", "inference.preds_io", None, None),
    ("seqcal.cli", "read_predictions", "inference.preds_io", None, None),
    ("seqcal.cli", "join_with_references", "inference.preds_io", None, None),
    ("seqcal.inference", "score_quality", "rouge.score_quality", None, None),
    ("seqcal.cli", "bootstrap_std", "calib.bootstrap_std", None, _bootstrap_use),
    ("seqcal.calib", "spearman", "calib.spearman", None, None),
    ("seqcal.cli", "ece", "calib.other", None, None),
    ("seqcal.cli", "roc_auc", "calib.other", None, None),
    ("seqcal.cli", "abstention_curve", "calib.other", None, None),
)


class Tracer:
    """Records spans for one stage process.  `install()` wraps every
    boundary that exists, `restore()` puts the original names back."""

    def __init__(self, run_id: str, root_name: str, root_start: float,
                 boundaries=BOUNDARIES):
        self.run_id = run_id
        self.root_name = root_name
        self.root_start = root_start
        self.boundaries = boundaries
        self.spans = []
        self.counters = {}
        self.missing = []
        self.hook_errors = 0
        self._stack = [0]
        self._next_id = 1
        self._patched = []

    def record(self, name: str, start: float, end: float, parent: int = 0) -> None:
        self.spans.append([self.run_id, self._next_id, parent, name, start, end])
        self._next_id += 1

    def close(self, end: float) -> None:
        """Add the root span, from process launch to the end of the stage."""
        self.spans.append([self.run_id, 0, None, self.root_name, self.root_start, end])

    def wrap(self, fn, key, name_of=None, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = key
            if name_of is not None:
                try:
                    name = name_of(args, kwargs)
                except Exception:
                    tracer.hook_errors += 1
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1]
            tracer._stack.append(span_id)
            result = error = None
            start = now()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = now()
                tracer._stack.pop()
                tracer.spans.append([tracer.run_id, span_id, parent, name, start, end])
                if hook is not None:
                    try:
                        hook(tracer.counters, args, kwargs, result, error)
                    except Exception:
                        tracer.hook_errors += 1

        return wrapper

    def install(self) -> None:
        for module_name, attr, key, name_of, hook in self.boundaries:
            where = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(where)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(where)
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(original, key, name_of, hook))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def report(self) -> dict:
        return {
            "spans": self.spans,
            "counters": self.counters,
            "missing": self.missing,
            "hook_errors": self.hook_errors,
        }


# ---------------------------------------------------------------------------
# Aggregation, run in the parent over the reports of the stage processes.


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    children = {}
    for span in spans:
        children.setdefault(span[2], []).append((span[4], span[5]))
    out = {}
    for span in spans:
        start, end = span[4], span[5]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span[1], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span[1]] = (end - start) - covered
    return out


class Layers:
    """Per-name call counts, inclusive and self time, and summed counters,
    over the span reports of one traced pipeline."""

    def __init__(self, reports):
        self.calls_by = {}
        self.total_by = {}
        self.self_by = {}
        self.counters = {}
        self.missing = set()
        for report in reports:
            spans = report.get("spans", [])
            own = self_times(spans)
            for span in spans:
                name = span[3]
                self.calls_by[name] = self.calls_by.get(name, 0) + 1
                self.total_by[name] = self.total_by.get(name, 0.0) + span[5] - span[4]
                self.self_by[name] = self.self_by.get(name, 0.0) + own[span[1]]
            for key, value in report.get("counters", {}).items():
                if key.endswith("dense_mb"):
                    self.counters[key] = max(self.counters.get(key, 0.0), value)
                else:
                    self.counters[key] = self.counters.get(key, 0.0) + value
            self.missing.update(report.get("missing", []))

    def calls(self, name):
        return self.calls_by.get(name, 0)

    def total(self, name):
        return self.total_by.get(name, 0.0)

    def self_s(self, name):
        return self.self_by.get(name, 0.0)

    def counter(self, name):
        return self.counters.get(name, 0.0)


def _ratio(a, b):
    return a / b if b else 0.0


def _layer_metrics():
    """(metric name, unit, boundary keys it needs, value function)."""
    rows = [
        ("corpus.generate_corpus.s", "s", ("corpus.generate_corpus",),
         lambda a: a.total("corpus.generate_corpus")),
        ("corpus.io.s", "s", ("corpus.io",), lambda a: a.total("corpus.io")),
    ]
    for key, extra in (
        ("model.loss_and_grads", ("rows",)),
        ("model.spectral_normalize", ()),
        ("model.update_precision", ()),
        ("model.build_rows", ("dense_mb",)),
        ("model.predictive_variance", ("rows",)),
    ):
        rows.append((f"{key}.calls", "count", (key,), lambda a, k=key: a.calls(k)))
        rows.append((f"{key}.s", "s", (key,), lambda a, k=key: a.total(k)))
        for field in extra:
            unit = "MB" if field == "dense_mb" else "count"
            rows.append((f"{key}.{field}", unit, (key,),
                         lambda a, c=f"{key}.{field}": a.counter(c)))
    rows.append(("model.dropout_mask.calls", "count", ("model.dropout_mask",),
                 lambda a: a.calls("model.dropout_mask")))
    for method in METHODS:
        name = f"training.train_method.{method}"
        rows.append((f"{name}.s", "s", ("training.train_method",),
                     lambda a, n=name: a.total(n)))
    rows += [
        ("training.bundle_io.s", "s", ("training.bundle_io",),
         lambda a: a.total("training.bundle_io")),
        ("training.bundle.mb", "MB", ("training.bundle_io",),
         lambda a: a.counter("training.bundle.mb")),
        ("training.evaluate_loss.s", "s", ("training.evaluate_loss",),
         lambda a: a.total("training.evaluate_loss")),
    ]
    step = "inference.step_distributions"
    rows += [
        (f"{step}.calls", "count", (step,), lambda a: a.calls(step)),
        (f"{step}.s", "s", (step,), lambda a: a.total(step)),
        (f"{step}.self_s", "s", (step,), lambda a: a.self_s(step)),
        (f"{step}.rows_per_call", "rows/call", (step,),
         lambda a: _ratio(a.counter(f"{step}.rows"), a.calls(step))),
        ("inference.beam.self_s", "s", ("inference.decode_corpus", step),
         lambda a: sum(a.self_s(f"inference.decode_corpus.{m}") for m in METHODS)),
    ]
    for method in METHODS:
        name = f"inference.decode_corpus.{method}"
        rows.append((f"{name}.s", "s", ("inference.decode_corpus",),
                     lambda a, n=name: a.total(n)))
    rows += [
        ("inference.preds_io.s", "s", ("inference.preds_io",),
         lambda a: a.total("inference.preds_io")),
        ("rouge.score_quality.calls", "count", ("rouge.score_quality",),
         lambda a: a.calls("rouge.score_quality")),
        ("rouge.score_quality.s", "s", ("rouge.score_quality",),
         lambda a: a.total("rouge.score_quality")),
        ("calib.bootstrap_std.calls", "count", ("calib.bootstrap_std",),
         lambda a: a.calls("calib.bootstrap_std")),
        ("calib.bootstrap_std.s", "s", ("calib.bootstrap_std",),
         lambda a: a.total("calib.bootstrap_std")),
        ("calib.bootstrap.used_share", "ratio", ("calib.bootstrap_std",),
         lambda a: _ratio(a.counter("calib.bootstrap.used"),
                          a.counter("calib.bootstrap.attempted"))),
        ("calib.spearman.calls", "count", ("calib.spearman",),
         lambda a: a.calls("calib.spearman")),
        ("calib.other.s", "s", ("calib.other",), lambda a: a.total("calib.other")),
    ]
    return rows


LAYER_METRICS = _layer_metrics()
IMPORT_METRICS = (
    ("setup.import.numpy_s", "numpy"),
    ("setup.import.scipy_s", "scipy"),
    ("setup.import.seqcal_s", "seqcal"),
)
STAGE_CHECKS = ("train", "infer", "eval")


def per_layer_units() -> dict:
    """Every per-layer metric name -> unit, in reporting order."""
    units = {name: "s" for name, _ in IMPORT_METRICS}
    units.update({name: unit for name, unit, _, _ in LAYER_METRICS})
    units["trace_overhead_s"] = "s"
    for stage in STAGE_CHECKS:
        units[f"stage.{stage}.unattributed_s"] = "s"
    return units


def layer_values(reports) -> tuple[dict, list]:
    """Per-layer metric values from span reports, and the names of metrics
    whose boundaries could not be wrapped."""
    layers = Layers(reports)
    missing_keys = {
        key for module, attr, key, _, _ in BOUNDARIES
        if f"{module}.{attr}" in layers.missing
    }
    values, missing = {}, []
    for name, _unit, keys, value_of in LAYER_METRICS:
        if missing_keys.intersection(keys):
            missing.append(name)
        else:
            values[name] = float(value_of(layers))
    return values, missing


def import_seconds(importtime_lines, package: str) -> float:
    """Sum of the self import times of a package's own modules, read from
    `python -X importtime` output, so numpy time is not also counted as
    scipy or seqcal time."""
    total_us = 0
    for line in importtime_lines:
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        module = parts[2].strip()
        if module == package or module.startswith(package + "."):
            try:
                total_us += int(parts[0])
            except ValueError:
                continue
    return total_us / 1e6
