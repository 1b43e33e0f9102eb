"""Benchmark-side tracing of clskit's public functions.

:class:`Tracer` replaces each function listed in :data:`LAYERS` with a
wrapper in every ``clskit`` module namespace that binds it (including
module-level dispatch dicts such as ``clskit.cli._COMMANDS``), and puts
the originals back afterwards.  Each call records one span
``(name, start_ns, end_ns, parent, run)`` in memory.
:meth:`Tracer.layer_metrics` turns the spans and counts of one repetition
into the per-layer metrics, and :meth:`Tracer.write_jsonl` writes the
spans out when the run ends.  The program itself is not changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import statistics
import sys
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

# Wrapped functions per clskit module; span names are "<module>.<function>".
LAYERS = {
    "cli": ("cmd_train", "cmd_eval", "cmd_fuse", "cmd_sweep", "_align_labels"),
    "fileio": ("read_predictions", "write_predictions", "read_labels", "write_labels",
               "load_run_config", "load_manifest", "write_manifest"),
    "trainer": ("synth_dataset", "train", "predict"),
    "losses": ("loss_value", "loss_grad"),
    "numerics": ("softmax", "check_prediction_matrix"),
    "metrics": ("topk_accuracy", "mean_class_accuracy", "mean_average_precision",
                "mean_auc", "full_report"),
    "ensemble": ("fuse", "sweep_weights"),
    "schedule": ("lr_at",),
}
# Functions that call other wrapped functions, so they also get a self time.
SELF_TIME = frozenset({
    "cli.cmd_train", "cli.cmd_eval", "cli.cmd_fuse", "cli.cmd_sweep",
    "fileio.write_predictions", "trainer.train", "trainer.predict", "losses.loss_grad",
    "metrics.topk_accuracy", "metrics.mean_class_accuracy",
    "metrics.mean_average_precision", "metrics.mean_auc", "metrics.full_report",
    "ensemble.fuse", "ensemble.sweep_weights",
})
# Called once per epoch, below clock resolution: only its call count is kept.
CALLS_ONLY = frozenset({"schedule.lr_at"})

# (name, unit, better) of the counts derived from arguments and spans.
DERIVED = (
    ("fileio.bytes_read", "B", "lower"),
    ("fileio.bytes_written", "B", "lower"),
    ("fileio.read_predictions.rows", "count", "lower"),
    ("fileio.write_predictions.rows", "count", "lower"),
    ("trainer.samples", "count", "lower"),
    ("trainer.epoch_s", "s", "lower"),
    ("trainer.predict.rows", "count", "lower"),
    ("ensemble.fuse.elements", "count", "lower"),
    ("ensemble.sweep.points", "count", "lower"),
    ("ensemble.sweep.points_per_s", "1/s", "higher"),
    ("ensemble.fuse_per_point", "ratio", "lower"),
    ("trace_overhead", "ratio", "lower"),
)


# The derived counts that the hooks below accumulate.
COUNTED = (
    "fileio.bytes_read", "fileio.bytes_written", "fileio.read_predictions.rows",
    "fileio.write_predictions.rows", "trainer.samples", "trainer.predict.rows",
    "ensemble.fuse.elements", "ensemble.sweep.points",
)


def span_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns]


def per_layer_catalog() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in output order."""
    catalog = []
    for name in span_names():
        catalog.append((f"{name}.calls", "count", "lower"))
        if name in CALLS_ONLY:
            continue
        catalog.append((f"{name}.s", "s", "lower"))
        if name in SELF_TIME:
            catalog.append((f"{name}.self_s", "s", "lower"))
    return catalog + list(DERIVED)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _reads(counts, args, kwargs, result):
    counts["fileio.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _writes(counts, args, kwargs, result):
    counts["fileio.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _read_predictions(counts, args, kwargs, result):
    _reads(counts, args, kwargs, result)
    counts["fileio.read_predictions.rows"] += len(result[0])


def _write_predictions(counts, args, kwargs, result):
    _writes(counts, args, kwargs, result)
    counts["fileio.write_predictions.rows"] += len(_arg(args, kwargs, 1, "ids"))


def _train(counts, args, kwargs, result):
    train_set, config = _arg(args, kwargs, 0, "train_set"), _arg(args, kwargs, 2, "config")
    counts["trainer.samples"] += config.epochs * train_set.n


def _predict(counts, args, kwargs, result):
    counts["trainer.predict.rows"] += _arg(args, kwargs, 1, "dataset").n


def _fuse(counts, args, kwargs, result):
    counts["ensemble.fuse.elements"] += len(_arg(args, kwargs, 0, "preds")) * result.size


def _sweep(counts, args, kwargs, result):
    members = len(_arg(args, kwargs, 0, "preds"))
    resolution = _arg(args, kwargs, 2, "resolution")
    counts["ensemble.sweep.points"] += math.comb(resolution + members - 1, members - 1)


HOOKS = {
    "fileio.read_predictions": _read_predictions,
    "fileio.write_predictions": _write_predictions,
    "fileio.read_labels": _reads,
    "fileio.write_labels": _writes,
    "fileio.load_run_config": _reads,
    "fileio.load_manifest": _reads,
    "fileio.write_manifest": _writes,
    "trainer.train": _train,
    "trainer.predict": _predict,
    "ensemble.fuse": _fuse,
    "ensemble.sweep_weights": _sweep,
}


class Tracer:
    """Span recorder around clskit's public functions."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start_ns, end_ns, parent index or None, run id)
        self.counts: Counter = Counter()
        self.run: str | None = None  # id shared by the spans of one CLI command
        self.missing: list[str] = []  # listed functions that clskit no longer has
        self._stack: list[int] = []
        self._patches: list[tuple[dict, str, object]] = []

    def _wrap(self, name: str, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every binding of every listed function in the loaded
        ``clskit`` modules."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        self.missing = []
        for module_name, fns in LAYERS.items():
            module = importlib.import_module(f"clskit.{module_name}")
            for fn_name in fns:
                name = f"{module_name}.{fn_name}"
                fn = getattr(module, fn_name, None)
                if fn is None:
                    self.missing.append(name)
                else:
                    wrappers[fn] = self._wrap(name, fn, HOOKS.get(name))
        for module_name, module in list(sys.modules.items()):
            if module_name != "clskit" and not module_name.startswith("clskit."):
                continue
            namespace = vars(module)
            containers = [namespace] + [
                value for key, value in namespace.items()
                if isinstance(value, dict) and not key.startswith("__")
            ]
            for container in containers:
                for key, value in list(container.items()):
                    if isinstance(value, types.FunctionType) and value in wrappers:
                        self._patches.append((container, key, value))
                        container[key] = wrappers[value]

    def uninstall(self) -> None:
        """Put back every original function."""
        while self._patches:
            container, key, original = self._patches.pop()
            container[key] = original

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, run) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "name": name, "start_ns": start,
                                         "end_ns": end, "parent": parent, "run": run}) + "\n")

    def layer_metrics(self, first: int) -> dict[str, float]:
        """Per-layer metrics of the spans from index ``first`` on (one
        repetition) and of the counts; ``trace_overhead`` is left to the
        caller."""
        spans, counts = self.spans, self.counts
        calls: Counter = Counter()
        busy: Counter = Counter()  # ns in spans of each name
        in_children: Counter = Counter()  # ns in child spans of spans of each name
        epoch_starts = defaultdict(list)  # train span -> start of each epoch
        fuse_in_sweep = 0
        for index in range(first, len(spans)):
            name, start, end, parent, _ = spans[index]
            calls[name] += 1
            busy[name] += end - start
            if parent is not None:
                parent_name = spans[parent][0]
                in_children[parent_name] += end - start
                if name == "schedule.lr_at" and parent_name == "trainer.train":
                    epoch_starts[parent].append(start)
                elif name == "ensemble.fuse" and parent_name == "ensemble.sweep_weights":
                    fuse_in_sweep += 1
        epochs = []
        for train_index, starts in epoch_starts.items():
            bounds = sorted(starts) + [spans[train_index][2]]
            epochs += [(b - a) / 1e9 for a, b in zip(bounds, bounds[1:])]

        metrics: dict[str, float] = {}
        for name in span_names():
            metrics[f"{name}.calls"] = calls[name]
            if name in CALLS_ONLY:
                continue
            metrics[f"{name}.s"] = busy[name] / 1e9
            if name in SELF_TIME:
                metrics[f"{name}.self_s"] = (busy[name] - in_children[name]) / 1e9
        for name in COUNTED:
            metrics[name] = counts[name]
        points = counts["ensemble.sweep.points"]
        sweep_s = busy["ensemble.sweep_weights"] / 1e9
        metrics["trainer.epoch_s"] = statistics.median(epochs) if epochs else 0.0
        metrics["ensemble.sweep.points_per_s"] = points / sweep_s if sweep_s else 0.0
        metrics["ensemble.fuse_per_point"] = fuse_in_sweep / points if points else 0.0
        return metrics
