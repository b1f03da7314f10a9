"""In-memory spans around the library's functions, for the traced run only.

The benchmark does not change the library. Instead, for the traced run it
replaces each measured function with a timing wrapper at the place where its
caller looked it up (``attnens.model.conv2d_forward`` rather than
``attnens.layers.conv2d_forward``, because ``model.py`` imported the name),
and puts every original back afterwards. The untraced run wraps nothing.

A span is (id, parent, run, name, start_ns, end_ns, self_ns, mode). A span
opened with no other span open starts a new run id, so all spans of one CLI
command share one. Self time is the span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import statistics
import time
from collections import Counter, namedtuple

Span = namedtuple("Span", "id parent run name start_ns end_ns self_ns mode")

LAYER_FUNCTIONS = tuple(
    f"{layer}_{direction}"
    for layer in ("conv2d", "maxpool2d", "relu", "dense", "dropout", "gap")
    for direction in ("forward", "backward")
) + ("softmax_forward",)

# (metric prefix, time suffix, the "module:name" places its callers bound it)
TRACED = (
    ("imageops.augment", "ms", ("attnens.trainer:augment",)),
    ("imageops.resize_bilinear", "ms", ("attnens.trainer:resize_bilinear",)),
    *((f"layers.{fn}", "ms", (f"attnens.model:{fn}",)) for fn in LAYER_FUNCTIONS),
    ("attention.ca_forward", "ms", ("attnens.model:ca_forward",)),
    ("attention.ca_backward", "ms", ("attnens.model:ca_backward",)),
    ("model.forward_cached", "self_ms", ("attnens.trainer:forward_cached",)),
    ("model.backward", "self_ms", ("attnens.trainer:backward",)),
    ("trainer.train", "ms", ("attnens.cli:train",)),
    ("trainer.sgd_momentum_step", "ms", ("attnens.trainer:sgd_momentum_step",)),
    ("trainer.evaluate", "ms", ("attnens.trainer:evaluate", "attnens.cli:evaluate")),
    ("data.load_dataset", "ms", ("attnens.cli:load_dataset",)),
    ("ppm.read_ppm", "ms", ("attnens.data:read_ppm",)),
    (
        "checkpoint.load_checkpoint",
        "ms",
        ("attnens.cli:load_checkpoint", "attnens.checkpoint:load_checkpoint"),
    ),
    ("checkpoint.save_model", "ms", ("attnens.cli:save_model", "attnens.checkpoint:save_model")),
    ("ensemble.read_matrix", "ms", ("attnens.cli:read_matrix",)),
    ("ensemble.write_matrix", "ms", ("attnens.cli:write_matrix",)),
    ("ensemble.combine", "ms", ("attnens.cli:combine",)),
    ("synth.write_synth_dataset", "ms", ("attnens.cli:write_synth_dataset",)),
)

CLI_COMMANDS = ("synth", "pretrain", "finetune", "predict", "ensemble")


def _grad_elements(grads) -> int:
    return sum(int(g.size) for g in grads.values())


# Counters taken at the same boundaries as the spans: gradient elements that
# backward returned, and the ones the SGD step was given.
COUNTS = {
    "model.backward": lambda args, result: _grad_elements(result),
    "trainer.sgd_momentum_step": lambda args, result: _grad_elements(args[1]),
}


def _forward_mode(args) -> str:
    return args[2].mode


MODES = {"model.forward_cached": _forward_mode}


class Tracer:
    """Collects spans and counters in memory until ``write`` is called."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)
        self._runs = itertools.count(1)
        self._run = 0
        self._stack: list[list[int]] = []  # [span id, child ns] per open span
        self._paused = False

    def _open(self) -> tuple[int, int | None]:
        if not self._stack:
            self._run = next(self._runs)
        sid = next(self._ids)
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([sid, 0])
        return sid, parent

    def _close(self, sid, parent, name, start, mode=None) -> None:
        end = time.perf_counter_ns()
        _, child_ns = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.spans.append(Span(sid, parent, self._run, name, start, end, duration - child_ns, mode))

    @contextlib.contextmanager
    def span(self, name: str):
        sid, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, parent, name, start)

    def wrap(self, fn, name: str):
        count = COUNTS.get(name)
        mode_of = MODES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            sid, parent = self._open()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, start, mode_of(args) if mode_of else None)
            if count is not None:
                self.counters[name] += count(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside: for set-up work that is not the workload's path."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    @contextlib.contextmanager
    def installed(self):
        """Wrap every TRACED function where its callers bound it; restore on exit."""
        originals = []
        try:
            for name, _, places in TRACED:
                for place in places:
                    module_name, attr = place.split(":")
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    originals.append((module, attr, original))
                    setattr(module, attr, self.wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def totals(self) -> dict[str, dict]:
        """Per name: calls, summed self ms and summed total ms."""
        out: dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0})
            row["calls"] += 1
            row["self_ms"] += s.self_ns / 1e6
            row["total_ms"] += (s.end_ns - s.start_ns) / 1e6
        return out

    def step_intervals_ms(self) -> list[float]:
        """Milliseconds between consecutive SGD steps within one command."""
        by_run: dict[int, list[int]] = {}
        for s in self.spans:
            if s.name == "trainer.sgd_momentum_step":
                by_run.setdefault(s.run, []).append(s.start_ns)
        gaps = []
        for starts in by_run.values():
            starts.sort()
            gaps.extend((b - a) / 1e6 for a, b in zip(starts, starts[1:]))
        return gaps

    def eval_batches_ms(self) -> list[float]:
        return [
            (s.end_ns - s.start_ns) / 1e6
            for s in self.spans
            if s.name == "model.forward_cached" and s.mode == "eval"
        ]

    def write(self, spans_path, table_path) -> None:
        with open(spans_path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s._asdict(), separators=(",", ":")) + "\n")
        totals = self.totals()
        steps = totals.get("trainer.sgd_momentum_step", {}).get("calls", 0)
        with open(table_path, "w") as f:
            f.write("name\tcalls\tself_ms\ttotal_ms\tself_ms_per_sgd_step\n")
            for name, row in sorted(totals.items(), key=lambda kv: -kv[1]["self_ms"]):
                per_step = f"{row['self_ms'] / steps:.4f}" if steps else ""
                f.write(
                    f"{name}\t{row['calls']}\t{row['self_ms']:.4f}\t"
                    f"{row['total_ms']:.4f}\t{per_step}\n"
                )


def percentile(values: list[float], q: int) -> float:
    """Linear-interpolated percentile, q in [0, 100]; 0.0 when there are no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, as name -> (value, unit)."""
    totals = tracer.totals()
    empty = {"calls": 0, "self_ms": 0.0}
    out: dict[str, tuple[float, str]] = {}
    for name, suffix, _ in TRACED:
        row = totals.get(name, empty)
        out[f"{name}.{suffix}"] = (row["self_ms"], "ms")
        out[f"{name}.calls"] = (row["calls"], "count")
    for command in CLI_COMMANDS:
        row = totals.get(f"cli.{command}", empty)
        out[f"cli.{command}.ms"] = (row["self_ms"], "ms")
        out[f"cli.{command}.calls"] = (row["calls"], "count")

    returned = tracer.counters["model.backward"]
    used = tracer.counters["trainer.sgd_momentum_step"]
    out["model.grad_used_ratio"] = (used / returned if returned else 0.0, "ratio")
    eval_batches = tracer.eval_batches_ms()
    out["model.forward_cached.eval_batch_ms.p50"] = (percentile(eval_batches, 50), "ms")
    out["model.forward_cached.eval_batch_ms.samples"] = (len(eval_batches), "count")
    steps = tracer.step_intervals_ms()
    out["trainer.step_ms.p50"] = (percentile(steps, 50), "ms")
    out["trainer.step_ms.p90"] = (percentile(steps, 90), "ms")
    out["trainer.step_ms.samples"] = (len(steps), "count")
    return out
