"""Spans and counters recorded around calls into dpsynth's modules.

The tracer replaces module attributes with wrappers for the length of one
CLI command and puts the originals back afterwards. Calls made inside a
module through a bare global name (``clip_grad`` inside ``dp.privatize``)
look the name up in the module's namespace, so they reach the wrapper too.

Three kinds of wrapper exist:

- ``span``: records (name, start, end, parent, run) in memory;
- ``count``: only bumps a counter, for functions called tens of thousands
  of times per command, where a span per call would distort the timing;
- ``memory``: a span that also records the tracemalloc peak of the call.

A span's self time is its duration minus the durations of its direct
children; spans of one command share the command's root span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

SPAN = "span"
COUNT = "count"
MEMORY = "memory"

PACKAGE = "dpsynth"
TRACED_MODULES = ("training", "models", "dp", "nn", "tabular", "metrics", "cli")

# Called per row, per column or per accountant order: counted, not spanned.
COUNT_ONLY = frozenset(
    {
        "dp.clip_grad",
        "dp.rdp_subsampled_gaussian",
        "nn.leaky_relu",
        "nn.leaky_relu_grad",
        "nn.act_grad",
        "models.group_lasso_subgrad",
    }
)
MEMORY_SPANS = frozenset({"metrics.median_bandwidth", "metrics.mmd"})
# Private functions that are layers of their own; reported without the underscore.
PRIVATE_LAYERS = {"training._run_phase": "training.run_phase"}
# The benchmark opens each command's root span itself.
NOT_WRAPPED = frozenset({"cli.main"})

# Extra per-call figures: name -> f(args, result) -> number.
NOTES = {
    "models.sample_batch": lambda args, result: result.shape[0],
    "tabular.read_csv": lambda args, result: result.values.size,
    "tabular.write_csv": lambda args, result: args[0].values.size,
}


def full_plan() -> dict:
    """{attribute path: wrapper kind} for every public function of the traced modules."""
    plan = {}
    for short in TRACED_MODULES:
        module = importlib.import_module(f"{PACKAGE}.{short}")
        for attr, obj in vars(module).items():
            if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            name = f"{short}.{attr}"
            if name in PRIVATE_LAYERS:
                plan[name] = SPAN
            elif attr.startswith("_") or name in NOT_WRAPPED:
                continue
            elif name in COUNT_ONLY:
                plan[name] = COUNT
            elif name in MEMORY_SPANS:
                plan[name] = MEMORY
            else:
                plan[name] = SPAN
    return plan


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    run: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span log plus counters; one per benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.notes: dict = defaultdict(list)  # name -> [(run, value)]
        self.run = -1
        self._stack = [-1]

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), 0.0, self._stack[-1], self.run)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        self._stack.pop()
        span.end = time.perf_counter()

    @contextmanager
    def root(self, name: str):
        """Span the benchmark opens around one CLI command."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, kind: str, fn):
        note = NOTES.get(name)
        if kind == COUNT:
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted
        if kind == MEMORY:
            fn = self._memory(name, fn)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                self.notes[name].append((span.run, note(args, result)))
            return result

        return spanned

    def _memory(self, name: str, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            else:
                tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                if started:
                    tracemalloc.stop()
                self.notes[f"{name}.peak_alloc"].append((self.run, peak - base))

        return measured

    @contextmanager
    def installed(self, plan: dict, run: int):
        """Wrap every function in ``plan`` for the duration of the block."""
        saved = []
        self.run = run
        try:
            for name, kind in plan.items():
                short, attr = name.split(".", 1)
                module = importlib.import_module(f"{PACKAGE}.{short}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(PRIVATE_LAYERS.get(name, name), kind, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self.run = -1


# ---------------------------------------------------------------------------
# arithmetic over a span log


def self_times(spans: list) -> list:
    """Per span: duration minus the summed durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]


def roots(spans: list) -> list:
    """Index of each span's root span (parents always precede children)."""
    out = []
    for i, span in enumerate(spans):
        out.append(i if span.parent < 0 else out[span.parent])
    return out


@dataclass
class LayerTotals:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


def totals(spans: list, runs) -> tuple:
    """Per-name call count, inclusive and self time, over spans in ``runs``;
    also the summed duration of the root spans there."""
    runs = set(runs)
    selfs = self_times(spans)
    by_name: dict = defaultdict(LayerTotals)
    root_time = 0.0
    for span, own in zip(spans, selfs):
        if span.run not in runs:
            continue
        t = by_name[span.name]
        t.calls += 1
        t.total += span.duration
        t.self_time += own
        if span.parent < 0:
            root_time += span.duration
    return by_name, root_time
