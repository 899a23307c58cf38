"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: the wrappers replace
the names that the library's consuming modules import (for example
``pairwise_tests.iter_label_blocks`` or ``methods.run_method``) with wrappers
that open a span around the call. The library itself is not modified, so a
traced run exercises exactly the code an untraced run does.

A span is ``[name, start, end, parent]``; the layer is the part of the name
before the first dot and matches the library's module names. Spans stay in
memory and are written out once, when the benchmark process ends.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = (
    "trial_data",
    "simgen",
    "resampling",
    "pairwise",
    "pairwise_tests",
    "rank_tests",
    "global_u",
    "methods",
    "report",
)

SETUP_SPAN = "perfbench.setup"
PASS_SPAN = "perfbench.pass"


def now() -> float:
    """Monotonic clock shared by every process on the host, so a parent can
    time a child from its own spawn to the child's 'inputs ready' mark."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def span_cost(calls: int = 10_000, repeats: int = 5) -> float:
    """Seconds the tracer adds per span: a wrapped no-op call minus a plain
    one, median over ``repeats`` timings of ``calls`` calls each."""
    target = types.SimpleNamespace(noop=lambda: None)
    plain = target.noop
    tracer = Tracer(enabled=True)
    tracer.wrap(target, "noop", "calibrate.noop")
    traced = target.noop
    costs = []
    with tracer.phase("calibrate"):
        for _ in range(repeats):
            t0 = now()
            for _ in range(calls):
                traced()
            t1 = now()
            for _ in range(calls):
                plain()
            t2 = now()
            costs.append(((t1 - t0) - (t2 - t1)) / calls)
    return statistics.median(costs)


class Tracer:
    """Records spans and exact work counts; a disabled tracer records
    nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.phase_counts: list[Counter] = []
        self._label_streams: list[dict] = []
        self._phase_roots: list[int] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        rec = [name, now(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = now()
            self._stack.pop()

    @contextlib.contextmanager
    def phase(self, root: str):
        """A set-up phase or one measured pass: a root span with its own
        bucket of exact counts."""
        if self.enabled:
            self.phase_counts.append(Counter())
            self._label_streams.append({})
            self._phase_roots.append(len(self.spans))
        with self.span(root):
            yield

    def count(self, key: str, amount: int = 1) -> None:
        self.phase_counts[-1][key] += amount

    # -- wrappers ----------------------------------------------------------

    def _patch(self, module, attr: str, make_wrapper) -> None:
        """Replace ``module.attr`` by ``make_wrapper(original)``. A name the
        module does not (or no longer) define is left alone."""
        original = getattr(module, attr, None)
        if original is None:
            return
        self._patched.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def wrap(self, module, attr: str, name: str, counter=None) -> None:
        def make(fn):
            def traced(*args, **kwargs):
                if counter is not None:
                    counter(self, *args, **kwargs)
                with self.span(name):
                    return fn(*args, **kwargs)
            return traced

        self._patch(module, attr, make)

    def wrap_run_method(self, module) -> None:
        """``methods.run_method`` spans are named after the method called."""
        def make(fn):
            def traced(name, *args, **kwargs):
                self.count("methods.calls")
                with self.span(f"methods.{name}"):
                    return fn(name, *args, **kwargs)
            return traced

        self._patch(module, "run_method", make)

    def wrap_label_blocks(self, module, n_assignments) -> None:
        """Each ``next()`` on a label-block stream is a ``resampling.label``
        child span of whichever span consumes the stream."""
        def make(fn):
            def traced(plan, group_codes, *args, **kwargs):
                key = (plan.mode, plan.master_seed, group_codes.tobytes())
                streams = self._label_streams[-1]
                if key not in streams:
                    streams[key] = n_assignments(plan, len(group_codes), int(group_codes.sum()))
                return self._timed_blocks(fn(plan, group_codes, *args, **kwargs))
            return traced

        self._patch(module, "iter_label_blocks", make)

    def _timed_blocks(self, blocks):
        while True:
            with self.span("resampling.label"):
                block = next(blocks, None)
            if block is None:
                return
            self.count("resampling.label_rows", block.shape[0])
            yield block

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- summaries ---------------------------------------------------------

    def distinct_label_rows(self, phase_index: int) -> int:
        """Label rows a single shared pass would have generated: one stream
        per distinct (mode, master seed, group codes)."""
        return sum(self._label_streams[phase_index].values())

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)

    def phase_summaries(self) -> list[dict]:
        """Per phase, in order: root name and duration, inclusive and self
        time per span name, self time per layer, method-call durations."""
        children = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        # Every span belongs to the phase of its top-level ancestor.
        root_of = []
        for idx, (_, _, _, parent) in enumerate(self.spans):
            root_of.append(idx if parent < 0 else root_of[parent])
        out = {
            root: {
                "root": self.spans[root][0],
                "wall_s": self.spans[root][2] - self.spans[root][1],
                "inclusive": Counter(), "self": Counter(), "layer_self": Counter(),
                "calls": [], "spans": 0,
            }
            for root in self._phase_roots
        }
        for idx, (name, start, end, _) in enumerate(self.spans):
            rec = out.get(root_of[idx])
            if rec is None:
                continue
            dur = end - start
            self_time = dur - children[idx]
            rec["inclusive"][name] += dur
            rec["self"][name] += self_time
            rec["layer_self"][name.split(".", 1)[0]] += self_time
            rec["spans"] += 1
            if name.startswith("methods."):
                rec["calls"].append(dur)
        return [out[root] for root in self._phase_roots]
