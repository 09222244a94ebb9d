"""In-memory span recorder that wraps softcap's functions and methods from
outside the package.

Each wrapped call records one span: name, start, end (perf_counter ns), the
index of the enclosing span, the time covered by its direct children, and
an optional count (active contacts, batch rows, bytes).  A span's self time
is its duration minus the time its children cover, so the self times of all
spans under a job's root span add up to the root span's duration.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from statistics import median, quantiles

CHECK_SPAN = "driver.check"

# Span names start with their layer; these are the layers shares are given for.
LAYERS = ("spatial", "dynamics", "env", "neural", "sac", "harness", "driver")
IO_SPANS = ("neural.save_arrays", "neural.load_arrays", "env.write_trace_csv")


class Tracer:
    def __init__(self):
        # [name, start_ns, end_ns, parent index, child_ns, count]
        self.spans = []
        self._stack = []
        self._patches = []

    # ------------------------------------------------------------ spans
    def open(self, name, count=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, 0, count])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter_ns()
        span = self.spans[idx]
        span[2] = end
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span[0]} closed out of order")
        if span[3] >= 0:
            self.spans[span[3]][4] += end - span[1]

    def call(self, name, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # ------------------------------------------------------------ patching
    def wrap(self, owner, attr, name, count=None, before=None, after=None):
        """Replace ``owner.attr`` by a recording wrapper.

        ``name`` is a span name or a function of the call arguments giving
        one; ``count(args, kwargs)`` gives the span's count.  ``before`` and
        ``after`` hooks run in their own ``driver.check`` spans, so their
        cost is charged to the benchmark, not to the wrapped layer.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # One span per resumption, so code the caller runs between
            # items stays outside the generator's spans.
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = tracer.open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    yield item
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                state = tracer.call(CHECK_SPAN, before, args, kwargs) if before else None
                span_name = name(args, kwargs) if callable(name) else name
                idx = tracer.open(span_name, count(args, kwargs) if count else None)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
                if after:
                    tracer.call(CHECK_SPAN, after, state, args, kwargs, result, idx)
                return result

        setattr(owner, attr, kind(wrapper) if kind else wrapper)
        self._patches.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, _, count in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "count": count}) + "\n")


# ---------------------------------------------------------------- summaries
class SpanStats:
    """Per-name duration, self time and counts over a finished span list."""

    def __init__(self, spans):
        self.dur = defaultdict(list)
        self.self_ns = defaultdict(list)
        self.counts = defaultdict(list)
        self.layer_self_ns = defaultdict(int)
        for name, start, end, _, child_ns, count in spans:
            self.dur[name].append(end - start)
            self.self_ns[name].append(end - start - child_ns)
            if count is not None:
                self.counts[name].append(count)
            self.layer_self_ns[name.split(".", 1)[0]] += end - start - child_ns
        self.io_self_ns = sum(sum(self.self_ns[n]) for n in IO_SPANS)

    def calls(self, name) -> int:
        return len(self.dur[name])

    def median_dur(self, name, scale) -> float:
        return median(self.dur[name]) / scale if self.dur[name] else 0.0

    def median_self(self, name, scale) -> float:
        return median(self.self_ns[name]) / scale if self.self_ns[name] else 0.0

    def p95_dur(self, name, scale) -> float:
        # The 95th percentile needs at least 200 samples to leave ten beyond it.
        d = self.dur[name]
        return quantiles(d, n=20)[-1] / scale if len(d) >= 200 else 0.0

    def mean_count(self, name) -> float:
        c = self.counts[name]
        return sum(c) / len(c) if c else 0.0
