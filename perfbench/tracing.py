"""Spans around the benchmark's calls into the package's layers.

A span records its name, start, end, parent span and op id. Spans stay in
memory and are written out when the run ends. Untraced runs use
``NullTracer``, whose ``call`` goes straight through.
"""

import json
import time
from statistics import median

SETUP_OP = -1  # op id of spans recorded during set-up


class NullTracer:
    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def op(self, name, fn, *args):
        return fn(*args)


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, op id]
        self._stack = []
        self._op = SETUP_OP

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def op(self, name, fn, *args):
        """One benchmark operation: a root span whose children are layer calls."""
        self._op += 1
        return self.call(name, fn, *args)

    def summary(self, scaled):
        """Per span name: call count, busy time, per-call median and self time
        (duration minus the time its child spans cover). ``scaled(d, start,
        end)`` gives the reported time of a duration d measured over
        [start, end]."""
        spent = [scaled(end - start, start, end) for _, start, end, _, _ in self.spans]
        covered = [0.0] * len(self.spans)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent is not None:
                covered[parent] += spent[i]
        durations = {}
        for i, (name, _, _, _, _) in enumerate(self.spans):
            durations.setdefault(name, []).append((spent[i], spent[i] - covered[i]))
        return {
            name: {
                "calls": len(ds),
                "busy_s": sum(d for d, _ in ds),
                "median_s": median(d for d, _ in ds),
                "self_s": sum(s for _, s in ds),
            }
            for name, ds in sorted(durations.items())
        }

    def dump(self, path, extra):
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)
