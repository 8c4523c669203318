"""In-memory span tracer installed around the program's module attributes.

The benchmark does not edit the program. It replaces the module attributes
each caller resolves at call time (for example ``oclopt.harness.loss_and_grad``
or ``DataPool.checkpoint``) with wrappers that record a span: name, run
index, start, end and the span that caused it. A layer's self time is its
span's duration minus the time of its child spans. Spans stay in memory and
are written out once, after the timed region.
"""

from __future__ import annotations

import functools
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []      # (name, run, start, end, parent span index or -1)
        self.stats = {}      # name -> [calls, total_s, self_s]
        self.counts = {}     # "<module>.<function>.<quantity>" -> number
        self.run = -1
        self._stack = []     # [span index, child time] of the open spans

    def count(self, key: str, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span called ``name``.

        ``after(tracer, result, *args)`` runs after the call, outside the
        span's own timing, to record computed counts.
        """
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(self.spans), 0.0]
            self.spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                total = end - start
                if stack:
                    stack[-1][1] += total
                st = self.stats.setdefault(name, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += total
                st[2] += total - frame[1]
                self.spans[frame[0]] = (name, self.run, start, end, parent)
            if after is not None:
                h0 = perf_counter()
                after(self, result, *args, **kwargs)
                if stack:  # keep counting work out of the parent's self time
                    stack[-1][1] += perf_counter() - h0
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), after))

    def write_spans(self, path):
        with open(path, "w") as f:
            f.write("index,name,run,start_us,end_us,parent\n")
            t0 = self.spans[0][2] if self.spans else 0.0
            for i, (name, run, start, end, parent) in enumerate(self.spans):
                f.write(f"{i},{name},{run},{(start - t0) * 1e6:.3f},"
                        f"{(end - t0) * 1e6:.3f},{parent}\n")
