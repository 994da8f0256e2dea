"""In-memory span tracer that wraps functions at the names their callers look up.

cransim reaches its layers three ways: `harness` imports names directly,
`capacity` is reached as `harness.cap.*`, and `compression` internals go
through module globals. Rebinding every name in the package that refers to a
traced function covers all three; restore() puts the originals back, so code
run between traced calls is the unwrapped program.
"""

import sys
from time import perf_counter

import numpy as np


class Tracer:
    """Records one span per call of each target: name, start, end, parent, request.

    targets are "module.function" labels relative to `package`. Spans stay in
    memory until write(); a request is one install()/restore() window, which
    the benchmark opens around one timed call.
    """

    def __init__(self, package, targets, workload=""):
        self.package = package
        self.labels = list(targets)
        self.workload = workload
        self.name, self.start, self.end, self.parent, self.request = [], [], [], [], []
        self.missing = []
        self._stack = []
        self._patches = []
        self._requests = 0
        self._wrappers = {}   # id(original) -> (original, wrapper)
        for idx, label in enumerate(self.labels):
            module, _, attr = label.rpartition(".")
            original = getattr(sys.modules.get(f"{package}.{module}"), attr, None)
            if original is None:
                self.missing.append(label)
            else:
                self._wrappers[id(original)] = (original, self._wrap(idx, original))

    def _wrap(self, idx, fn):
        stack, name, start, end, parent, request = (
            self._stack, self.name, self.start, self.end, self.parent, self.request)

        def traced(*args, **kwargs):
            i = len(start)
            name.append(idx)
            parent.append(stack[-1] if stack else -1)
            request.append(self._requests)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every package-level name that refers to a target to its wrapper."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        prefix = self.package + "."
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == self.package or n.startswith(prefix))]
        for module in modules:
            for key, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, key, value))
                    setattr(module, key, hit[1])

    def restore(self):
        """Put every original back and close the current request."""
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()
        self._requests += 1

    def summary(self):
        """{label: (calls, self seconds)} over all recorded spans."""
        calls = [0] * len(self.labels)
        busy = [0.0] * len(self.labels)
        for idx, own in zip(self.name, self_times(self.start, self.end, self.parent)):
            calls[idx] += 1
            busy[idx] += own
        return {label: (calls[i], busy[i]) for i, label in enumerate(self.labels)}

    def write(self, path):
        """Save all spans as arrays in an .npz file."""
        np.savez_compressed(
            path, labels=np.array(self.labels), workload=np.array(self.workload),
            name=np.array(self.name, dtype=np.int32),
            start=np.array(self.start, dtype=float), end=np.array(self.end, dtype=float),
            parent=np.array(self.parent, dtype=np.int64),
            request=np.array(self.request, dtype=np.int32))


def self_times(start, end, parent):
    """Each span's duration minus the part of its interval its child spans cover."""
    children = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append((start[i], end[i]))
    out = []
    for i in range(len(start)):
        covered, reach = 0.0, float("-inf")
        for s, e in sorted(children.get(i, ())):
            lo = max(s, reach)
            if e > lo:
                covered += e - lo
            reach = max(reach, e)
        out.append(end[i] - start[i] - covered)
    return out
