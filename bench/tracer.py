"""Spans and counters for the traced benchmark run, recorded from outside `src/`.

`Tracer.install` replaces each traced function in every namespace that binds
it by name: the defining module, the modules that import it with
`from .x import f`, the package namespace, and class dictionaries (so
`__rmul__ = __mul__` aliases are wrapped too).  `uninstall` puts the
originals back.  While `enabled` is false the wrappers only forward the call,
which lets the runner pause tracing around output verification.

A span is (call id, name, start, end, parent index).  Spans are kept in
memory up to `span_cap` and written when the run ends; the per-name
aggregates (calls, total and self time, counters, distinct-input sets) cover
every span, stored or not.  Self time is a span's duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import copy
import functools
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self, span_cap=50_000):
        self.enabled = False
        self.call_id = 0
        self.span_cap = span_cap
        self.spans = []             # [call_id, name, start, end, parent_index]
        self.dropped_spans = 0
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.distinct = defaultdict(set)
        self._stack = []            # [start, child_time, span_index]
        self._wrappers = []         # (original, wrapper)
        self._patched = []          # (namespace owner, attribute, original)
        self.bindings = {}          # namespace name -> wrapped attribute names

    # -- recording ------------------------------------------------------

    def span_wrapper(self, name, fn, before=None, after=None):
        """Wrap `fn` so each enabled call records a span named `name`.

        `before(args, kwargs)` runs first and its return value is handed to
        `after(token, result, args, kwargs)` once the call has returned.
        """
        tracer = self
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            token = before(args, kwargs) if before is not None else None
            parent = stack[-1][2] if stack else -1
            index = -1
            start = _clock()
            if len(spans) < tracer.span_cap:
                index = len(spans)
                spans.append([tracer.call_id, name, start, None, parent])
            else:
                tracer.dropped_spans += 1
            frame = [start, 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.total_s[name] += duration
                tracer.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if index >= 0:
                    spans[index][3] = end
            if after is not None:
                after(token, result, args, kwargs)
            return result

        self._wrappers.append((fn, wrapper))
        return wrapper

    def counter_wrapper(self, name, fn):
        """Count calls of a hot function without a span (no clock reads)."""
        tracer = self
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args):
            if tracer.enabled:
                counters[name] += 1
            return fn(*args)

        self._wrappers.append((fn, wrapper))
        return wrapper

    # -- installation ---------------------------------------------------

    def install(self, namespaces):
        """Bind every wrapper wherever its original is bound by name."""
        originals = {id(orig): wrapper for orig, wrapper in self._wrappers}
        for owner in namespaces:
            for attr, value in list(vars(owner).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(owner, attr, wrapper)
                    self._patched.append((owner, attr, value))
        self.bindings = {}
        for owner, attr, _ in self._patched:
            name = getattr(owner, "__name__", repr(owner))
            self.bindings.setdefault(name, []).append(attr)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results --------------------------------------------------------

    def snapshot(self):
        return copy.deepcopy({
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        })
