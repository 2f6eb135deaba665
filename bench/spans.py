"""Spans and counters recorded at the benchmark's call sites into fsg.

A span is (name, start_ns, end_ns, parent, request).  The layer of a
span is the part of its name before the first dot, so "fields.make_field"
belongs to the fields layer.  When the recorder is disabled, `call` is a
plain function call and `span` a no-op context, so untraced runs time the
program and nothing else.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import monotonic_ns


class Recorder:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []           # [name, start_ns, end_ns, parent, request]
        self.counts = {}
        self.failed = {}          # layer -> unexpected exceptions
        self._stack = []
        self.request = None

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        rec = [name, monotonic_ns(), 0, parent, self.request]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        except Exception:
            layer = name.split(".", 1)[0]
            self.failed[layer] = self.failed.get(layer, 0) + 1
            raise
        finally:
            rec[2] = monotonic_ns()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name, k=1):
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + k


def self_times(spans):
    """Per-span self time: duration minus the time of direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
