"""Span recorder used by the traced benchmark run.

Spans are opened and closed by wrappers that replace library functions at
the module attribute where the caller looks them up.  Each span's self time
is its duration minus the time covered by spans opened inside it; self times
and call counts are accumulated per label as spans close, so a run keeps one
small stack instead of a list of every span.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict


class Recorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = defaultdict(float)   # label -> summed self time
        self.calls = Counter()             # label -> calls (generators: once)
        self.nested = Counter()            # (parent label, label) -> calls
        self.counts = Counter()            # free-form counters set by observers
        self._stack = []                   # [label, start, time in children]

    def reset(self):
        if self._stack:
            raise RuntimeError("cannot reset while spans are open")
        self.self_s.clear()
        self.calls.clear()
        self.nested.clear()
        self.counts.clear()

    def _enter(self, label):
        self._stack.append([label, self.clock(), 0.0])

    def _exit(self):
        label, start, children = self._stack.pop()
        duration = self.clock() - start
        self.self_s[label] += duration - children
        if self._stack:
            self._stack[-1][2] += duration

    def _count_call(self, label):
        self.calls[label] += 1
        parent = self._stack[-1][0] if self._stack else None
        self.nested[(parent, label)] += 1

    def wrap(self, fn, label, observe=None):
        """Wrap a function.  `label` is a string or a function of the call's
        arguments; `observe(recorder, label, result)` runs after the span
        closes, on normal return only."""
        label_of = label if callable(label) else (lambda *a, **k: label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = label_of(*args, **kwargs)
            self._count_call(name)
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if observe is not None:
                observe(self, name, result)
            return result
        return wrapper

    def wrap_generator(self, fn, label, observe_item=None):
        """Wrap a generator function.  Only the time spent producing items is
        inside the span; the consumer's time between items is not."""
        label_of = label if callable(label) else (lambda *a, **k: label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = label_of(*args, **kwargs)
            self._count_call(name)
            inner = fn(*args, **kwargs)
            try:
                while True:
                    self._enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit()
                    if observe_item is not None:
                        observe_item(self, name, item)
                    yield item
            finally:
                inner.close()
        return wrapper


@contextlib.contextmanager
def patched(replacements):
    """Set each (module, attribute, value) for the duration of the block and
    restore the original attributes afterwards, even on error."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, value in replacements:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)
