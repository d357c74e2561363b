"""Self-test of the span recorder on synthetic nested calls, driven by a
fake clock so every expected self time is exact.

    python3 perfbench/selftest.py

The traced benchmark run calls `check()` before it measures anything.
"""

from __future__ import annotations

import types

if __package__ in (None, ""):
    import sys
    from pathlib import Path
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench.spans import Recorder, patched
else:
    from .spans import Recorder, patched


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def check():
    clock = FakeClock()
    rec = Recorder(clock)
    mod = types.ModuleType("synthetic")

    def leaf(x):
        clock.tick(2.0)
        return x

    def items(k, count):
        for i in range(count):
            clock.tick(1.0)             # producing an item
            yield i
        clock.tick(0.5)                 # work after the last item

    def boom():
        clock.tick(1.0)
        raise ValueError("synthetic failure")

    def outer():
        clock.tick(1.0)
        mod.leaf(None)                  # names are looked up at the call site
        for _ in mod.items(2, 3):
            clock.tick(4.0)             # consumer time, not the generator's
        for _ in mod.items(3, 5):
            break                       # generator closed after one item
        try:
            mod.boom()
        except ValueError:
            pass
        clock.tick(0.25)
        return mod.leaf(7)

    def none_count(r, label, result):
        if result is None:
            r.counts["leaf.none"] += 1

    mod.leaf, mod.items, mod.boom, mod.outer = leaf, items, boom, outer
    replacements = [
        (mod, "leaf", rec.wrap(leaf, "leaf", none_count)),
        (mod, "items", rec.wrap_generator(
            items, lambda k, count: f"items{k}",
            lambda r, label, item: r.counts.update([label + ".item"]))),
        (mod, "boom", rec.wrap(boom, "boom")),
        (mod, "outer", rec.wrap(outer, "outer")),
    ]
    with patched(replacements):
        assert mod.outer() == 7
    assert (mod.leaf, mod.items, mod.boom, mod.outer) == (
        leaf, items, boom, outer), "original attributes not restored"
    assert not rec._stack, "a span was left open"

    expected = {"leaf": 4.0, "items2": 3.5, "items3": 1.0, "boom": 1.0,
                "outer": 1.0 + 12.0 + 0.25}
    assert dict(rec.self_s) == expected, dict(rec.self_s)
    assert sum(rec.self_s.values()) == clock.now
    assert dict(rec.calls) == {"outer": 1, "leaf": 2, "items2": 1,
                               "items3": 1, "boom": 1}, dict(rec.calls)
    assert rec.nested[("outer", "leaf")] == 2
    assert rec.nested[(None, "outer")] == 1
    assert dict(rec.counts) == {"leaf.none": 1, "items2.item": 3,
                                "items3.item": 1}, dict(rec.counts)


if __name__ == "__main__":
    check()
    print("span recorder self-test passed")
