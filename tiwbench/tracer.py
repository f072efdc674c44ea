"""In-memory spans and counters, and the patching that records them.

A span has a name, a start, an end and the index of its parent span. Its
self time is its duration minus the durations of its children; spans of
one thread nest, so children never overlap. Counters are plain named
integers or floats, bumped at the same call boundaries as the spans.

The tracer patches attributes from the outside and puts every original
back on ``restore()``; the code under measurement is never edited.
"""

import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.open = Counter()    # names of the spans currently open
        self._stack = []
        self._patched = []       # (owner, attribute, original value)

    # -- spans and counters --------------------------------------------------

    def enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, self.clock(), None, parent])
        self.open[name] += 1

    def exit(self):
        rec = self.spans[self._stack.pop()]
        rec[2] = self.clock()
        self.open[rec[0]] -= 1

    def count(self, name, amount=1):
        self.counts[name] += amount

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def summary(self):
        """{name: {"calls", "total_s", "self_s"}} over every closed span."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if end is None:
                raise RuntimeError(f"span {name!r} is still open")
            if parent >= 0:
                child_s[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), inner in zip(self.spans, child_s):
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - inner
        return dict(out)

    # -- patching ------------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """A pass-through of fn that records a span and optional counts.

        before(tracer, args, kwargs) runs ahead of the span and
        after(tracer, args, kwargs, result) behind it; both only count.
        name=None records no span, only the counts.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            if name is None:
                result = fn(*args, **kwargs)
            else:
                tracer.enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.exit()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_method(self, cls, attr, name, before=None, after=None):
        self.patch(cls, attr, self.wrap(name, cls.__dict__[attr], before, after))

    def patch_function(self, module, attr, wrapper):
        """Install wrapper as module.attr and under every name another tiwlab
        module binds that function to.

        Callers that did ``from .module import attr`` hold their own
        reference, so patching only the defining module would miss them.
        Other names in the defining module are its internal calls (such as
        a private implementation that a public alias points to) and keep
        the original.
        """
        original = getattr(module, attr)
        self.patch(module, attr, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod is module or not (
                    mod_name == "tiwlab" or mod_name.startswith("tiwlab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, key, wrapper)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
