"""In-memory spans around the layer boundaries of `templearn`.

`Tracer.instrument(tl)` wraps, for the duration of a `with` block,

* the public functions an op calls on the package (`load_sample`,
  `parse_ltl`/`parse_ctl`, `print_formula`, `learn`, `verify`,
  `reduce_sat`, `reduce_ltl_to_ctl`, `extract_valuation`), and
* the methods of `LtlDomain`/`CtlDomain` that the learner and the checkers
  call: the constructors and `evaluate` get a span each; the per-candidate
  operator methods (`LtlDomain.unary`/`binary`, `CtlDomain.quant_unary`/
  `quant_binary`/`binary`) are called far too often for one span per call,
  so their calls and seconds are added up on the innermost open span.

A span records its name, start, end, parent span and op, and how much of
its interval its children cover, so a layer's self time is its duration
minus that.  Nothing inside the package is edited; the originals are put
back when the block ends.  Spans stay in memory until `write` is called.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

# (attribute on the package, span name)
FUNCTION_SPANS = (
    ("load_sample", "models.load_sample"),
    ("parse_ltl", "formulas.parse"),
    ("parse_ctl", "formulas.parse"),
    ("print_formula", "formulas.print"),
    ("learn", "learner.learn"),
    ("verify", "learner.verify"),
    ("reduce_sat", "reductions.reduce"),
    ("reduce_ltl_to_ctl", "reductions.reduce"),
    ("extract_valuation", "reductions.extract"),
)

# (class name in templearn.semantics, method, span name)
METHOD_SPANS = (
    ("LtlDomain", "__init__", "semantics.domain_build"),
    ("CtlDomain", "__init__", "semantics.domain_build"),
    ("LtlDomain", "evaluate", "semantics.evaluate"),
    ("CtlDomain", "evaluate", "semantics.evaluate"),
)

# (class name, method, aggregate name): counted, not spanned
OPERATOR_METHODS = (
    ("LtlDomain", "unary", "semantics.ltl_op"),
    ("LtlDomain", "binary", "semantics.ltl_op"),
    ("CtlDomain", "quant_unary", "semantics.ctl_op"),
    ("CtlDomain", "quant_binary", "semantics.ctl_op"),
    ("CtlDomain", "binary", "semantics.ctl_op"),
)


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "child_s", "calls",
                 "calls_s")

    def __init__(self, name, op, parent):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.calls: dict = {}
        self.calls_s: dict = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._op = -1
        # summed from `LearnOutcome.stats` of every traced `learn` call
        self.learn_stats = {"candidates_generated": 0,
                            "distinct_signatures": 0}

    @contextmanager
    def op(self):
        """Root span of one op; every other span nests inside one."""
        self._op += 1
        span = self._open("op")
        try:
            yield
        finally:
            self._close(span)

    def _open(self, name):
        stack = self._stack
        span = Span(name, self._op, stack[-1] if stack else None)
        stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span):
        span.end = perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.end - span.start
        self.spans.append(span)

    def _spanned(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _add_learn_stats(self, outcome):
        for key in self.learn_stats:
            self.learn_stats[key] += outcome.stats[key]

    def _counted(self, name, fn):
        stack = self._stack

        def wrapper(*args):
            t0 = perf_counter()
            result = fn(*args)
            dt = perf_counter() - t0
            top = stack[-1]
            top.calls[name] = top.calls.get(name, 0) + 1
            top.calls_s[name] = top.calls_s.get(name, 0.0) + dt
            top.child_s += dt
            return result
        return wrapper

    @contextmanager
    def instrument(self, tl):
        """Wrap the layer boundaries of the imported package `tl`."""
        saved = []

        def patch(owner, attr, wrapper):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

        for attr, name in FUNCTION_SPANS:
            on_result = self._add_learn_stats if attr == "learn" else None
            patch(tl, attr, self._spanned(name, getattr(tl, attr), on_result))
        for cls, method, name in METHOD_SPANS:
            owner = getattr(tl.semantics, cls)
            patch(owner, method, self._spanned(name, getattr(owner, method)))
        for cls, method, name in OPERATOR_METHODS:
            owner = getattr(tl.semantics, cls)
            patch(owner, method, self._counted(name, getattr(owner, method)))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------------

    def totals(self) -> dict:
        """Per-name span count and seconds, aggregated operator calls, and
        the learner's self time (learn spans minus their children)."""
        out: dict = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for s in self.spans:
            add(s.name + ".count", 1)
            add(s.name + ".s", s.seconds)
            for name, n in s.calls.items():
                add(name + ".count", n)
                add(name + ".s", s.calls_s[name])
            if s.name == "learner.learn":
                add("learner.self.s", s.seconds - s.child_s)
        return out

    def write(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [{
            "name": s.name,
            "op": s.op,
            "parent": index.get(id(s.parent)),
            "start": s.start,
            "end": s.end,
            "child_s": s.child_s,
            "calls": s.calls,
            "calls_s": s.calls_s,
        } for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)
