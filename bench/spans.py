"""Spans and counts around the layer entry points of nodalcat, from outside.

The tracer replaces module attributes of ``cli``, ``nodal``, ``formalcat``,
``quadric``, ``mukai`` and ``cubic`` with timing wrappers.  Every call
between modules goes through a module attribute (``formalcat.hom``,
``quadric.chi_quadric``, ...), and so does every call a module makes to its
own public functions, so the wrappers see each layer boundary without any
change to the engine.  Private helpers (``formalcat._hom``,
``formalcat._mutate_one``) are not wrapped: their time is the self time of
the public function that called them.

Not wrapped on purpose: ``graded`` and the expression helpers of
``formalcat`` (``normalize``, ``shift_expr``, ``sum_exprs``, ...).  They are
the value types every other layer is made of, so wrapping them would mostly
time the wrapper.

Spans are kept in memory as ``[name, start, end, parent, op]`` and reduced
once, when the pass ends.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, attribute, metric name); right and left mutation share a name
TRACED = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_expr", "cli.parse_expr"),
    ("nodal", "build_context", "nodal.build_context"),
    ("nodal", "verify_dim", "nodal.verify_dim"),
    ("nodal", "kernel_generator", "nodal.kernel_generator"),
    ("nodal", "relative_serre", "nodal.relative_serre"),
    ("nodal", "hom_push", "nodal.hom_push"),
    ("formalcat", "hom", "formalcat.hom"),
    ("formalcat", "mutate_right", "formalcat.mutate"),
    ("formalcat", "mutate_left", "formalcat.mutate"),
    ("formalcat", "serre_in", "formalcat.serre_in"),
    ("formalcat", "check_spherical", "formalcat.check_spherical"),
    ("formalcat", "render", "formalcat.render"),
    ("quadric", "cohomology", "quadric.cohomology"),
    ("quadric", "hom_quadric", "quadric.hom_quadric"),
    ("quadric", "chi_quadric", "quadric.chi_quadric"),
    ("mukai", "chi_hrr", "mukai.chi_hrr"),
    ("cubic", "verify_cubic", "cubic.verify_cubic"),
)

LAYERS = tuple(dict.fromkeys(name for _, _, name in TRACED))

# counters taken at the same boundaries as the spans
COUNTERS = (
    "formalcat.hom.undecided",
    "formalcat.mutate.reused",
    "formalcat.render.bytes",
)


class Tracer:
    """In-memory spans; ``op`` is the id of the running op, None in set-up."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self.active = True
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span = [name, 0.0, 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        if name == "formalcat.mutate":
            return self._wrap_mutate(fn)
        if name == "formalcat.hom":
            return self._wrap_hom(fn)
        if name == "formalcat.render":
            return self._wrap_render(fn)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self.call(name, fn, args, kwargs)

        return traced

    def _wrap_mutate(self, fn):
        def traced(ctx, *args, **kwargs):
            if not self.active:
                return fn(ctx, *args, **kwargs)
            # the registry is append-only, so an unchanged length means
            # the mutation added no triangle
            before = len(ctx._derived_triangles)
            out = self.call("formalcat.mutate", fn, (ctx,) + args, kwargs)
            if len(ctx._derived_triangles) == before:
                self.counts["formalcat.mutate.reused"] += 1
            return out

        return traced

    def _wrap_hom(self, fn):
        from nodalcat.errors import IndeterminateHom, UnsupportedPair

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            try:
                return self.call("formalcat.hom", fn, args, kwargs)
            except (IndeterminateHom, UnsupportedPair):
                self.counts["formalcat.hom.undecided"] += 1
                raise

        return traced

    def _wrap_render(self, fn):
        # Inside formalcat, render is a sort key and recurses once per node:
        # those calls stay in their caller's self time, and only answers
        # rendered for another module get a span.
        home = fn.__globals__

        def traced(*args, **kwargs):
            if not self.active or sys._getframe(1).f_globals is home:
                return fn(*args, **kwargs)
            text = self.call("formalcat.render", fn, args, kwargs)
            self.counts["formalcat.render.bytes"] += len(text)
            return text

        return traced

    def install(self, modules: dict) -> None:
        """Replace the traced attributes of the given {name: module} map."""
        for mod, attr, name in TRACED:
            module = modules[mod]
            setattr(module, attr, self.wrap(name, getattr(module, attr)))


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Spans are in start order, as the tracer appends them.  Overlapping
    children are merged, and a child is clipped to its parent.
    """
    own = [end - start for _, start, end, _, _ in spans]
    covered_to: dict[int, float] = {}
    for _, start, end, parent, _ in spans:
        if parent is None:
            continue
        p_start, p_end = spans[parent][1], spans[parent][2]
        lo = max(start, p_start, covered_to.get(parent, p_start))
        hi = min(end, p_end)
        if hi > lo:
            own[parent] -= hi - lo
        covered_to[parent] = max(covered_to.get(parent, p_start), hi)
    return own


def summarize(spans, counts) -> dict:
    """Per-layer calls, self time and set-up calls, plus the boundary counters."""
    out = {name: {"calls": 0, "self_s": 0.0, "setup_calls": 0} for name in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        entry = out[span[0]]
        entry["calls"] += 1
        entry["self_s"] += own
        if span[4] is None:
            entry["setup_calls"] += 1
    return {"layers": out, "counts": {name: counts.get(name, 0) for name in COUNTERS}}
