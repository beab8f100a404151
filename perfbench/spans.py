"""Spans around the calls into lowdeg's layers, installed from outside.

Every public function of each traced module is replaced, in every lowdeg
module namespace that holds it, by a wrapper that records calls,
inclusive time and self time (inclusive time minus the time of child
spans).  Calls between lowdeg functions therefore show up too, as long as
they go through a module attribute or a module global, which is how the
package calls its own functions.  A few methods are wrapped on their
class.  The hottest arithmetic (Rad multiplication and inversion) is only
counted: a span around each of millions of calls would swamp the timing.

The program itself is unchanged; uninstalling is not needed because the
traced run is a process of its own.
"""

from __future__ import annotations

import inspect
import sys
import time

TRACED_MODULES = (
    "exactnum", "graph_core", "measures", "basis", "advantage",
    "certificate", "models", "reduction", "bounds",
)
TRACED_METHODS = {
    "measures": {"DiscreteMeasure": ("expectation", "map", "condition")},
    "reduction": {"IndicatorFamily": ("evaluate",)},
}
COUNTED_METHODS = {"exactnum": {"Rad": ("__mul__", "__rmul__", "inverse")}}
# Rad.__rmul__ is Rad.__mul__; both directions count as Rad.mul.
COUNT_NAMES = {"Rad.__mul__": "Rad.mul", "Rad.__rmul__": "Rad.mul", "Rad.inverse": "Rad.inverse"}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, incl_s, self_s, max_s]
        self.counts: dict[str, int] = {}
        self.extra: dict[str, float] = {}
        self._stack: list[float] = []
        self._canon_inputs: set = set()

    def span(self, name: str, fn, post=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                if dt > stats[3]:
                    stats[3] = dt
                if stack:
                    stack[-1] += dt
            if post is not None:
                post(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _post_hooks(self):
        def atoms(args, result):
            key = "measures.correlated_er_joint_measure.atoms"
            self.extra[key] = self.extra.get(key, 0) + len(result)

        def canon_input(args, result):
            g = args[0]
            self._canon_inputs.add((g.n_vertices, g.edges, g.vertices))

        return {"measures.correlated_er_joint_measure": atoms, "graph_core.canonicalize": canon_input}

    def install(self):
        """Wrap the layers of an imported lowdeg package in this process."""
        modules = {name: sys.modules[f"lowdeg.{name}"] for name in TRACED_MODULES}
        namespaces = [m for key, m in sys.modules.items() if key.startswith("lowdeg.") and m]
        hooks = self._post_hooks()
        for short, mod in modules.items():
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if attr.startswith("_") or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapped = self.span(name, fn, hooks.get(name))
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            setattr(ns, key, wrapped)
        for short, classes in TRACED_METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[short], cls_name)
                for meth in methods:
                    setattr(cls, meth, self.span(f"{short}.{cls_name}.{meth}", getattr(cls, meth)))
        for short, classes in COUNTED_METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[short], cls_name)
                for meth in methods:
                    name = f"{short}.{COUNT_NAMES[f'{cls_name}.{meth}']}.calls"
                    setattr(cls, meth, self.counter(name, vars(cls)[meth]))

    def report(self) -> dict[str, float]:
        """Flat metrics: <span>.calls/.incl_s/.self_s/.max_s plus counters."""
        out: dict[str, float] = {}
        for name, (calls, incl, self_s, max_s) in self.stats.items():
            if not calls:
                continue
            out[f"{name}.calls"] = calls
            out[f"{name}.incl_s"] = incl
            out[f"{name}.self_s"] = self_s
            out[f"{name}.max_s"] = max_s
        out.update(self.counts)
        out.update(self.extra)
        out["graph_core.canonicalize.distinct_inputs"] = len(self._canon_inputs)
        out["trace.overhead_s"] = self.overhead_s()
        return out

    def overhead_s(self) -> float:
        """Time the spans and counters added to the traced round: their call
        counts times the per-call cost of each kind of wrapper, timed here
        around a function that does nothing."""
        probe = Tracer()
        bare = _seconds_per_call(_nothing)
        span_cost = _seconds_per_call(probe.span("probe", _nothing)) - bare
        count_cost = _seconds_per_call(probe.counter("probe", _nothing)) - bare
        spans = sum(calls for calls, *_ in self.stats.values())
        return spans * span_cost + sum(self.counts.values()) * count_cost


def _nothing():
    pass


def _seconds_per_call(fn, calls: int = 200_000) -> float:
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - t0) / calls
