"""Span tracing of wcost's layers, installed from outside the package.

The traced run wraps each layer's public entry points: every module attribute
a caller looks up (``wcost.mc.sigma2`` is a binding of its own, apart from
``wcost.variance.sigma2``) and the methods the layers define on their
classes.  Spans aggregate as they close into a calling-context tree keyed by
the path of span names, so memory stays flat however many quadrature panels a
run evaluates.  A span's self time is its duration minus the durations of its
child spans; on one thread children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

import numpy as np

INTEGRAND = "quadrature.integrand"
_MARK = "__perfbench_span__"

#: (module, function, span name): module-level entry points.  Every binding of
#: the function object in any wcost module is wrapped.
FUNCTIONS = (
    ("wcost.estimate", "empirical_cost", "estimate.empirical_cost"),
    ("wcost.estimate", "trimmed_empirical_cost", "estimate.trimmed_empirical_cost"),
    ("wcost.estimate", "exact_cost", "estimate.exact_cost"),
    ("wcost.quadrature", "integrate_1d", "quadrature.integrate_1d"),
    ("wcost.quadrature", "integrate_2d", "quadrature.integrate_2d"),
    ("wcost.quadrature", "integrate_open01", "quadrature.integrate_open01"),
    ("wcost.quadrature", "integrate_square_open", "quadrature.integrate_square_open"),
    ("wcost.variance", "sigma2", "variance.sigma2"),
    ("wcost.variance", "plug_in_sigma2", "variance.plug_in_sigma2"),
    ("wcost.variance", "confidence_interval", "variance.confidence_interval"),
    ("wcost.assumptions", "verify_triple", "assumptions.verify_triple"),
    ("wcost.assumptions", "check_cfg", "assumptions.check_cfg"),
    ("wcost.mc", "run_clt_experiment", "mc.run_clt_experiment"),
    ("wcost.mc", "replicate_seed", "mc.replicate_seed"),
    ("wcost.mc", "ks_statistic", "mc.ks_statistic"),
    ("wcost.cli", "main", "cli.main"),
)

#: (module, method, span name, number of array arguments whose broadcast size
#: is counted as points, 0 for none): wrapped on every class of the module
#: that defines the method itself.
METHODS = (
    ("wcost.distributions", "quantile", "distributions.quantile", 1),
    ("wcost.distributions", "density_quantile", "distributions.density_quantile", 1),
    ("wcost.costs", "evaluate", "costs.evaluate", 2),
    ("wcost.costs", "gradient", "costs.gradient", 2),
    ("wcost.coupling", "sample_uniforms", "coupling.sample_uniforms", 0),
    ("wcost.coupling", "copula_cdf", "coupling.copula_cdf", 2),
    ("wcost.estimate", "sorted_columns", "estimate.sorted_columns", 0),
)

#: Integrators whose integrand argument is wrapped to count panels: each
#: Gauss--Kronrod panel evaluates the integrand exactly once.
_PANEL_COUNTED = ("quadrature.integrate_1d", "quadrature.integrate_2d")


class Node:
    """Aggregate of every span that closed at one calling-context path."""

    __slots__ = ("calls", "total_s", "self_s", "points")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.points = 0


class _Frame:
    __slots__ = ("path", "start", "child_s", "seen_2d")

    def __init__(self, path, start):
        self.path = path
        self.start = start
        self.child_s = 0.0
        self.seen_2d = False


class Tracer:
    """Open spans on a stack; closed spans fold into ``tree`` and ``counts``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.tree: dict[tuple[str, ...], Node] = {}
        self.counts: Counter = Counter()
        self._stack: list[_Frame] = []

    def current(self) -> str | None:
        return self._stack[-1].path[-1] if self._stack else None

    def enter(self, name: str, points: int = 0) -> _Frame:
        parent = self._stack[-1].path if self._stack else ()
        frame = _Frame(parent + (name,), 0.0)
        if points:
            self._node(frame.path).points += points
        self._stack.append(frame)
        frame.start = self.clock()
        return frame

    def exit(self, frame: _Frame, error: BaseException | None = None) -> None:
        duration = self.clock() - frame.start
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame.path[-1]} closed out of order")
        node = self._node(frame.path)
        node.calls += 1
        node.total_s += duration
        node.self_s += duration - frame.child_s
        name = frame.path[-1]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_s += duration
            if name == "quadrature.integrate_2d" and parent.path[-1] == "quadrature.integrate_square_open":
                if parent.seen_2d:
                    self.counts["strips_s"] += duration
                parent.seen_2d = True
        if (error is not None and name.startswith("quadrature.")
                and any(c.__name__ == "NonconvergenceError" for c in type(error).__mro__)
                and (parent is None or not parent.path[-1].startswith("quadrature."))):
            self.counts["nonconvergence"] += 1

    def _node(self, path) -> Node:
        node = self.tree.get(path)
        if node is None:
            node = self.tree[path] = Node()
        return node

    # --- aggregation over the tree ------------------------------------------

    def by_name(self, name: str) -> Node:
        out = Node()
        for path, node in self.tree.items():
            if path[-1] == name:
                out.calls += node.calls
                out.total_s += node.total_s
                out.self_s += node.self_s
                out.points += node.points
        return out

    def total_under(self, name: str, ancestor: str) -> float:
        """Duration of ``name`` spans with an ``ancestor`` span above them."""
        return sum(node.total_s for path, node in self.tree.items()
                   if path[-1] == name and ancestor in path[:-1])

    def child_total(self, parent: str, child: str) -> float:
        return sum(node.total_s for path, node in self.tree.items()
                   if len(path) >= 2 and path[-2:] == (parent, child))

    def child_calls(self, parent: str, child: str) -> int:
        return sum(node.calls for path, node in self.tree.items()
                   if len(path) >= 2 and path[-2:] == (parent, child))

    def root_total(self) -> float:
        return sum(node.total_s for path, node in self.tree.items() if len(path) == 1)


def _size(args, count: int) -> int:
    if count == 1:
        return int(np.size(args[0]))
    return int(np.broadcast(*args[:count]).size)


def _span(tracer: Tracer, name: str, fn, points_args: int = 0, method: bool = False):
    """Wrap ``fn`` so that each call is one span named ``name``."""
    skip = 1 if method else 0

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        points = 0
        if points_args and tracer.current() != name:
            points = _size(args[skip:], points_args)
        if name in _PANEL_COUNTED:
            args = (_span(tracer, INTEGRAND, args[0]),) + args[1:]
        frame = tracer.enter(name, points)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.exit(frame, exc)
            raise
        tracer.exit(frame)
        return result

    setattr(wrapped, _MARK, name)
    return wrapped


def _wcost_modules() -> list:
    import wcost

    names = sorted({m for m, _, _ in FUNCTIONS} | {m for m, _, _, _ in METHODS})
    return [wcost] + [importlib.import_module(name) for name in names]


class Patcher:
    """Installs the span wrappers and puts every original back on ``remove``."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = _wcost_modules()
        try:
            for mod_name, attr, name in FUNCTIONS:
                original = getattr(importlib.import_module(mod_name), attr)
                wrapper = _span(self.tracer, name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, original, wrapper)
            for mod_name, attr, name, points_args in METHODS:
                mod = importlib.import_module(mod_name)
                for cls in vars(mod).values():
                    if (isinstance(cls, type) and cls.__module__ == mod_name
                            and attr in vars(cls)):
                        original = vars(cls)[attr]
                        self._set(cls, attr, original,
                                  _span(self.tracer, name, original, points_args, method=True))
        except BaseException:
            self.remove()
            raise

    def _set(self, owner, key: str, original, wrapper) -> None:
        self._undo.append((owner, key, original))
        setattr(owner, key, wrapper)

    def remove(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)


def installed_wrappers() -> list[str]:
    """Every span wrapper still reachable from a wcost module or class."""
    found = []
    for mod in _wcost_modules():
        for key, value in vars(mod).items():
            if hasattr(value, _MARK):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                found.extend(f"{mod.__name__}.{key}.{attr}"
                             for attr, member in vars(value).items() if hasattr(member, _MARK))
    return found


# --- per-layer metrics ----------------------------------------------------------

def _self(name):
    return lambda t: _hit(t, name, t.by_name(name).self_s)


def _field(name, attr):
    return lambda t: _hit(t, name, getattr(t.by_name(name), attr))


def _hit(t: Tracer, name: str, value):
    return value if t.by_name(name).calls else None


def _panels(name):
    return lambda t: _hit(t, name, t.child_calls(name, INTEGRAND))


def _overhead(name):
    return lambda t: _hit(t, name, t.by_name(name).total_s - t.child_total(name, INTEGRAND))


def _under(name, ancestor):
    return lambda t: _hit(t, ancestor, t.total_under(name, ancestor))


def _nonconvergence(t: Tracer):
    hit = any(path[-1].startswith("quadrature.") for path in t.tree)
    return t.counts["nonconvergence"] if hit else None


#: Reported per-layer metrics: name -> (unit, how it is read from the tracer).
#: A reader returns None when the layer's entry point was never hit.
LAYER_METRICS = {
    "distributions.quantile.self_s": ("s", _self("distributions.quantile")),
    "distributions.quantile.points": ("count", _field("distributions.quantile", "points")),
    "distributions.density_quantile.self_s": ("s", _self("distributions.density_quantile")),
    "distributions.density_quantile.points": ("count", _field("distributions.density_quantile", "points")),
    "costs.evaluate.self_s": ("s", _self("costs.evaluate")),
    "costs.evaluate.points": ("count", _field("costs.evaluate", "points")),
    "costs.gradient.self_s": ("s", _self("costs.gradient")),
    "costs.gradient.points": ("count", _field("costs.gradient", "points")),
    "coupling.sample_uniforms.self_s": ("s", _self("coupling.sample_uniforms")),
    "coupling.copula_cdf.self_s": ("s", _self("coupling.copula_cdf")),
    "coupling.copula_cdf.points": ("count", _field("coupling.copula_cdf", "points")),
    "estimate.sorted_columns.self_s": ("s", _self("estimate.sorted_columns")),
    "estimate.empirical_cost.self_s": ("s", _self("estimate.empirical_cost")),
    "estimate.trimmed_empirical_cost.self_s": ("s", _self("estimate.trimmed_empirical_cost")),
    "estimate.trimmed_empirical_cost.calls": ("count", _field("estimate.trimmed_empirical_cost", "calls")),
    "estimate.exact_cost.self_s": ("s", _self("estimate.exact_cost")),
    "quadrature.integrate_1d.calls": ("count", _field("quadrature.integrate_1d", "calls")),
    "quadrature.integrate_1d.panels": ("count", _panels("quadrature.integrate_1d")),
    "quadrature.integrate_1d.overhead_s": ("s", _overhead("quadrature.integrate_1d")),
    "quadrature.integrate_2d.calls": ("count", _field("quadrature.integrate_2d", "calls")),
    "quadrature.integrate_2d.panels": ("count", _panels("quadrature.integrate_2d")),
    "quadrature.integrate_2d.overhead_s": ("s", _overhead("quadrature.integrate_2d")),
    "quadrature.nonconvergence": ("count", _nonconvergence),
    "variance.sigma2.self_s": ("s", _self("variance.sigma2")),
    "variance.tail_guard_s": ("s", _under("quadrature.integrate_open01", "variance.sigma2")),
    "variance.kernel_terms_s": ("s", _under("quadrature.integrate_square_open", "variance.sigma2")),
    "variance.strips_s": ("s", lambda t: _hit(t, "quadrature.integrate_square_open",
                                                t.counts["strips_s"])),
    "variance.plug_in_sigma2.self_s": ("s", _self("variance.plug_in_sigma2")),
    "variance.confidence_interval.calls": ("count", _field("variance.confidence_interval", "calls")),
    "variance.confidence_interval.self_s": ("s", _self("variance.confidence_interval")),
    "assumptions.verify_triple.self_s": ("s", _self("assumptions.verify_triple")),
    "assumptions.check_cfg.self_s": ("s", _self("assumptions.check_cfg")),
    "mc.run_clt_experiment.self_s": ("s", _self("mc.run_clt_experiment")),
    "mc.replicate_seed.self_s": ("s", _self("mc.replicate_seed")),
    "mc.ks_statistic.self_s": ("s", _self("mc.ks_statistic")),
    "cli.main.self_s": ("s", _self("cli.main")),
}


def layer_metrics(t: Tracer) -> dict[str, tuple[float | None, str]]:
    """Every per-layer metric as (value or None when unmeasured, unit)."""
    return {name: (reader(t), unit) for name, (unit, reader) in LAYER_METRICS.items()}
