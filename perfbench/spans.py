"""Span tracing for the benchmark, kept outside the qdp package.

While a :class:`Tracer` is installed, every public module-level function of
qdp's layer modules is replaced, at every qdp module attribute that binds
it, by a wrapper that records a span.  Calls between qdp functions resolve
through module globals, so cross-module calls made through an imported
name are seen as well.  ``GroverOracleSim.sample`` is wrapped on its class
so that oracle sampling shows up too.  Removing the tracer restores every
attribute it replaced; with no tracer installed, qdp runs unmodified.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = (
    "market_model",
    "contracts",
    "pricing_engines",
    "amplitude_estimation",
    "qarith_resources",
    "error_budget",
    "circuit_estimator",
    "gaussian_loader",
    "cli_report",
)

# Methods wrapped on their class: (layer, class name, method name).
METHODS = (("amplitude_estimation", "GroverOracleSim", "sample"),)


def _len_result(args, kwargs, result):
    return len(result)


# Work counted from a call's arguments and result, by span name.
WORK = {
    "contracts.autocall_payoff_batch": _len_result,
    "contracts.tarf_payoff_batch": _len_result,
}


@dataclass
class Span:
    """One traced call: ``parent`` is an index into the span list or -1."""

    name: str
    start: float
    end: float
    parent: int
    op: int
    work: int = 0


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(i, ())):
            b = min(b, s.end)
            covered += max(0.0, b - max(a, reach))
            reach = max(reach, b)
        out.append((s.end - s.start) - covered)
    return out


class Tracer:
    """Records spans for qdp calls between ``install`` and ``remove``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, work = self.spans, self._stack, WORK.get(name)
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = Span(name, 0.0, 0.0, parent, tracer.op)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if work is not None:
                span.work = work(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.span_name = name
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {
            layer: importlib.import_module(f"qdp.{layer}") for layer in LAYERS
        }
        # Public functions by the layer that defines them, then every qdp
        # module attribute that binds one of them.
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(f"{layer}.{meth}", original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, self seconds and work.

    Keys ``<name>@<parent name>`` split the same figures by the nearest
    traced caller (``@root`` when the call came from the benchmark itself).
    """
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0}
    )
    for s, self_s in zip(spans, selfs):
        parent = spans[s.parent].name if s.parent >= 0 else "root"
        for key in (s.name, f"{s.name}@{parent}"):
            agg = out[key]
            agg["calls"] += 1
            agg["s"] += s.end - s.start
            agg["self_s"] += self_s
            agg["work"] += s.work
    return dict(out)
