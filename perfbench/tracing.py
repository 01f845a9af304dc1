"""Layer spans for the traced run, recorded from outside the package.

``Tracer.install`` wraps the public functions of each layer module of
padic_cuntz, the public methods and arithmetic dunders of the classes those
modules define, and every other binding of a wrapped function inside the
package (names bound by ``from … import`` and the package namespace).  Each
call opens a span under the span that is open when it starts.  Spans are
aggregated in memory by call path — name, parent, calls, total and self
time — because the scalar layer alone makes millions of calls a round; the
tree is written out once, at the end of the run.  Counters are updated at
the same boundaries.  A span's self time is its duration minus the time of
the spans it opened; the counters' own cost is charged to neither.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager

#: the package's modules that are layers, bottom up (words and errors are not)
LAYERS = ("scalars", "stepfunctions", "representation", "fock", "coherent",
          "suites", "cli")
ALL_MODULES = LAYERS + ("words", "errors")
DUNDERS = frozenset(("__init__", "__add__", "__radd__", "__sub__",
                     "__rsub__", "__neg__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__eq__"))
SCALAR_OPS = frozenset(("__add__", "__radd__", "__sub__", "__rsub__",
                        "__neg__", "__mul__", "__rmul__", "__truediv__",
                        "__rtruediv__", "scale", "mul_root_p_power",
                        "conjugate", "inverse"))
SCALAR_BINARY = frozenset(("__add__", "__radd__", "__sub__", "__rsub__",
                           "__mul__", "__rmul__", "__truediv__",
                           "__rtruediv__"))


class Tracer:
    def __init__(self):
        self.names = ["<run>"]
        self.parents = [-1]
        self.calls = [0]
        self.total = [0.0]
        self.self_time = [0.0]
        self._children: dict[tuple[int, str], int] = {}
        self._stack = [[0, 0.0]]          # [node, time of child spans]
        self.counts: dict[str, float] = {}
        self._undo: list[tuple[object, str, object]] = []
        self._active = [True]

    # -- span bookkeeping -----------------------------------------------------

    def _node(self, parent: int, name: str) -> int:
        key = (parent, name)
        node = self._children.get(key)
        if node is None:
            node = len(self.names)
            self._children[key] = node
            self.names.append(name)
            self.parents.append(parent)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return node

    def _wrap(self, name: str, fn, hook=None):
        stack, perf = self._stack, time.perf_counter
        calls, total, self_time = self.calls, self.total, self.self_time
        node_of, active = self._node, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [node_of(parent[0], name), 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                node = frame[0]
                calls[node] += 1
                total[node] += t1 - t0
                self_time[node] += t1 - t0 - frame[1]
                parent[1] += t1 - t0
            if hook is not None:
                hook(args, result)
                parent[1] += perf() - t1   # charged to no span
            return result

        return traced

    @contextmanager
    def paused(self):
        """Calls made inside record nothing (the benchmark's own reading)."""
        self._active[0] = False
        try:
            yield
        finally:
            self._active[0] = True

    def span(self, name: str):
        """Open a span from the benchmark's own code (one case)."""
        return _Span(self, name)

    # -- installing the wrappers ----------------------------------------------

    def install(self, package) -> None:
        modules = {m: importlib.import_module(f"{package.__name__}.{m}")
                   for m in ALL_MODULES}
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self._wrap(
                        f"{layer}.{attr}", obj, self._hook(layer, attr))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            hook = self._hook(layer, attr, cls.__name__)
            if inspect.isfunction(raw):
                new = self._wrap(name, raw, hook)
            elif isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(name, raw.__func__, hook))
            else:
                continue
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    # -- counters -------------------------------------------------------------

    def _add(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _peak(self, key: str, n: float) -> None:
        if n > self.counts.get(key, 0):
            self.counts[key] = n

    def _hook(self, layer: str, attr: str, cls: str | None = None):
        if layer == "scalars" and cls == "Scalar" and attr in SCALAR_OPS:
            binary = attr in SCALAR_BINARY

            def hook(args, result):
                self._add("scalars.ops")
                if binary and len(args) == 2 and \
                        _carries_root(args[0]) and _carries_root(args[1]):
                    self._add("scalars.full_ops")
            return hook
        if layer == "stepfunctions":
            def hook(args, result):
                sizes = [len(a.raw) for a in args if _is_step(a)]
                self._add("stepfunctions.values_touched", sum(sizes))
                if _is_step(result):
                    sizes.append(len(result.raw))
                if sizes:
                    self._peak("stepfunctions.peak_values", max(sizes))
            return hook
        if layer == "representation":
            def hook(args, result):
                items = result if isinstance(result, list) else (result,)
                self._add("representation.values_moved",
                          sum(len(x.raw) for x in items if _is_step(x)))
            return hook
        if layer == "fock":
            poly = cls == "LambdaPoly"

            def hook(args, result):
                if poly:
                    self._add("fock.lambda_poly_ops")
                terms = getattr(result, "terms", None)
                if isinstance(terms, dict):
                    self._add("fock.terms_built", len(terms))
            return hook
        if layer == "coherent":
            if attr == "coefficients_of_length":
                return lambda args, result: self._add(
                    "coherent.coefficients_built", len(result))
            if attr == "coefficient":
                return lambda args, result: self._add(
                    "coherent.coefficients_built")
            if attr == "pairing_series":
                return lambda args, result: self._peak(
                    "coherent.max_stabilized_at", result.stabilized_at)
        return None

    # -- results --------------------------------------------------------------

    def layer_of(self, node: int) -> str:
        return self.names[node].split(".", 1)[0]

    def subtree_ms(self, *names: str) -> float:
        """Self time of the named spans and of every span below them, each
        span counted once however many named spans it sits under."""
        total = 0.0
        for n in range(len(self.names)):
            a = n
            while a > 0 and self.names[a] not in names:
                a = self.parents[a]
            if a > 0:
                total += self.self_time[n]
        return 1000 * total

    def layer_totals(self) -> dict[str, dict[str, float]]:
        out = {layer: {"calls": 0, "self_ms": 0.0} for layer in LAYERS}
        for n in range(1, len(self.names)):
            entry = out.get(self.layer_of(n))
            if entry is not None:
                entry["calls"] += self.calls[n]
                entry["self_ms"] += 1000 * self.self_time[n]
        return out

    def tree(self) -> list[dict]:
        return [{"id": n, "parent": self.parents[n], "name": self.names[n],
                 "calls": self.calls[n],
                 "total_ms": round(1000 * self.total[n], 3),
                 "self_ms": round(1000 * self.self_time[n], 3)}
                for n in range(1, len(self.names))]


def _is_step(x) -> bool:
    """A StepFunction (the only package type with raw values and a scale)."""
    return isinstance(getattr(x, "raw", None), tuple) and hasattr(x, "exp")


def _carries_root(x) -> bool:
    """A Scalar operand with a √p or an i component."""
    return bool(getattr(x, "rb", 0) or getattr(x, "ia", 0)
                or getattr(x, "ib", 0))


class _Span:
    __slots__ = ("tracer", "name", "frame", "t0")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.frame = [tr._node(tr._stack[-1][0], self.name), 0.0]
        tr._stack.append(self.frame)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        dur = time.perf_counter() - self.t0
        tr._stack.pop()
        node = self.frame[0]
        tr.calls[node] += 1
        tr.total[node] += dur
        tr.self_time[node] += dur - self.frame[1]
        tr._stack[-1][1] += dur
        return False
