"""Per-layer tracing by shims installed from outside the package.

A layer is a module of the package (``qgrass.schur`` is the layer ``schur``).
A layer boundary is a qgrass function bound in another qgrass module's
namespace (found through ``fn.__module__``): every such binding is replaced by
one timing wrapper per function.  A few functions that are called inside
their own module, or that the benchmark calls directly, are wrapped in their
own namespace as well (``OWN_NAMESPACE``).  ``METHODS`` times ``NilTLOperator.__matmul__`` as a
niltl span and counts two hot methods.

Self time is computed with a stack: a span's duration minus the time of the
spans it encloses.  Only aggregates per layer and per function are kept,
plus one span per benchmark operation, so memory stays bounded.

Nothing here edits the package's files; the shims live in this process only.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("partitions", "cylindric", "tableaux", "schur", "quantum", "niltl", "symmetry", "cli")

# Functions wrapped in their own module too: internal calls to them are the
# work a named metric measures, or the benchmark calls them directly.
OWN_NAMESPACE = (
    ("qgrass.quantum", "_reduce_raw"),
    ("qgrass.symmetry", "gw_triple"),
    ("qgrass.partitions", "cyclic_shift"),
    ("qgrass.niltl", "schubert_op"),
    ("qgrass.cli", "main"),
)
# (module, class, method, timed): counting alone keeps the cost of the
# millions of Partition and fits calls low; their time stays with the caller.
METHODS = (
    ("qgrass.niltl", "NilTLOperator", "__matmul__", True),
    ("qgrass.partitions", "Partition", "__init__", False),
    ("qgrass.partitions", "GrassContext", "fits", False),
)

# Named per-layer metrics: (metric, unit, better, target, statistic).
# A target is "module:qualname"; statistic is calls, seconds (inclusive), or
# the share of calls that returned a nonzero value.
NAMED = (
    ("schur.lr_expand_calls", "count", "lower", "qgrass.schur:_mult_basis_canonical", "calls"),
    ("schur.lr_expand_s", "s", "lower", "qgrass.schur:_mult_basis_canonical", "seconds"),
    ("quantum.reduce_calls", "count", "lower", "qgrass.quantum:_reduce_raw", "calls"),
    ("quantum.reduce_s", "s", "lower", "qgrass.quantum:_reduce_raw", "seconds"),
    ("partitions.partition_new", "count", "lower", "qgrass.partitions:Partition.__init__", "calls"),
    ("partitions.fits_calls", "count", "lower", "qgrass.partitions:GrassContext.fits", "calls"),
    ("partitions.cyclic_shift_calls", "count", "lower", "qgrass.partitions:cyclic_shift", "calls"),
    ("symmetry.gw_triple_calls", "count", "lower", "qgrass.symmetry:gw_triple", "calls"),
    ("tableaux.kostka_calls", "count", "lower", "qgrass.tableaux:quantum_kostka", "calls"),
    ("tableaux.kostka_s", "s", "lower", "qgrass.tableaux:quantum_kostka", "seconds"),
    ("tableaux.kostka_nonzero_ratio", "ratio", "higher", "qgrass.tableaux:quantum_kostka", "nonzero"),
    ("niltl.matmul_calls", "count", "lower", "qgrass.niltl:NilTLOperator.__matmul__", "calls"),
    ("niltl.matmul_s", "s", "lower", "qgrass.niltl:NilTLOperator.__matmul__", "seconds"),
    ("niltl.schubert_op_s", "s", "lower", "qgrass.niltl:schubert_op", "seconds"),
)
NONZERO_TARGETS = {target for *_, target, statistic in NAMED if statistic == "nonzero"}


def _is_function(obj) -> bool:
    # Plain functions and functools.lru_cache wrappers; classes stay untouched
    # so that isinstance checks keep working.
    return inspect.isfunction(obj) or (callable(obj) and hasattr(obj, "cache_info"))


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Installs the shims and accumulates what they measure."""

    def __init__(self):
        self.clock = time.perf_counter
        self.layer_stack = ["bench"]
        self.child_stack = [0.0]
        self.entries: dict[str, int] = {}
        self.self_s: dict[str, float] = {"bench": 0.0}
        self.stats: dict[str, list] = {}  # target -> [calls, seconds, nonzero]
        self.found: set[str] = set()
        self.spans: list[tuple] = []
        self._wrappers: dict[int, object] = {}
        self._started = self._last_mark = None

    def _timed(self, fn, layer: str, target: str):
        stat = self.stats.setdefault(target, [0, 0.0, 0])
        self.entries.setdefault(layer, 0)
        self.self_s.setdefault(layer, 0.0)
        layer_stack, child_stack = self.layer_stack, self.child_stack
        entries, self_s, clock = self.entries, self.self_s, self.clock
        nonzero = target in NONZERO_TARGETS

        def traced(*args, **kwargs):
            if layer_stack[-1] != layer:
                entries[layer] += 1
            layer_stack.append(layer)
            child_stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if nonzero and result:
                    stat[2] += 1
                return result
            finally:
                elapsed = clock() - start
                layer_stack.pop()
                self_s[layer] += elapsed - child_stack.pop()
                child_stack[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed

        return functools.wraps(fn)(traced)

    def _wrapper_for(self, fn):
        wrapper = self._wrappers.get(id(fn))
        if wrapper is None:
            target = f"{fn.__module__}:{fn.__qualname__}"
            wrapper = self._timed(fn, _layer(fn.__module__), target)
            self._wrappers[id(fn)] = wrapper
            self.found.add(target)
        return wrapper

    def install(self) -> None:
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qgrass" or name.startswith("qgrass."))
        ]
        for module in modules:
            for name, obj in list(vars(module).items()):
                owner = getattr(obj, "__module__", None)
                if _is_function(obj) and owner != module.__name__ and str(owner).startswith("qgrass."):
                    setattr(module, name, self._wrapper_for(obj))
        for module_name, name in OWN_NAMESPACE:
            module = sys.modules.get(module_name)
            obj = getattr(module, name, None)
            if obj is not None and _is_function(obj):
                setattr(module, name, self._wrapper_for(obj))
        for module_name, cls_name, attr, timed in METHODS:
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            fn = getattr(cls, attr, None)
            if fn is None:
                continue
            target = f"{module_name}:{cls_name}.{attr}"
            if timed:
                setattr(cls, attr, self._timed(fn, _layer(module_name), target))
            else:
                setattr(cls, attr, self._counted(fn, target))
            self.found.add(target)

    def _counted(self, fn, target: str):
        stat = self.stats.setdefault(target, [0, 0.0, 0])

        def counted(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(counted)

    def start(self) -> None:
        self._started = self._last_mark = self.clock()

    def mark(self, op: str) -> None:
        """Close the span of one benchmark operation, ending now."""
        now = self.clock()
        self.spans.append((op, self._last_mark - self._started, now - self._started))
        self._last_mark = now

    def summary(self, wall_s: float) -> dict:
        """Per-layer and named metrics, plus the names of absent boundaries."""
        self.self_s["bench"] = wall_s - self.child_stack[0]
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = (float(self.entries.get(layer, 0)), "count")
            metrics[f"{layer}.self_s"] = (self.self_s.get(layer, 0.0), "s")
        absent = []
        for name, unit, _, target, statistic in NAMED:
            if target not in self.found:
                absent.append(name)
                metrics[name] = (0.0, unit)
                continue
            calls, seconds, nonzero = self.stats[target]
            if statistic == "calls":
                value = float(calls)
            elif statistic == "seconds":
                value = seconds
            else:
                value = nonzero / calls if calls else 0.0
            metrics[name] = (value, unit)
        return {
            "metrics": metrics,
            "absent": absent,
            "layers_self_s": dict(self.self_s),
            "layer_entries": dict(self.entries),
            "spans": self.spans,
        }
