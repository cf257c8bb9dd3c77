"""Spans around the library's layer functions, from outside the library.

``Tracer.install`` rebinds every name under which a loaded graveropt
module refers to a traced function, so calls between the library's own
modules pass through the wrapper too; ``uninstall`` puts the originals
back.  A function missing from the library is skipped and reports zero
calls.

Each span is closed against its parent on the tracer's stack: the
parent's child time grows by the span's duration, the span's self time
is its duration minus its own child time, and the (parent, layer) edge
is counted.  Only these aggregates are kept, so memory stays flat over
hundreds of thousands of spans.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

ROOT = "bench.instance"

# (layer name, module, attribute path): the library functions the
# benchmark attributes time and counts to.
LAYERS = (
    ("core.kernel_lattice_basis", "core", "kernel_lattice_basis"),
    ("graver.compute_graver", "graver", "compute_graver"),
    ("graver.project_first_n", "graver", "project_first_n"),
    ("graver.close_permutation_group", "graver", "close_permutation_group"),
    ("testset.compute_test_set", "testset", "compute_test_set"),
    ("augment.instance_test_set", "augment", "instance_test_set"),
    ("augment.solve", "augment", "solve"),
    ("augment.find_improving", "augment", "find_improving"),
    ("augment.line_search", "augment", "line_search"),
    ("objective.value", "objective", "SeparableObjective.value"),
    ("quadratic.binary_rephrase", "quadratic", "binary_rephrase"),
    ("qap.to_cip", "qap", "to_cip"),
    ("qap.relabeling_symmetries", "qap", "relabeling_symmetries"),
    ("qap.applicable_directions", "qap", "applicable_directions"),
)


# Exact counts taken at a layer boundary from its arguments and result:
# layer -> function (args, result) -> {counter: increment}.
COUNTERS = {
    "testset.compute_test_set": lambda args, res: {"directions": len(res)},
    "graver.compute_graver": lambda args, res: {"basis_size": len(res)},
    "graver.project_first_n": lambda args, res: {"in": len(args[0]), "out": len(res)},
    "qap.applicable_directions": lambda args, res: {"in": len(args[0]), "out": len(res)},
    "qap.relabeling_symmetries": lambda args, res: {"group_order": len(res) if res else 1},
    "augment.solve": lambda args, res: {"steps": len(res.steps)},
    "augment.line_search": lambda args, res: {"improving": int(res is not None)},
}


def _resolve(module: str, path: str):
    """(owner, attribute, function) for a dotted path, or None if absent."""
    try:
        owner = importlib.import_module("graveropt." + module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return (owner, attr, fn) if callable(fn) else None


class Tracer:
    def __init__(self) -> None:
        self.names = [ROOT] + [name for name, _, _ in LAYERS]
        self.calls = dict.fromkeys(self.names, 0)
        self.total = dict.fromkeys(self.names, 0.0)
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.counts: dict[str, int] = {}
        self.edges: dict[tuple[str, str], int] = {}
        self.errors = 0
        self._stack: list[list] = []
        self._bindings: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name."""
        frame = [0.0]
        parent = self._stack[-1][1] if self._stack else None
        self._stack.append((frame, name))
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = perf_counter() - start
            self._stack.pop()
            self.calls[name] += 1
            self.total[name] += dur
            self.self_s[name] += dur - frame[0]
            if self._stack:
                self._stack[-1][0][0] += dur
            edge = (parent, name)
            self.edges[edge] = self.edges.get(edge, 0) + 1
        counter = COUNTERS.get(name)
        if counter is not None:
            try:
                deltas = counter(args, result)
            except (TypeError, AttributeError, LookupError):
                # the layer's signature or result changed shape; the
                # counters of this call are lost, the run goes on
                self.errors += 1
            else:
                for key, inc in deltas.items():
                    full = "%s.%s" % (name, key)
                    self.counts[full] = self.counts.get(full, 0) + inc
        return result

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.span(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind each traced function in every graveropt module that holds it."""
        for name, module, path in LAYERS:
            found = _resolve(module, path)
            if found is None:
                continue
            owner, attr, fn = found
            wrapper = self._wrap(name, fn)
            if isinstance(owner, type):
                self._bindings.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "graveropt" or
                                       mod_name.startswith("graveropt.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._bindings.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._bindings):
            setattr(owner, attr, fn)
        self._bindings.clear()
