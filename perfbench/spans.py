"""In-memory spans around the public functions of each spinfp layer.

Modules bind each other's functions with ``from ... import``, so a wrapper
installed only on the defining module would miss most calls.  ``install``
therefore replaces every reference to a wrapped function in every loaded
``spinfp`` module, including tuples of functions such as verify's criterion
list, and ``uninstall`` puts the originals back.

A span is a name id, start, end, parent index and failure flag, kept in
flat arrays so that recording one allocates no Python object the garbage
collector would have to scan.  Self time is a span's duration minus the
durations of its direct children; calls on one thread nest, so the
children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict

LAYERS = (
    "spin_algebra",
    "closed_form",
    "waveguide_solver",
    "transfer_oracle",
    "observables",
    "scenarios.config",
    "scenarios.states",
    "scenarios.sweeps",
    "scenarios.verify",
)
# called once per CSV value: a span there would cost more than the call
UNWRAPPED = {"scenarios.sweeps.format_float"}
METHODS = {"spin_algebra": (("CoupledBasis", "to_coupled"), ("CoupledBasis", "to_product"))}
SOLVER = "waveguide_solver"


class Tracer:
    def __init__(self):
        self.keys = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.failed = array("b")
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def wrap(self, fn, name: str, layer: str, on_return=None):
        """A wrapper that records one span per call of ``fn``."""
        key = self._name_id(name, layer)
        keys, starts, ends, parents, failed = (
            self.keys, self.starts, self.ends, self.parents, self.failed)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(keys)
            keys.append(key)
            parents.append(stack[-1] if stack else -1)
            failed.append(1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            failed[index] = 0
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def _innermost_layer(self) -> str | None:
        if not self._stack:
            return None
        return self.layer_of[self.keys[self._stack[-1]]]

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, on_return: dict | None = None) -> None:
        """Wrap every public function of every layer where callers look it up."""
        on_return = on_return or {}
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"spinfp.{layer}")
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__
                        or name in UNWRAPPED):
                    continue
                wrappers[id(obj)] = self.wrap(obj, name, layer, on_return.get(name))
            for cls_name, method in METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                self._set(cls, method, self.wrap(
                    getattr(cls, method), f"{layer}.{cls_name}.{method}", layer))

        for mod_name, module in list(sys.modules.items()):
            if mod_name != "spinfp" and not mod_name.startswith("spinfp."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._set(module, attr, wrappers[id(obj)])
                elif isinstance(obj, tuple) and any(id(f) in wrappers for f in obj):
                    self._set(module, attr, tuple(wrappers.get(id(f), f) for f in obj))

        linalg = importlib.import_module("numpy.linalg")
        solve = linalg.solve

        @functools.wraps(solve)
        def counted_solve(*args, **kwargs):
            if self._innermost_layer() == SOLVER:
                self.counters[f"{SOLVER}.linalg_solves"] += 1
            return solve(*args, **kwargs)

        self._set(linalg, "solve", counted_solve)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self) -> tuple[dict, dict]:
        """Per-layer and per-name sums over the closed spans.

        Layer entries: ``self_s``, ``calls`` (spans entered from another
        layer), ``entry_s`` (their inclusive time) and ``failed``.  Name
        entries: ``self_s``, ``total_s`` and ``calls``.
        """
        keys, starts, ends, parents = self.keys, self.starts, self.ends, self.parents
        child = [0.0] * len(keys)
        for index, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += ends[index] - starts[index]
        layers: dict = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "entry_s": 0.0,
                                            "failed": 0})
        names: dict = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        for index, key in enumerate(keys):
            layer = self.layer_of[key]
            duration = ends[index] - starts[index]
            own = duration - child[index]
            parent = parents[index]
            entry = layers[layer]
            entry["self_s"] += own
            entry["failed"] += self.failed[index]
            if parent < 0 or self.layer_of[keys[parent]] != layer:
                entry["calls"] += 1
                entry["entry_s"] += duration
            by_name = names[self.names[key]]
            by_name["self_s"] += own
            by_name["total_s"] += duration
            by_name["calls"] += 1
        return dict(layers), dict(names)

    def write(self, path) -> None:
        """Write every span as CSV: name, start and end (s from the first), parent, failed."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("name,start_s,end_s,parent,failed\n")
            for index, key in enumerate(self.keys):
                out.write(f"{self.names[key]},{self.starts[index] - origin:.9f},"
                          f"{self.ends[index] - origin:.9f},{self.parents[index]},"
                          f"{self.failed[index]}\n")
