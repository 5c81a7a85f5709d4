"""Span tracing of the goesv layers, installed from outside the package.

Each layer is one module of the package.  While a ``Tracer`` is active,
every public function, public method and ``__init__`` defined in a layer
module is replaced by a wrapper, and so is every other binding of the same
object: ``cli`` and ``gaps`` import kernels by name and the package
``__init__`` re-exports them, so patching only the defining module would
miss most calls.  A wrapper records a span only when its call enters the
layer from another layer or from the benchmark; calls inside a layer pass
straight through.  Leaving the ``with`` block restores every binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("cli", "dense", "sparse", "interlace", "densities", "determinant", "gaps", "streams")


def _is_routine(obj, module_name):
    return (
        callable(obj)
        and not inspect.isclass(obj)
        and getattr(obj, "__module__", None) == module_name
    )


def _size_position(fn):
    """Index of a ``size`` parameter (the sample count of batch kernels)."""
    try:
        names = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    return names.index("size") if "size" in names else None


class Tracer:
    """Records one span per cross-layer call while active.

    ``spans[i]`` is ``(layer, function, parent, start, end, samples)``;
    ``parent`` is the index of the enclosing span or -1 for calls made by
    the benchmark itself, and ``samples`` is the call's ``size`` argument.
    """

    def __init__(self):
        self.package = importlib.import_module("goesv")
        self.modules = {layer: importlib.import_module(f"goesv.{layer}") for layer in LAYERS}
        self.spans = []
        self._open = []
        self._restore = []

    def __enter__(self):
        replacements = {}
        for layer, module in self.modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if _is_routine(obj, module.__name__):
                    replacements[id(obj)] = self._wrap(layer, name, obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._patch_class(layer, obj)
        for module in (self.package, *self.modules.values()):
            for name, obj in list(vars(module).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    self._set(module, name, wrapper)
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)
        self._open.clear()
        return False

    def _set(self, owner, name, value):
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _patch_class(self, layer, cls):
        for name, member in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            label = f"{cls.__name__}.{name}"
            if isinstance(member, (classmethod, staticmethod)):
                self._set(cls, name, type(member)(self._wrap(layer, label, member.__func__)))
            elif inspect.isfunction(member):
                self._set(cls, name, self._wrap(layer, label, member))

    def _wrap(self, layer, label, fn):
        spans, stack = self.spans, self._open
        size_at = _size_position(fn)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1][1] if stack else -1
            stack.append((layer, index))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if size_at is None:
                    samples = 0
                elif len(args) > size_at:
                    samples = args[size_at]
                else:
                    samples = kwargs.get("size", 0)
                spans[index] = (layer, label, parent, start, end, int(samples))

        return traced

    def layer_totals(self):
        """Per layer: self seconds, calls and samples.

        A span's self time is its duration minus the durations of its
        direct children; spans of one thread nest, so children never
        overlap.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for _, _, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {layer: {"self_s": 0.0, "calls": 0, "samples": 0} for layer in LAYERS}
        for i, (layer, _, _, start, end, samples) in enumerate(spans):
            entry = totals[layer]
            entry["self_s"] += end - start - child[i]
            entry["calls"] += 1
            entry["samples"] += samples
        return totals
