"""Layer tracing from outside the program.

``Tracer.install`` replaces every public function of the nusample modules, in
every module namespace that binds it, by a wrapper that records a span
(name, start, end, parent).  ``scipy.linalg.block_diag`` is wrapped only as
``lti`` calls it, and ``minimize_scalar`` only as ``design`` calls it.  Spans
stay in memory until ``take`` folds one command's spans into per-name calls,
self time and total time.
"""
from __future__ import annotations

import functools
import importlib
import time
import types
from collections import defaultdict

MODULES = ("cli", "fileio", "lti", "analysis", "design", "simulate")


def _public_functions(module):
    return {name: fn for name, fn in vars(module).items()
            if isinstance(fn, types.FunctionType) and not name.startswith("_")
            and fn.__module__ == module.__name__}


class _LinalgView:
    """Stands in for ``scipy`` inside ``lti`` so that only lti's calls to
    ``scipy.linalg.block_diag`` pass through the wrapper."""

    def __init__(self, scipy, block_diag):
        self._scipy = scipy
        self.linalg = types.SimpleNamespace(block_diag=block_diag)

    def __getattr__(self, name):
        return getattr(self._scipy, name)


class Tracer:
    def __init__(self):
        self.spans = []      # (name, start, end, parent index) per finished span
        self._stack = []
        self._restore = []   # (namespace, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
        return wrapper

    def _bind(self, namespace, attr, value):
        self._restore.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self):
        pkg = importlib.import_module("nusample")
        modules = [importlib.import_module(f"nusample.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, fn in _public_functions(mod).items():
                wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for namespace in [pkg, *modules]:
            for attr, value in list(vars(namespace).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._bind(namespace, attr, wrappers[value])
        lti, design = modules[MODULES.index("lti")], modules[MODULES.index("design")]
        block_diag = self._wrap("lti.block_diag", lti.scipy.linalg.block_diag)
        self._bind(lti, "scipy", _LinalgView(lti.scipy, block_diag))
        self._bind(design, "minimize_scalar",
                   self._wrap("design.minimize_scalar", design.minimize_scalar))

    def uninstall(self):
        while self._restore:
            namespace, attr, original = self._restore.pop()
            setattr(namespace, attr, original)

    def take(self):
        """Fold the recorded spans into {name: [calls, self_s, total_s]} plus
        the number of design candidate evaluations, then forget them."""
        spans = list(self.spans)
        self.spans.clear()   # the wrappers keep appending to this same list
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        candidates = 0
        for i, (name, start, end, parent) in enumerate(spans):
            entry = stats[name]
            entry[0] += 1
            entry[1] += end - start - child[i]
            entry[2] += end - start
            # a candidate is one Gram evaluation made by the design search itself
            if (name == "analysis.sampled_mode_vectors" and parent >= 0
                    and spans[parent][0] in ("design.design_sequence_generic",
                                             "design.minimize_scalar")):
                candidates += 1
        return stats, candidates
