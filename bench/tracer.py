"""Span recorder that times calls into the public functions of ``nicolai``.

Tracing is installed from outside the package.  Every public function of
``fock``, ``model``, ``charges``, ``groundstates``, ``dynamics`` and ``cli``
(plus the method ``OperatorSum.to_sparse``) is wrapped, and the wrapper is
bound under every name that refers to the original in any ``nicolai.*``
module namespace.  Binding every alias matters: ``cli``, ``charges`` and
``dynamics`` copy names with ``from .fock import ...``, and
``kernel_census`` / ``ergodicity_report`` import lazily at call time, which
reads the module attribute and therefore finds the wrapper too.

Spans are kept in memory; a span's self time is its duration minus the part
of that interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field

PACKAGE = "nicolai"
LAYERS = ("fock", "model", "charges", "groundstates", "dynamics", "cli")
# Methods traced as if they were module functions: (module, class, method).
METHODS = (("model", "OperatorSum", "to_sparse"),)


@dataclass
class Span:
    name: str
    parent: int | None  # index of the enclosing span in the same thread
    start: float
    end: float = 0.0
    sizes: dict = field(default_factory=dict)


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list) -> list:
    """Per span: duration minus the part of it covered by its child spans."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        kids = [
            (max(c.start, s.start), min(c.end, s.end)) for c in children.get(i, ())
        ]
        out.append((s.end - s.start) - _covered(kids))
    return out


def public_functions(module) -> dict:
    """Module-level functions defined in ``module`` whose names are public."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


class Tracer:
    """Wraps the package's public functions; :meth:`uninstall` restores them.

    ``probes`` maps a span name to ``probe(args, kwargs, result) -> dict`` of
    sizes stored on the span (dimensions, nnz, counts).  Probes must return
    plain numbers so no large result is kept alive.
    """

    def __init__(self, probes: dict | None = None):
        self.probes = probes or {}
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._rebound: list = []  # (namespace, attribute, original)

    def _wrap(self, name: str, fn):
        probe = self.probes.get(name)
        spans, lock, local = self.spans, self._lock, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = Span(name, stack[-1] if stack else None, time.perf_counter())
            with lock:
                spans.append(span)
                index = len(spans) - 1
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if probe is not None:
                span.sizes = probe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer already installed")
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for attr, fn in public_functions(mod).items():
                wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._rebound.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[f"{PACKAGE}.{layer}"], cls_name)
            original = cls.__dict__[method]
            self._rebound.append((cls, method, original))
            setattr(cls, method, self._wrap(f"{layer}.{method}", original))

    def uninstall(self) -> None:
        while self._rebound:
            namespace, attr, original = self._rebound.pop()
            setattr(namespace, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
