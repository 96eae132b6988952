"""Span tracing from outside the program.

`install` wraps every public function and class of the specshape layers in
each module namespace that binds them, so a call made through any import
path is seen. A wrapped call records a span [name, start, end, parent]; a
layer's self time is the length of its spans minus the part covered by their
child spans. Functions named in COUNT_ONLY are called many times per solve
and only have their calls counted, so their time stays with the caller.

The tracer is inert until `active` is set: calls then pass straight through.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("spectra", "estimation", "waterfill", "shaping", "multilegacy",
          "coded", "mimo", "cli")
COUNT_ONLY = frozenset({"coded.legacy_rate", "coded.decode_rate_at_cognitive"})


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.nones: Counter = Counter()   # calls that returned None

    def reset(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.nones = Counter()

    def spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.counts[name] += 1
            rec = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self.stack.pop()
            if out is None:
                self.nones[name] += 1
            return out
        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def summary(self) -> dict:
        """Aggregate the spans recorded since the last reset: self and
        inclusive seconds per layer and per name, calls and None returns."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layer_self = defaultdict(float)
        incl = defaultdict(float)
        for (name, start, end, _), c in zip(self.spans, child):
            layer_self[name.split(".", 1)[0]] += (end - start) - c
            incl[name] += end - start
        return {"layer_self_s": dict(layer_self), "inclusive_s": dict(incl),
                "calls": dict(self.counts), "nones": dict(self.nones)}


def _targets(module):
    """(qualified name, owner, attribute) of each public function, and of the
    validating constructor of each public class, defined in `module`."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{attr}", module, attr
        elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
            hook = "__post_init__" if "__post_init__" in vars(obj) else "__init__"
            if hook == "__init__" and not dataclasses.is_dataclass(obj):
                continue
            yield f"{layer}.{attr}", obj, hook


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer's public surface; returns the wrapped names."""
    modules = [importlib.import_module(f"specshape.{layer}") for layer in LAYERS]
    namespaces = [m for n, m in sys.modules.items()
                  if n == "specshape" or n.startswith("specshape.")]
    names = []
    for module in modules:
        for name, owner, attr in list(_targets(module)):
            original = vars(owner)[attr]
            wrap = tracer.counted if name in COUNT_ONLY else tracer.spanned
            wrapped = wrap(name, original)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapped)
            else:
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is original:
                            setattr(ns, key, wrapped)
            names.append(name)
    return names
