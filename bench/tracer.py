"""Spans and counters around warpcheck's public callables, installed from outside.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` rebinds
every public module-level function of the spanned modules in every
``warpcheck`` module that holds it by name, and wraps every public method on
its class.  Each call then appends one span ``[name, start, end, parent]`` to
an in-memory list.  ``Jet3`` arithmetic gets counters only, because a span per
jet operation would cost more than the operation.  ``uninstall`` puts every
original attribute back and checks that it did.
"""

from __future__ import annotations

import functools
import sys
import time
import types

import numpy as np

SPANNED_MODULES = ("cli", "config", "gallery", "sampling", "expr", "riemann",
                   "subman", "warped", "structures", "ineq", "report")

# Jet3 operator -> counter.  Subtraction is counted through the addition it
# performs, and division through its multiplication plus one ``div``.
JET_OPS = {"__add__": "add", "__radd__": "add", "__mul__": "mul",
           "__rmul__": "mul", "__truediv__": "div", "__rtruediv__": "div"}

# Callables whose distinct (metric, chart point) arguments are counted, to
# measure how often the same geometry is rebuilt.
UNIQUE_TRACKED = ("subman.InducedMetric.derivs", "riemann.MetricField.derivs")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []          # [name index, start, end, parent]
        self.jet_ops = dict.fromkeys(sorted(set(JET_OPS.values())), 0)
        self.keys: dict[str, set] = {name: set() for name in UNIQUE_TRACKED}
        self._owners: dict[int, object] = {}  # keeps keyed owners alive
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keys = self.keys.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keys is not None:
                self._note(keys, args)
            rec = [nid, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
        return wrapper

    def _note(self, keys: set, args) -> None:
        # An induced metric is rebuilt as a new object on every use, so it is
        # identified by its immersion; a chart metric by itself.
        owner = getattr(args[0], "im", args[0])
        self._owners[id(owner)] = owner
        keys.add((id(owner), np.asarray(args[1], dtype=float).tobytes()))

    def _count(self, op: str, fn):
        counts = self.jet_ops

        def counted(a, b):
            counts[op] += 1
            return fn(a, b)
        return counted

    def _set(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        package = [m for name, m in list(sys.modules.items())
                   if name == "warpcheck" or name.startswith("warpcheck.")]
        for short in SPANNED_MODULES:
            mod = sys.modules[f"warpcheck.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrapper = self._span(f"{short}.{attr}", obj)
                    for holder in package:
                        for name, value in list(vars(holder).items()):
                            if value is obj:
                                self._set(holder, name, wrapper)
                elif isinstance(obj, type):
                    self._wrap_methods(f"{short}.{attr}", obj)
        jet3 = sys.modules["warpcheck.jets"].Jet3
        for attr, op in JET_OPS.items():
            self._set(jet3, attr, self._count(op, vars(jet3)[attr]))

    def _wrap_methods(self, prefix: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, types.FunctionType):
                self._set(cls, attr, self._span(f"{prefix}.{attr}", raw))
            elif isinstance(raw, (staticmethod, classmethod)):
                self._set(cls, attr,
                          type(raw)(self._span(f"{prefix}.{attr}", raw.__func__)))

    def uninstall(self) -> None:
        """Restore every wrapped attribute; raise if one did not come back."""
        saved, self._saved = self._saved, []
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        wrong = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in saved
                 if vars(o).get(a) is not orig]
        if wrong:
            raise RuntimeError(f"attributes not restored: {', '.join(wrong)}")
        self._owners.clear()

    # -- output -----------------------------------------------------------

    def counters(self) -> dict:
        return {"jet_ops": dict(self.jet_ops),
                "unique": {name: len(keys) for name, keys in self.keys.items()}}

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}


def summarize(dump: dict) -> dict:
    """Per-span-name call counts and times from a tracer dump.

    Returns ``{name: [calls, self seconds, inclusive seconds]}``.  A span's
    self time is its duration minus the durations of its direct children.
    Inclusive time sums only the outermost spans of a name, so a recursive
    call is not counted twice.
    """
    names, spans = dump["names"], dump["spans"]
    child_time = [0.0] * len(spans)
    for nid, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, list] = {}
    for (nid, start, end, parent), inner in zip(spans, child_time):
        entry = out.setdefault(names[nid], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - inner
        while parent >= 0 and spans[parent][0] != nid:
            parent = spans[parent][3]
        if parent < 0:
            entry[2] += end - start
    return out
