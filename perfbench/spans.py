"""Span tracer that wraps auprobe's public functions from outside the package.

A traced run replaces selected functions and methods with wrappers that
record one span per call: name, start, end and the index of the span that
was open when the call began (its parent). Spans stay in memory until the
run ends. Nothing inside `auprobe` knows it is being traced.

Module-level functions are often imported by name (`from .layers import
unpool`), so wrapping one rebinds it in every loaded auprobe module that
holds the same function object. Methods are wrapped on their class. A
target that no longer exists is recorded in `absent` instead of failing,
so metrics derived from it drop out when the API changes.

The stack model assumes one thread: the benchmark calls `harvest` with its
default single thread.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "auprobe"
_MISSING = object()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_s, end_s, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.layer_names: dict[int, str] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._plan: list[tuple] = []

    # ------------------------------------------------------------ wiring

    def plan(self, target: str, name, hook=None, timed: bool = True) -> None:
        """Register a wrapper for `install`.

        target: "module.attr" or "module.Class.method" under the package.
        name: span name, or a callable taking the call's positional args.
        hook: called as hook(args, result) after the call returns.
        timed: False records no span (counting hooks on hot paths).
        """
        self._plan.append((target, name, hook, timed))

    def install(self) -> None:
        for target, name, hook, timed in self._plan:
            self._wrap(target, name, hook, timed)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def name_layers(self, net) -> None:
        """Label a network's layer objects conv1.., fc1.. for span names."""
        for i, conv in enumerate(getattr(net, "convs", []), start=1):
            self.layer_names[id(conv)] = f"conv{i}"
        for attr in ("fc1", "fc2"):
            layer = getattr(net, attr, None)
            if layer is not None:
                self.layer_names[id(layer)] = attr

    def layer_span(self, suffix: str):
        """Span namer for layer methods: layers.<conv1|fc2|...>.<suffix>."""
        names = self.layer_names
        return lambda args: f"layers.{names.get(id(args[0]), 'unnamed')}.{suffix}"

    def _resolve(self, target: str):
        modname, *path = target.split(".")
        module = importlib.import_module(f"{PACKAGE}.{modname}")
        owner = module
        for attr in path[:-1]:
            owner = getattr(owner, attr)
        return owner, path[-1], inspect.getattr_static(owner, path[-1])

    def _wrap(self, target, name, hook, timed) -> None:
        try:
            owner, attr, raw = self._resolve(target)
        except (ImportError, AttributeError):
            if target not in self.absent:
                self.absent.append(target)
            return
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind else raw
        wrapper = self._timed(func, name, hook) if timed else self._hooked(func, hook)
        new = kind(wrapper) if kind else wrapper
        if inspect.isclass(owner):
            self._set(owner, attr, new)
            return
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").split(".")[0] != PACKAGE:
                continue
            for bound_name, value in list(vars(module).items()):
                if value is func:
                    self._set(module, bound_name, new)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def _timed(self, func, name, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        namer = name if callable(name) else None

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([namer(args) if namer else name, clock(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    @staticmethod
    def _hooked(func, hook):
        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            hook(args, result)
            return result

        return wrapper

    # ---------------------------------------------------------- analysis

    def summarize(self, ranges) -> "SpanStats":
        """Per-name totals over the spans in `ranges`, (start, end) index pairs.

        A span whose parent lies outside the ranges counts as a root.
        """
        return SpanStats(self.spans, [i for start, end in ranges for i in range(start, end)])


class SpanStats:
    """Call counts, inclusive time and self time per span name.

    Self time is a span's duration minus the time its child spans cover.
    `under[(name, parent_name)]` splits a name's calls by the name of the
    span that caused them.
    """

    def __init__(self, spans: list[list], indices: list[int]):
        inside = set(indices)
        child: dict[int, float] = defaultdict(float)
        for i in indices:
            _, start, end, parent = spans[i]
            if parent in inside:
                child[parent] += end - start
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.under: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        for i in indices:
            name, start, end, parent = spans[i]
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_time[name] += end - start - child[i]
            entry = self.under[(name, spans[parent][0] if parent in inside else "")]
            entry[0] += 1
            entry[1] += end - start

    def per_call_ms(self, *names: str) -> float:
        calls = sum(self.calls.get(n, 0) for n in names)
        return 1e3 * sum(self.total.get(n, 0.0) for n in names) / calls if calls else 0.0

    def under_parents(self, name: str, parents) -> tuple[int, float]:
        calls = total = 0
        for parent in parents:
            c, t = self.under.get((name, parent), (0, 0.0))
            calls += c
            total += t
        return calls, total
