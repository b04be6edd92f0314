"""Per-module spans for ``wavelogic``, recorded from outside the package.

``install`` rebinds every public function of the measured modules in every
``wavelogic.*`` namespace that holds it (``engine``, ``semantics`` and
``rules`` import names directly, so rebinding the defining module alone would
miss their calls), and wraps ``RewriteRule.find``/``apply``,
``Editor.finish`` and ``TruthTable.format`` on their classes. ``uninstall``
puts every original back. No file of the package changes.

A span is ``(name, start, end, parent, op)``. A call that re-enters the
function it is already inside (``from_boolean`` recursing) gets no span of
its own, so it is counted once. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from collections import Counter

MEASURED = ("parser", "boolexpr", "circuit", "semantics", "patterns", "rules", "engine")
METHODS = (
    ("rules", "RewriteRule", ("find", "apply")),
    ("patterns", "Editor", ("finish",)),
    ("semantics", "TruthTable", ("format",)),
)


def _rows(result, args) -> int:
    circuits = len(args[0].names) if hasattr(args[0], "names") else 1
    return len(result.rows) * circuits


def _steps(result, args) -> int:
    trace = result[1] if isinstance(result, tuple) else result
    return 0 if trace is None else len(trace.steps)


# Counts taken from a call's result, keyed by span name.
COUNTERS = {
    "semantics.truth_table": ("semantics.rows", _rows),
    "rules.RewriteRule.find": ("rules.sites", lambda result, args: len(result)),
    "rules.RewriteRule.apply": ("rules.candidates", lambda result, args: 1),
    "engine.simplify": ("engine.steps", _steps),
    "engine.prove_equal": ("engine.steps", _steps),
}


class Tracer:
    def __init__(self, package):
        self.package = package.__name__
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack = [-1]
        self._inside: set[str] = set()
        self._saved: list = []
        self._functions = {}  # id(original) -> (original, wrapper)
        for short in MEASURED:
            module = sys.modules[f"{self.package}.{short}"]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    self._functions[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))

    def _wrap(self, fn, name):
        spans, stack, inside, counts = self.spans, self._stack, self._inside, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if name in inside:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            inside.add(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                inside.discard(name)
                spans[index] = (name, start, end, parent, self.op)
            if counter is not None:
                counts[counter[0]] += counter[1](result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            return
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == self.package or modname.startswith(self.package + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                entry = self._functions.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, entry[1])
        for short, cls_name, methods in METHODS:
            cls = getattr(sys.modules[f"{self.package}.{short}"], cls_name)
            for method in methods:
                original = cls.__dict__[method]
                self._saved.append((cls, method, original))
                setattr(cls, method, self._wrap(original, f"{short}.{cls_name}.{method}"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def run_op(self, op, fn, *args):
        """Call ``fn`` under a root span ``bench.op`` tagged with ``op``."""
        self.op = op
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = ("bench.op", start, end, -1, op)
            self.op = None

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                out.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarise(spans) -> tuple[Counter, Counter]:
    """Self seconds and call count per span name."""
    seconds: Counter = Counter()
    calls: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        seconds[span[0]] += own
        calls[span[0]] += 1
    return seconds, calls
