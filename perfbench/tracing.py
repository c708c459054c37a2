"""In-memory spans around calls into the program, and the tree arithmetic on them.

A span is (id, name, start, end, parent id, run id).  Spans are appended to a
list while the run goes and written out once it ends.  Wrappers are installed
at every binding site of a function: the program imports functions by name
(``from .lindblad import apply_generator``), so patching the defining module
alone would miss the calls made through the importing module's global.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from typing import Callable, NamedTuple, Optional

from stats import percentile


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and per-span attributes from any thread.

    A span opened on a thread with no open span of its own (a pool worker)
    takes as parent the innermost span open on the main thread: the program's
    only pool (``run_cell``) blocks its caller until the workers finish, so
    that span is the one that caused the work.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.attrs: dict[int, dict] = {}
        self.run_id = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call.  ``observe(attrs, params, result)``,
        with ``params`` the call's arguments by parameter name, may add
        attributes to the span after a call that returned."""
        signature = inspect.signature(fn) if observe is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not self._main_stack and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, self.run_id))
            if observe is not None:
                attrs = {}
                observe(attrs, signature.bind(*args, **kwargs).arguments, result)
                self.attrs[span_id] = attrs
            return result

        return wrapper

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                row = {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent, "run": s.run}
                row.update(self.attrs.get(s.id, {}))
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")


class Installed:
    """Wrappers patched over every module global bound to a traced function."""

    def __init__(self, tracer: Tracer, targets, package: str):
        """``targets``: (module name, function name, observer or None) triples;
        the span name is the module's last component and the function name."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        self._patched = []
        for module_name, fn_name, observe in targets:
            original = getattr(sys.modules[module_name], fn_name)
            wrapper = tracer.wrap(f"{module_name.rsplit('.', 1)[-1]}.{fn_name}", original, observe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def sites(self) -> list[str]:
        return sorted(f"{m.__name__}.{attr}" for m, attr, _ in self._patched)

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.remove()


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class SpanTree:
    """Parent/child queries over a finished list of spans."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {s.id: s for s in self.spans}
        self.children: dict[int, list[Span]] = {}
        self.by_name: dict[str, list[Span]] = {}
        for s in self.spans:
            self.by_name.setdefault(s.name, []).append(s)
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def named(self, name: str) -> list[Span]:
        return self.by_name.get(name, [])

    def ancestors(self, span: Span):
        parent = span.parent
        while parent is not None and parent in self.by_id:
            span = self.by_id[parent]
            yield span
            parent = span.parent

    def has_ancestor(self, span: Span, name: str) -> bool:
        return any(a.name == name for a in self.ancestors(span))

    def outermost(self, name: str) -> list[Span]:
        """Spans of ``name`` not nested in another span of the same name."""
        return [s for s in self.named(name) if not self.has_ancestor(s, name)]

    def self_time(self, span: Span) -> float:
        """The span's duration minus the part of it its children cover."""
        kids = [(c.start, c.end) for c in self.children.get(span.id, ())]
        return span.duration - union_length(kids, span.start, span.end)

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def busy(self, name: str) -> float:
        return sum(s.duration for s in self.outermost(name))

    def self_busy(self, name: str) -> float:
        return sum(self.self_time(s) for s in self.outermost(name))

    def p50_ms(self, name: str) -> float:
        durations = [s.duration for s in self.named(name)]
        return 1000.0 * percentile(durations, 50.0) if durations else 0.0
