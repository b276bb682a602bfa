"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public ctqwlab functions by replacing module and class
attributes from outside the package; nothing under ``src/`` changes.  Each
call records a span (name, start, end, parent, operation id) and may add
to named counters.  The spans stay in memory until the run reads them.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the trace, or None
    op: int             # operation id current when the span opened

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_time(intervals: Iterable[tuple[float, float]],
                 lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered_time(children.get(i, ()), s.start, s.end)
            for i, s in enumerate(spans)]


def inclusive_time(spans: list[Span], names: set[str]) -> float:
    """Total duration of spans named in ``names`` that have no ancestor
    named in ``names``, so recursion and nesting are counted once."""
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and spans[p].name not in names:
            p = spans[p].parent
        if p is None:
            total += s.duration
    return total


# A counter hook sees the tracer, the call's arguments and its result.
CountHook = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    """Records spans and counters around patched callables."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._open: list[tuple[int, str]] = []  # (span index, name)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def parent_name(self) -> str | None:
        return self._open[-1][1] if self._open else None

    def wrap(self, name: str, fn: Callable, count: CountHook | None = None
             ) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1][0] if self._open else None
            # Reserve the span's slot now so children can point at it.
            index = len(self.spans)
            self.spans.append(None)  # type: ignore[arg-type]
            self._open.append((index, name))
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._open.pop()
                self.spans[index] = Span(name, start, end, parent, self.op)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def reset(self) -> None:
        """Drop recorded spans and counters; patches stay in place."""
        self.spans = []
        self.counts = defaultdict(float)

    # -- patching ------------------------------------------------------------

    def patch(self, owner: object, attr: str, name: str,
              count: CountHook | None = None,
              also: Iterable[object] = ()) -> None:
        """Replace ``owner.attr`` with a traced wrapper.

        Every namespace in ``also`` that binds the same object under any
        name (a ``from module import name`` copy) is patched too.
        """
        original = getattr(owner, attr)
        traced = self.wrap(name, original, count)
        self.replace(owner, attr, traced)
        for ns in also:
            if ns is owner:
                continue
            for key, value in list(vars(ns).items()):
                if value is original:
                    self.replace(ns, key, traced)

    def replace(self, ns: object, key: str, value: object) -> None:
        """Set ``ns.key`` to ``value`` until :meth:`restore`."""
        self._undo.append((ns, key, vars(ns)[key]))
        setattr(ns, key, value)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            ns, key, value = self._undo.pop()
            setattr(ns, key, value)
