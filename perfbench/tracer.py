"""In-memory spans and counters around calls into the program's layers.

The benchmark never edits ``src/``: it wraps public functions on their
owning class or module for the duration of a phase and restores them
afterwards.  A span is ``(name, start, end, parent, attrs)``; spans of
one thread nest through a per-thread stack, so a layer's self time is
its span minus the spans it caused (``Span.self_ms``).  Counters
(``Tracer.count``) cost one dict increment per call and are used where
a span per call would be heavier than the work it measures.

Spans stay in memory and are summarised when the phase ends.
"""

from __future__ import annotations

import bisect
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_MISSING = object()


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "child_s")

    def __init__(self, name: str, start: float, parent: "Optional[Span]") -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs: Optional[dict] = None
        self.child_s = 0.0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    @property
    def self_ms(self) -> float:
        return (self.end - self.start - self.child_s) * 1e3


class Tracer:
    """Installs wrappers, records spans/counters, restores on ``close``."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        own = owner.__dict__.get(attr, _MISSING)
        original = getattr(owner, attr)
        if isinstance(own, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap {owner.__name__}.{attr}: not a plain function")
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, own))

    def span(self, owner, attr: str, name: str,
             attrs: Optional[Callable] = None) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call.

        ``attrs(span, args, result)`` may return a dict stored on the
        span (batch size, rows, steps).
        """

        def make(original):
            def wrapper(*args, **kwargs):
                stack = self._stack()
                parent = stack[-1] if stack else None
                sp = Span(name, time.perf_counter(), parent)
                stack.append(sp)
                try:
                    result = original(*args, **kwargs)
                finally:
                    sp.end = time.perf_counter()
                    stack.pop()
                    if parent is not None:
                        parent.child_s += sp.end - sp.start
                    self.spans.append(sp)
                if attrs is not None:
                    sp.attrs = attrs(sp, args, result)
                return result

            wrapper.__wrapped__ = original
            return wrapper

        self._patch(owner, attr, make)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls to ``owner.attr`` under ``name``."""
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            wrapper.__wrapped__ = original
            return wrapper

        self._patch(owner, attr, make)

    def stamp(self, owner, attr: str, sink: List[float], after: bool) -> None:
        """Append ``perf_counter()`` to ``sink`` before (or after) each call."""

        def make(original):
            def wrapper(*args, **kwargs):
                if not after:
                    sink.append(time.perf_counter())
                result = original(*args, **kwargs)
                if after:
                    sink.append(time.perf_counter())
                return result

            wrapper.__wrapped__ = original
            return wrapper

        self._patch(owner, attr, make)

    def after(self, owner, attr: str, fn: Callable[[], None]) -> None:
        """Call ``fn()`` after each ``owner.attr`` call returns."""

        def make(original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                fn()
                return result

            wrapper.__wrapped__ = original
            return wrapper

        self._patch(owner, attr, make)

    def close(self) -> None:
        """Restore every wrapped attribute (in reverse install order)."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- summaries ------------------------------------------------------

    def windows(self, starts: Sequence[float], ends: Sequence[float]):
        """Bucket spans by the window ``[starts[i], ends[i])`` they start in.

        Returns ``(per_window, top_ms)``: per window a ``{name: [self_ms,
        calls]}`` dict, and the summed duration of its parentless spans.
        """
        per_window = [defaultdict(lambda: [0.0, 0]) for _ in starts]
        top_ms = [0.0] * len(starts)
        for sp in self.spans:
            i = bisect.bisect_right(starts, sp.start) - 1
            if i < 0 or sp.start >= ends[i]:
                continue
            acc = per_window[i][sp.name]
            acc[0] += sp.self_ms
            acc[1] += 1
            if sp.parent is None:
                top_ms[i] += sp.ms
        return per_window, top_ms

    def named(self, name: str) -> List[Span]:
        return [sp for sp in self.spans if sp.name == name]
