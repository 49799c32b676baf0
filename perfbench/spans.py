"""In-memory span recorder used by the benchmark's traced runs.

Spans are opened around calls into the pipeline's public functions by
patching the attribute the caller looks up (a class method or a module-level
name), so nothing under ``src/`` changes.  A :class:`contextvars.ContextVar`
holds the current span, which gives each span its parent; a span opened on a
thread that carries no context (an executor worker) is parented to the
tracer's root span instead.  Spans stay in memory and are written out once,
after the run.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable


class Span:
    """One timed call: name, start, end, parent span id and free attributes."""

    __slots__ = ("id", "name", "start", "end", "parent", "attrs")

    def __init__(self, span_id: int, name: str, start: float, parent: int | None):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "attrs": self.attrs}


def covered(interval: tuple[float, float],
            children: list[tuple[float, float]]) -> float:
    """Length of the part of ``interval`` that the union of ``children`` covers."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Tracer:
    """Records spans; :meth:`patch` instruments an attribute, :meth:`restore` undoes it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "perfbench_span", default=None)
        self._root: int | None = None
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    @contextmanager
    def span(self, name: str, root: bool = False):
        """Time the block as a span; ``root=True`` adopts context-less threads."""
        parent = self._current.get()
        if parent is None:
            parent = self._root
        with self._lock:
            span = Span(len(self.spans), name, 0.0, parent)
            self.spans.append(span)
        token = self._current.set(span.id)
        if root:
            previous_root, self._root = self._root, span.id
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._current.reset(token)
            if root:
                self._root = previous_root

    def wrap(self, name: str, fn: Callable,
             describe: Callable[..., dict] | None = None) -> Callable:
        """``fn`` with every call recorded as a span called ``name``.

        ``describe(args, kwargs, result)`` may return attributes to attach.  A
        coroutine function stays one, and its span lasts until it returns.
        """
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                with self.span(name):
                    return await fn(*args, **kwargs)
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if describe is not None:
                    span.attrs.update(describe(args, kwargs, result))
                return result
        return traced

    def patch(self, owner: object, attr: str, name: str,
              describe: Callable[..., dict] | None = None) -> None:
        """Replace ``owner.attr`` with a traced version until :meth:`restore`."""
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(self.wrap(name, original.__func__, describe))
        else:
            replacement = self.wrap(name, original, describe)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- analysis
    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                kids.setdefault(span.parent, []).append(span)
        return kids

    def self_time(self, span: Span, kids: dict[int, list[Span]] | None = None) -> float:
        """The span's duration minus the part its child spans cover."""
        kids = self.children() if kids is None else kids
        intervals = [(c.start, c.end) for c in kids.get(span.id, ())]
        return span.duration - covered((span.start, span.end), intervals)

    def ancestors(self, span: Span):
        parent = span.parent
        while parent is not None:
            ancestor = self.spans[parent]
            yield ancestor
            parent = ancestor.parent

    def outermost(self, name: str) -> list[Span]:
        """Spans called ``name`` that are not nested inside another such span."""
        return [span for span in self.spans if span.name == name
                and all(a.name != name for a in self.ancestors(span))]

    def busy(self, name: str) -> float:
        """Seconds spent inside ``name``, nested re-entries counted once."""
        return sum(span.duration for span in self.outermost(name))

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")
