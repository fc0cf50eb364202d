"""Outside-in tracer for the benchmark.

Wraps library functions from outside the library: every module attribute
bound to a target function object is replaced by a wrapper, so calls through
``from .metrics import legitimate_rates`` copies are seen as well as calls
through the defining module.  Each call becomes a span with its start, end,
parent span and the time its child spans covered; a span's self time is its
duration minus that child time.  Spans stay in memory until written out.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    parent: int                  # index into Tracer.spans, -1 for a root
    end: float = 0.0
    child_s: float = 0.0
    error: Optional[str] = None  # exception class name when the call raised

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@contextmanager
def patch(targets, modules, wrap):
    """Replace each target by ``wrap(target, function)`` at every binding
    site in ``modules`` and in its own module for the duration of the block.
    Patches nest: an outer patch wraps the inner one's wrapper."""
    patches = []
    try:
        for t in targets:
            original = getattr(t.module, t.attr)
            wrapper = wrap(t, original)
            for mod in [t.module, *modules]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        patches.append((mod, key, original))
        yield
    finally:
        while patches:
            mod, key, original = patches.pop()
            setattr(mod, key, original)


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module.attr``, reported under ``name``.

    ``hook(counters, args, kwargs, result, exc)`` runs after every call and
    may add layer counters (``exc`` is the exception raised, else None).
    """

    name: str
    module: object
    attr: str
    hook: Optional[Callable] = None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._open: list[int] = []

    def call(self, name, fn, args, kwargs, hook=None):
        parent = self._open[-1] if self._open else -1
        span = Span(name, self.clock(), parent)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        result = exc = None
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as err:
            exc = err
            span.error = type(err).__name__
            raise
        finally:
            span.end = self.clock()
            self._open.pop()
            if parent >= 0:
                self.spans[parent].child_s += span.duration
            if hook is not None:
                hook(self.counters, args, kwargs, result, exc)

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)
        return traced

    def patched(self, targets, modules):
        """Trace every target at each of its binding sites in ``modules``
        (and its own module) for the duration of the block."""
        return patch(targets, modules, lambda t, fn: self.wrap(t.name, fn, t.hook))

    def errors(self, name) -> list:
        return [s.error for s in self.spans if s.name == name and s.error]

    def summary(self, scale=None) -> dict:
        """``<name>.calls`` and ``<name>.self_s`` per traced function,
        ``<layer>.self_s`` per layer (the name up to its first dot), and the
        hook counters.  ``scale``, if given, holds a factor per span for its
        self time."""
        out = Counter()
        for s, factor in zip(self.spans, scale or [1.0] * len(self.spans)):
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.self_s"] += s.self_s * factor
            out[f"{s.name.split('.', 1)[0]}.self_s"] += s.self_s * factor
        out.update(self.counters)
        return dict(out)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({**asdict(s), "self_s": s.self_s}) + "\n")
