"""Span tracer for the benchmark's traced run.

The tracer replaces module-level functions of the ``multisiam`` package at
every name a caller imported them under (``train.render_view``,
``model.conv2d``, ...), times each call as a span and restores the originals
afterwards. A span's self time is its duration minus the time of the spans it
encloses, so the self times of all spans plus the time outside any span add up
to the wall time of the traced region.

Nothing in ``src/`` knows about the tracer: the timed runs execute the
program exactly as shipped, and ``assert_clean`` proves it before they start.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass

MARK = "__perfbench_span__"
HOOKS = "trace.hooks"  # time spent in the tracer's own result hooks


class TraceError(RuntimeError):
    """Raised when a wrapped name survives past the traced region."""


@dataclass
class SpanStats:
    self_s: float = 0.0
    incl_s: float = 0.0
    calls: int = 0


@dataclass(frozen=True)
class Target:
    """One function to wrap wherever it is imported.

    ``span`` names the span; ``by_module`` overrides it for the callers in
    the named modules; ``hook(tracer, args, kwargs, result)`` runs after
    each call, outside the span, to record counts.
    """

    fn: object
    span: str | None
    hook: object = None
    by_module: tuple = ()


def package_modules(package: str = "multisiam") -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def assert_clean(package: str = "multisiam") -> None:
    """Fail unless no module attribute of the package is a tracer wrapper."""
    for module in package_modules(package):
        for attr, value in vars(module).items():
            if getattr(value, MARK, False):
                raise TraceError(f"{module.__name__}.{attr} is still wrapped")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self.counts: dict[str, float] = {}
        self.stack: list[list] = []  # frames of [span name, seconds of enclosed spans]
        self._patched: list[tuple] = []

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def inside(self, *names: str) -> bool:
        return any(frame[0] in names for frame in self.stack)

    def _close(self, name: str, frame: list, elapsed: float) -> None:
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = SpanStats()
        entry.self_s += elapsed - frame[1]
        entry.incl_s += elapsed
        entry.calls += 1
        if self.stack:
            self.stack[-1][1] += elapsed

    def timed(self, name: str | None, fn, hook=None):
        """Return ``fn`` timed as span ``name`` (untimed when None), running
        ``hook`` after each successful call."""
        clock, stack = self.clock, self.stack

        def traced(*args, **kwargs):
            if name is not None:
                frame = [name, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    self._close(name, frame, elapsed)
            else:
                result = fn(*args, **kwargs)
            if hook is not None:
                frame = [HOOKS, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    hook(self, args, kwargs, result)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    self._close(HOOKS, frame, elapsed)
            return result

        return traced

    def wrap(self, name: str | None, fn, hook=None):
        """``timed`` for a module-level function, marked for ``assert_clean``."""
        traced = functools.wraps(fn)(self.timed(name, fn, hook))
        setattr(traced, MARK, True)
        return traced

    def install(self, targets, package: str = "multisiam") -> None:
        by_fn = {id(t.fn): t for t in targets}
        wrappers: dict[tuple, object] = {}
        for module in package_modules(package):
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, value in list(vars(module).items()):
                target = by_fn.get(id(value))
                if target is None:
                    continue
                span = dict(target.by_module).get(short, target.span)
                key = (id(value), span)
                if key not in wrappers:
                    wrappers[key] = self.wrap(span, value, target.hook)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[key])

    def restore(self, package: str = "multisiam") -> None:
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)
        assert_clean(package)

    @contextlib.contextmanager
    def installed(self, targets, package: str = "multisiam"):
        self.install(targets, package)
        try:
            yield self
        finally:
            self.restore(package)

    def self_seconds(self) -> float:
        return sum(s.self_s for s in self.stats.values())
