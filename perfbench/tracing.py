"""A wrap-and-restore tracer for the program's layer boundaries.

The benchmark installs wrappers around public functions of the program
for a traced run and removes them afterwards, so an untraced run executes
the program's own code objects. Four kinds of wrapper exist, chosen by
how often the wrapped function runs:

* ``span``    — records ``(id, name, parent, start, end, rss_mb,
  thread)`` for each call, in memory; self time is computed from these
  afterwards;
* ``timed``   — accumulates calls and seconds only, for functions called
  thousands of times, where a span per call would cost too much;
* ``count``   — counts calls only, for functions called >100k times;
* ``sampled`` — counts every call and times one in ``every``, for
  functions called >100k times whose time is still wanted: the estimate
  is the sampled seconds scaled by calls ÷ sampled calls.

A wrapper given a ``layer`` is exclusive within it: a call made while
another call of the same layer is running on the thread is passed through
untimed, so nested calls (``write_atomic`` → ``create``) are not counted
twice. ``after`` hooks see each call's result and feed counters.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import time
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

SPAN = "span"
TIMED = "timed"
COUNT = "count"
SAMPLED = "sampled"

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0) \
    if hasattr(os, "sysconf") else 0.0


def current_rss_mb() -> float:
    """Resident set size of this process right now, in MiB."""
    try:
        with open("/proc/self/statm", "rb") as handle:
            return int(handle.read().split()[1]) * _PAGE_MB
    except OSError:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans, timed totals and counters of one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 rss: Callable[[], float] = current_rss_mb):
        self.clock = clock
        self.rss = rss
        #: [id, name, parent id (-1 = root), start, end, rss_mb, thread]
        self.spans: List[list] = []
        #: timed wrapper name -> [calls, seconds]
        self.totals: Dict[str, List[float]] = {}
        #: sampled wrapper name -> [sampled calls, sampled seconds]
        self.samples: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        #: count and sampled wrapper name -> [calls]
        self._calls: Dict[str, List[int]] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        #: (namespace, attribute, original object) per installed wrapper
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording
    def add(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def set(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = value

    def calls(self, name: str) -> int:
        """Calls seen by the count or sampled wrapper ``name``."""
        return self._calls.get(name, [0])[0]

    def estimated_s(self, name: str) -> float:
        """Seconds spent in sampled wrapper ``name``, extrapolated."""
        sampled, seconds = self.samples.get(name, (0, 0.0))
        return seconds * self.calls(name) / sampled if sampled else 0.0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _depths(self) -> Dict[str, int]:
        depths = getattr(self._local, "depths", None)
        if depths is None:
            depths = self._local.depths = {}
        return depths

    def begin(self, name: str) -> list:
        stack = self._stack()
        record = [next(self._ids), name, stack[-1] if stack else -1,
                  self.clock(), 0.0, 0.0, threading.get_ident()]
        self.spans.append(record)
        stack.append(record[0])
        return record

    def end(self, record: list) -> None:
        record[4] = self.clock()
        record[5] = self.rss()
        self._stack().pop()

    # ------------------------------------------------------------- wrapping
    def _wrapper(self, fn: Callable, name: str, kind: str,
                 namer: Optional[Callable], after: Optional[Callable],
                 layer: Optional[str], every: int,
                 exclude: Optional[str]) -> Callable:
        tracer = self

        def call(args, kwargs):
            result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, result, args, kwargs)
            return result

        if kind in (COUNT, SAMPLED):
            # unlocked, to stay cheap: count and sampled wrappers go on
            # functions only the main thread calls (crawl, landing)
            counter = self._calls.setdefault(name, [0])
        if kind == COUNT and after is None:
            def wrapper(*args, **kwargs):
                counter[0] += 1
                return fn(*args, **kwargs)
        elif kind == COUNT:
            def wrapper(*args, **kwargs):
                counter[0] += 1
                return call(args, kwargs)
        elif kind == SAMPLED:
            clock = tracer.clock

            def wrapper(*args, **kwargs):
                counter[0] += 1
                if counter[0] % every:
                    return fn(*args, **kwargs)
                # time this call, less what nested calls of ``exclude``
                # recorded themselves (those are measured in full)
                nested = tracer.totals.get(exclude, (0, 0.0))[1]
                start = clock()
                try:
                    return call(args, kwargs)
                finally:
                    elapsed = clock() - start - (
                        tracer.totals.get(exclude, (0, 0.0))[1] - nested)
                    with tracer._lock:
                        sample = tracer.samples.setdefault(name, [0, 0.0])
                        sample[0] += 1
                        sample[1] += elapsed
        elif kind == TIMED:
            def wrapper(*args, **kwargs):
                depths = tracer._depths()
                if layer is not None and depths.get(layer):
                    return call(args, kwargs)
                if layer is not None:
                    depths[layer] = 1
                start = tracer.clock()
                try:
                    return call(args, kwargs)
                finally:
                    elapsed = tracer.clock() - start
                    if layer is not None:
                        depths[layer] = 0
                    with tracer._lock:
                        total = tracer.totals.setdefault(name, [0, 0.0])
                        total[0] += 1
                        total[1] += elapsed
        elif kind == SPAN:
            def wrapper(*args, **kwargs):
                depths = tracer._depths()
                if layer is not None and depths.get(layer):
                    return call(args, kwargs)
                if layer is not None:
                    depths[layer] = 1
                record = tracer.begin(namer(args, kwargs) if namer
                                      else name)
                try:
                    return call(args, kwargs)
                finally:
                    tracer.end(record)
                    if layer is not None:
                        depths[layer] = 0
        else:
            raise ValueError(f"unknown wrapper kind {kind!r}")
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def wrap(self, owner: Any, attr: str, name: str, kind: str = SPAN,
             namer: Optional[Callable] = None,
             after: Optional[Callable] = None,
             layer: Optional[str] = None, every: int = 64,
             exclude: Optional[str] = None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``owner`` is a class (the attribute is patched on the class, and
        class- and static methods keep their binding) or a module (the
        function is patched in every loaded module that imported it by
        name, so ``from x import f`` callers see the wrapper too).
        """
        if isinstance(owner, types.ModuleType):
            original = getattr(owner, attr)
            wrapper = self._wrapper(original, name, kind, namer, after,
                                    layer, every, exclude)
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if namespace is not None and \
                        namespace.get(attr) is original:
                    self._patch(module, attr, original, wrapper)
            return
        original = owner.__dict__[attr]
        if isinstance(original, (classmethod, staticmethod)):
            inner = self._wrapper(original.__func__, name, kind, namer,
                                  after, layer, every, exclude)
            self._patch(owner, attr, original, type(original)(inner))
        else:
            self._patch(owner, attr, original,
                        self._wrapper(original, name, kind, namer, after,
                                      layer, every, exclude))

    def _patch(self, namespace: Any, attr: str, original: Any,
               replacement: Any) -> None:
        setattr(namespace, attr, replacement)
        self._patches.append((namespace, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    @property
    def installed(self) -> int:
        return len(self._patches)

    # ------------------------------------------------------------- analysis
    def durations(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total (inclusive) and self seconds."""
        return span_durations(self.spans)


def self_times(spans: List[list]) -> Dict[int, float]:
    """Span id -> its duration minus the time its children cover.

    Children of one span run on its thread, one after another, but the
    union of their intervals is taken anyway, so overlapping children
    (a clock that jumps, a child left open) never count twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[2] >= 0:
            children.setdefault(span[2], []).append((span[3], span[4]))
    result: Dict[int, float] = {}
    for span in spans:
        start, end = span[3], span[4]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span[0], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[span[0]] = max(0.0, (end - start) - covered)
    return result


def span_durations(spans: List[list]) -> Dict[str, Dict[str, float]]:
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = out.setdefault(span[1], {"calls": 0, "total_s": 0.0,
                                       "self_s": 0.0, "rss_mb": 0.0})
        row["calls"] += 1
        row["total_s"] += span[4] - span[3]
        row["self_s"] += own[span[0]]
        row["rss_mb"] = max(row["rss_mb"], span[5])
    return out
