"""In-memory spans recorded by the benchmark around public calls.

A :class:`Tracer` keeps every span in a list (name, start, end, parent
span, run id) and writes them out once, when the benchmark ends.  The
program itself is never edited: :func:`patched` swaps a public
function or method for a timing wrapper for the duration of a traced
repetition and restores the original afterwards.

A span's self time is its duration minus the part of that interval
its child spans cover.
"""

import contextlib
import json
import statistics
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "run_id")

    def __init__(self, index: int, name: str, start: float,
                 parent: Optional[int], run_id: str) -> None:
        self.index = index
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run_id = run_id

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {"i": self.index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "run_id": self.run_id}


class Tracer:
    """Collects spans; one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.run_id = ""
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        with self._lock:
            record = Span(len(self.spans), name, time.perf_counter(),
                          stack[-1] if stack else None, self.run_id)
            self.spans.append(record)
        stack.append(record.index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span named ``name``."""
        def timed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return timed

    # -- reductions ----------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.named(name)]

    def self_times(self) -> Dict[int, float]:
        """Span index -> duration minus the union of its children."""
        children: Dict[int, List[Span]] = {}
        for record in self.spans:
            if record.parent is not None:
                children.setdefault(record.parent, []).append(record)
        out = {}
        for record in self.spans:
            covered = 0.0
            cursor = record.start
            for child in sorted(children.get(record.index, ()),
                                key=lambda s: s.start):
                lo = max(child.start, cursor)
                hi = min(child.end, record.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[record.index] = record.duration - covered
        return out

    def self_time_by_name(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for index, value in self.self_times().items():
            name = self.spans[index].name
            totals[name] = totals.get(name, 0.0) + value
        return totals

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record.to_dict(), sort_keys=True))
                handle.write("\n")


def maybe_span(tracer: Optional[Tracer], name: str):
    """``tracer.span(name)``, or a no-op block in an untraced run."""
    return tracer.span(name) if tracer is not None \
        else contextlib.nullcontext()


@contextlib.contextmanager
def patched(tracer: Tracer, targets: Sequence[tuple]) -> Iterator[None]:
    """Wrap ``(owner, attribute, span_name)`` targets for the block.

    Plain functions, methods, classmethods and module attributes are
    all handled: the raw class/module entry is saved and put back on
    exit, whatever happens inside the block.
    """
    saved = []
    try:
        for owner, attribute, name in targets:
            raw = vars(owner)[attribute]
            saved.append((owner, attribute, raw))
            if isinstance(raw, classmethod):
                bound = getattr(owner, attribute)
                setattr(owner, attribute,
                        staticmethod(tracer.wrap(name, bound)))
            else:
                setattr(owner, attribute, tracer.wrap(name, raw))
        yield
    finally:
        for owner, attribute, raw in reversed(saved):
            setattr(owner, attribute, raw)


# -- statistics ---------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> float:
    """Highest sample with at least ten samples above it.

    With fewer than eleven samples no such percentile exists; the
    maximum is reported instead.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]
