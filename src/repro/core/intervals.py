"""Disjoint half-open integer interval set.

Used for connection-level (data-sequence) reassembly, where duplicate
and overlapping ranges arrive whenever MPTCP reinjects data onto a
second subflow after a failover.
"""

import bisect
from typing import Iterator, List, Tuple

__all__ = ["IntervalSet"]


class IntervalSet:
    """A set of non-overlapping, sorted ``[start, end)`` intervals."""

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._total = 0

    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(zip(self._starts, self._ends))

    @property
    def total_bytes(self) -> int:
        """Sum of interval lengths (kept incrementally)."""
        return self._total

    def add(self, start: int, end: int) -> int:
        """Insert ``[start, end)``, merging overlaps.

        Returns the number of *new* units added (0 if the range was
        entirely duplicate).
        """
        if end <= start:
            return 0
        starts, ends = self._starts, self._ends
        # Find all intervals overlapping or adjacent to [start, end).
        lo = bisect.bisect_left(ends, start)
        hi = bisect.bisect_right(starts, end)
        merged = 0
        if lo < hi:
            merged = sum(ends[lo:hi]) - sum(starts[lo:hi])
            start = min(start, starts[lo])
            end = max(end, ends[hi - 1])
        starts[lo:hi] = [start]
        ends[lo:hi] = [end]
        added = end - start - merged
        self._total += added
        return added

    def contains_range(self, start: int, end: int) -> bool:
        """True if every unit of ``[start, end)`` is present."""
        if end <= start:
            return True
        index = bisect.bisect_right(self._starts, start) - 1
        if index < 0:
            return False
        return self._ends[index] >= end

    def missing_within(self, start: int, end: int) -> List[Tuple[int, int]]:
        """Sub-ranges of ``[start, end)`` not present in the set."""
        gaps: List[Tuple[int, int]] = []
        cursor = start
        starts, ends = self._starts, self._ends
        # From the first interval ending after ``start``.
        for index in range(bisect.bisect_right(ends, start), len(starts)):
            istart = starts[index]
            if istart >= end:
                break
            if istart > cursor:
                gaps.append((cursor, min(istart, end)))
            cursor = ends[index]
            if cursor >= end:
                break
        if cursor < end:
            gaps.append((cursor, end))
        return gaps

    def last_above(self, origin: int, count: int) -> Tuple[Tuple[int, int], ...]:
        """The last ``count`` intervals that end after ``origin``."""
        first = max(bisect.bisect_right(self._ends, origin), len(self._ends) - count)
        return tuple(zip(self._starts[first:], self._ends[first:]))

    def contiguous_from(self, origin: int) -> int:
        """End of the contiguous run starting at ``origin`` (or ``origin``)."""
        index = bisect.bisect_right(self._starts, origin) - 1
        if index < 0:
            return origin
        if self._ends[index] < origin:
            return origin
        return self._ends[index]

    def __repr__(self) -> str:
        spans = ", ".join(f"[{s},{e})" for s, e in self)
        return f"IntervalSet({spans})"
