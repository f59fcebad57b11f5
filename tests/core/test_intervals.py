"""Unit and property tests for the interval set used in reassembly."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import IntervalSet


class TestIntervalSetBasics:
    def test_empty(self):
        intervals = IntervalSet()
        assert intervals.total_bytes == 0
        assert intervals.contiguous_from(0) == 0
        assert not intervals.contains_range(0, 1)

    def test_single_add(self):
        intervals = IntervalSet()
        assert intervals.add(10, 20) == 10
        assert intervals.total_bytes == 10
        assert intervals.contains_range(10, 20)
        assert intervals.contains_range(12, 15)
        assert not intervals.contains_range(5, 12)

    def test_duplicate_add_returns_zero(self):
        intervals = IntervalSet()
        intervals.add(0, 100)
        assert intervals.add(20, 50) == 0

    def test_overlap_merges(self):
        intervals = IntervalSet()
        intervals.add(0, 10)
        intervals.add(5, 15)
        assert list(intervals) == [(0, 15)]

    def test_adjacent_merges(self):
        intervals = IntervalSet()
        intervals.add(0, 10)
        intervals.add(10, 20)
        assert list(intervals) == [(0, 20)]

    def test_disjoint_stay_separate(self):
        intervals = IntervalSet()
        intervals.add(0, 10)
        intervals.add(20, 30)
        assert list(intervals) == [(0, 10), (20, 30)]

    def test_bridge_merges_three(self):
        intervals = IntervalSet()
        intervals.add(0, 10)
        intervals.add(20, 30)
        assert intervals.add(10, 20) == 10
        assert list(intervals) == [(0, 30)]

    def test_empty_range_is_noop(self):
        intervals = IntervalSet()
        assert intervals.add(5, 5) == 0
        assert intervals.total_bytes == 0

    def test_contiguous_from_origin(self):
        intervals = IntervalSet()
        intervals.add(0, 100)
        intervals.add(200, 300)
        assert intervals.contiguous_from(0) == 100
        assert intervals.contiguous_from(200) == 300
        assert intervals.contiguous_from(150) == 150

    def test_missing_within(self):
        intervals = IntervalSet()
        intervals.add(10, 20)
        intervals.add(30, 40)
        assert intervals.missing_within(0, 50) == [(0, 10), (20, 30), (40, 50)]
        assert intervals.missing_within(10, 20) == []
        assert intervals.missing_within(12, 18) == []
        assert intervals.missing_within(15, 35) == [(20, 30)]


@st.composite
def range_lists(draw):
    count = draw(st.integers(min_value=1, max_value=30))
    ranges = []
    for _ in range(count):
        start = draw(st.integers(min_value=0, max_value=500))
        length = draw(st.integers(min_value=1, max_value=60))
        ranges.append((start, start + length))
    return ranges


class TestIntervalSetProperties:
    @given(range_lists())
    @settings(max_examples=150)
    def test_matches_naive_set_model(self, ranges):
        intervals = IntervalSet()
        model = set()
        for start, end in ranges:
            added = intervals.add(start, end)
            new_units = set(range(start, end)) - model
            assert added == len(new_units)
            model |= set(range(start, end))
        assert intervals.total_bytes == len(model)

    @given(range_lists())
    @settings(max_examples=100)
    def test_intervals_sorted_and_disjoint(self, ranges):
        intervals = IntervalSet()
        for start, end in ranges:
            intervals.add(start, end)
        spans = list(intervals)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 < s2  # disjoint and non-adjacent after merging

    @given(range_lists(), st.integers(0, 600), st.integers(0, 600))
    @settings(max_examples=100)
    def test_contains_range_matches_model(self, ranges, a, b):
        lo, hi = min(a, b), max(a, b) + 1
        intervals = IntervalSet()
        model = set()
        for start, end in ranges:
            intervals.add(start, end)
            model |= set(range(start, end))
        assert intervals.contains_range(lo, hi) == set(range(lo, hi)).issubset(model)

    @given(range_lists())
    @settings(max_examples=100)
    def test_missing_within_complements_content(self, ranges):
        intervals = IntervalSet()
        model = set()
        for start, end in ranges:
            intervals.add(start, end)
            model |= set(range(start, end))
        gaps = intervals.missing_within(0, 600)
        gap_units = set()
        for start, end in gaps:
            gap_units |= set(range(start, end))
        assert gap_units == set(range(600)) - model

    @given(range_lists())
    @settings(max_examples=150)
    def test_total_bytes_tracks_every_add(self, ranges):
        intervals = IntervalSet()
        for start, end in ranges:
            before = intervals.total_bytes
            added = intervals.add(start, end)
            assert added == intervals.total_bytes - before
            assert intervals.total_bytes == sum(e - s for s, e in intervals)

    @given(range_lists(), st.integers(0, 600), st.integers(0, 4))
    @settings(max_examples=100)
    def test_last_above_is_the_tail_of_intervals_ending_after(self, ranges, origin,
                                                               count):
        intervals = IntervalSet()
        for start, end in ranges:
            intervals.add(start, end)
        above = [(s, e) for s, e in intervals if e > origin]
        assert list(intervals.last_above(origin, count)) == above[max(0, len(above) - count):]
