"""Unit + property tests for the monotonic aggregates of Section 6.2."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.aggregates import (
    BY_NAME,
    COUNT,
    MAX,
    MIN,
    SUM,
    get_aggregate,
    partial_aggregate,
)
from repro.engine.kernels import make_extractor


class TestMinMax:
    def test_min_improves(self):
        state, changed, delta = MIN.merge(10, 5)
        assert (state, changed, delta) == (5, True, 5)

    def test_min_ignores_worse(self):
        state, changed, delta = MIN.merge(5, 10)
        assert (state, changed) == (5, False)

    def test_min_ignores_equal(self):
        # Algorithm 5 uses a strict comparison: equal values are discarded,
        # which is what guarantees termination.
        state, changed, _ = MIN.merge(5, 5)
        assert (state, changed) == (5, False)

    def test_max_improves(self):
        state, changed, delta = MAX.merge(5, 10)
        assert (state, changed, delta) == (10, True, 10)

    def test_max_ignores_worse(self):
        _, changed, _ = MAX.merge(10, 5)
        assert not changed


class TestSumCount:
    def test_sum_delta_is_increment(self):
        state, changed, delta = SUM.merge(10, 4)
        assert (state, changed, delta) == (14, True, 4)

    def test_sum_zero_contribution_is_noop(self):
        state, changed, _ = SUM.merge(10, 0)
        assert (state, changed) == (10, False)

    def test_count_normalizes_non_numeric_to_one(self):
        assert COUNT.normalize("alice") == 1
        assert COUNT.normalize(("a", "b")) == 1

    def test_count_keeps_numeric_contributions(self):
        # The Management query feeds literal 1s and accumulated counts.
        assert COUNT.normalize(1) == 1
        assert COUNT.normalize(7) == 7

    def test_count_treats_bool_as_fact(self):
        assert COUNT.normalize(True) == 1


class TestRegistry:
    def test_all_four_aggregates_present(self):
        assert set(BY_NAME) == {"min", "max", "sum", "count"}

    def test_lookup_case_insensitive(self):
        assert get_aggregate("MAX") is MAX

    def test_avg_rejected(self):
        with pytest.raises(KeyError, match="avg"):
            get_aggregate("avg")


KEY0 = make_extractor((0,))


def fold(rows, aggregates):
    """``partial_aggregate`` over ``key + aggregate columns`` head rows."""
    positions = tuple(range(1, 1 + len(aggregates)))
    return partial_aggregate(rows, KEY0, positions, aggregates)


class TestPartialAggregate:
    def test_collapses_same_keys(self):
        rows = [("a", 3), ("a", 1), ("b", 2)]
        assert fold(rows, (MIN,)) == [("a", 1), ("b", 2)]

    def test_multiple_aggregate_columns(self):
        rows = [("k", 3, 10), ("k", 1, 5)]
        assert fold(rows, (MIN, SUM)) == [("k", 1, 15)]

    def test_empty_input(self):
        assert fold([], (MAX,)) == []

    def test_normalizes_contributions(self):
        """The stratified final stratum relies on it: ``count`` over
        non-numeric contributions counts them, single-row groups too."""
        rows = [("x", "b"), ("x", "a"), ("z", "c")]
        assert fold(rows, (COUNT,)) == [("x", 2), ("z", 1)]

    def test_any_layout(self):
        rows = [(5, "g", "h"), (2, "g", "h"), (1, "g", "i")]
        assert partial_aggregate(rows, make_extractor((1, 2)), (0,),
                                 (SUM,)) == [(7, "g", "h"), (1, "g", "i")]


@st.composite
def contributions(draw):
    keys = st.integers(min_value=0, max_value=5)
    values = st.integers(min_value=-100, max_value=100)
    return draw(st.lists(st.tuples(keys, values), min_size=1, max_size=60))


class TestAlgebraicLaws:
    """Partial aggregation must commute with any split of the input —
    the PreM-for-union property that makes map-side combining sound."""

    @pytest.mark.parametrize("agg_name", ["min", "max", "sum"])
    @given(contributions(), st.integers(min_value=0, max_value=50))
    def test_split_invariance(self, agg_name, rows, cut):
        agg = get_aggregate(agg_name)
        cut = min(cut, len(rows))
        whole = fold(rows, (agg,))
        left = fold(rows[:cut], (agg,))
        right = fold(rows[cut:], (agg,))
        assert sorted(whole) == sorted(fold(left + right, (agg,)))

    @given(contributions())
    def test_merge_stream_equals_partial_aggregate(self, rows):
        """Folding one-by-one through merge == bulk partial aggregation."""
        agg = get_aggregate("max")
        state = {}
        for key, value in rows:
            if key not in state:
                state[key] = value
            else:
                state[key], _, _ = agg.merge(state[key], value)
        assert state == dict(fold(rows, (agg,)))
