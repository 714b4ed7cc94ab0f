"""Unit + property tests for the partition-local join kernels."""

from types import SimpleNamespace

from hypothesis import given
from hypothesis import strategies as st

from repro.core.physical import NestedLoopStep
from repro.engine.joins import (
    build_hash_table,
    hash_join_probe,
    sort_merge_join,
    sort_rows,
)


def combine_concat(a, b):
    return a + b


def nested_loop_join(left, right, predicate):
    """``NestedLoopStep.apply``: each left row, its right slots still
    unbound, against every row of ``right`` as the broadcast input."""
    left_width, right_width = len(left[0]), len(right[0])
    step = NestedLoopStep(0, predicate, (left_width, right_width))
    runtime = SimpleNamespace(broadcast_tables={0: right})
    return step.apply([row + (None,) * right_width for row in left], 0,
                      runtime)


class TestHashJoin:
    def test_basic_match(self):
        table = build_hash_table([(1, "a"), (2, "b")], lambda r: r[0])
        out = hash_join_probe([(1, "x"), (3, "y")], lambda r: r[0],
                              table, combine_concat)
        assert out == [(1, "x", 1, "a")]

    def test_duplicate_build_keys(self):
        table = build_hash_table([(1, "a"), (1, "b")], lambda r: r[0])
        out = hash_join_probe([(1, "x")], lambda r: r[0], table, combine_concat)
        assert len(out) == 2

    def test_combine_none_filters(self):
        table = build_hash_table([(1, 10), (1, 20)], lambda r: r[0])
        out = hash_join_probe(
            [(1, 0)], lambda r: r[0], table,
            lambda p, b: (p + b) if b[1] > 15 else None)
        assert out == [(1, 0, 1, 20)]


class TestSortMergeJoin:
    def test_matches_hash_join(self):
        left = [(2, "l2"), (1, "l1"), (2, "l2b")]
        right = [(2, "r2"), (3, "r3"), (2, "r2b"), (1, "r1")]
        table = build_hash_table(right, lambda r: r[0])
        expected = sorted(hash_join_probe(left, lambda r: r[0], table,
                                          combine_concat))
        got = sorted(sort_merge_join(
            sort_rows(left, lambda r: r[0]), sort_rows(right, lambda r: r[0]),
            lambda r: r[0], lambda r: r[0], combine_concat))
        assert got == expected

    def test_empty_sides(self):
        assert sort_merge_join([], [(1, "a")], lambda r: r[0],
                               lambda r: r[0], combine_concat) == []
        assert sort_merge_join([(1, "a")], [], lambda r: r[0],
                               lambda r: r[0], combine_concat) == []

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 3)), max_size=40),
           st.lists(st.tuples(st.integers(0, 8), st.integers(0, 3)), max_size=40))
    def test_equivalence_property(self, left, right):
        """sort-merge and hash join must produce identical multisets."""
        table = build_hash_table(right, lambda r: r[0])
        via_hash = sorted(hash_join_probe(left, lambda r: r[0], table,
                                          combine_concat))
        via_merge = sorted(sort_merge_join(
            sort_rows(left, lambda r: r[0]), sort_rows(right, lambda r: r[0]),
            lambda r: r[0], lambda r: r[0], combine_concat))
        assert via_hash == via_merge


class TestNestedLoopJoin:
    def test_theta_predicate(self):
        # The Interval-Coalesce style containment predicate.
        left = [(1, 5)]
        right = [(2, 9), (6, 7), (0, 0)]
        out = nested_loop_join(left, right, lambda m: m[0] <= m[2] <= m[1])
        assert sorted(out) == [(1, 5, 2, 9)]

    def test_subsumes_equi_join(self):
        left = [(1, "x"), (2, "y")]
        right = [(1, "a"), (3, "b")]
        table = build_hash_table(right, lambda r: r[0])
        expected = sorted(hash_join_probe(left, lambda r: r[0], table,
                                          combine_concat))
        got = sorted(nested_loop_join(left, right, lambda m: m[0] == m[2]))
        assert got == expected
