"""Unit + property tests for SetRDD / KeyedStateRDD (Section 6.1)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.aggregates import MIN, SUM
from repro.engine.setrdd import KeyedStateRDD, SetRDD


class TestSetRDD:
    def test_union_returns_only_new_rows(self):
        s = SetRDD(2)
        fresh = s.union_in_place(0, [(1,), (2,)])
        assert sorted(fresh) == [(1,), (2,)]
        fresh = s.union_in_place(0, [(2,), (3,)])
        assert fresh == [(3,)]

    def test_partitions_are_independent(self):
        s = SetRDD(2)
        s.union_in_place(0, [(1,)])
        fresh = s.union_in_place(1, [(1,)])
        assert fresh == [(1,)]  # same row, different partition: still new

    def test_num_rows_and_collect(self):
        s = SetRDD(3)
        s.union_in_place(0, [(1,), (2,)])
        s.union_in_place(2, [(3,)])
        assert s.num_rows() == 3
        assert sorted(s.collect()) == [(1,), (2,), (3,)]

    @given(st.lists(st.tuples(st.integers(0, 20)), max_size=100))
    def test_idempotent_union(self, rows):
        """Re-inserting the full contents yields an empty delta."""
        s = SetRDD(1)
        s.union_in_place(0, rows)
        assert s.union_in_place(0, rows) == []

    @given(st.lists(st.tuples(st.integers(0, 50)), max_size=100),
           st.lists(st.tuples(st.integers(0, 50)), max_size=100))
    def test_union_models_set_union(self, a, b):
        s = SetRDD(1)
        s.union_in_place(0, a)
        s.union_in_place(0, b)
        assert set(s.collect()) == set(a) | set(b)


class TestSetRDDOrder:
    """A partition is an insertion-ordered set: every reader walks the
    rows in the order they were added."""

    ROWS = [(5, 1), (0, 9), (3, 3), (1, 2)]

    def test_rows_come_back_in_insertion_order(self):
        s = SetRDD(2)
        s.union_in_place(0, self.ROWS[:2])
        s.union_in_place(1, [(7, 7)])
        s.union_in_place(0, self.ROWS[1:])  # (0, 9) again: kept in place
        assert s.partition_rows(0) == self.ROWS
        assert s.collect() == self.ROWS + [(7, 7)]

    def test_snapshot_restore_and_dump_load_keep_rows_and_order(self):
        s = SetRDD(2)
        s.union_in_place(0, self.ROWS)
        s.union_in_place(1, [(7, 7), (6, 6)])
        saved = s.snapshot_partition(0)
        s.union_in_place(0, [(8, 8)])
        s.restore_partition(0, saved)
        assert s.partition_rows(0) == self.ROWS
        s.union_in_place(0, [(8, 8)])  # the snapshot is a copy
        assert list(saved) == self.ROWS

        dumped = s.dump_state()
        assert dumped == {"kind": "set", "partitions": [
            self.ROWS + [(8, 8)], [(7, 7), (6, 6)]]}
        restored = SetRDD(2)
        restored.load_state(dumped)
        assert [restored.partition_rows(i) for i in range(2)] == \
            [s.partition_rows(i) for i in range(2)]
        assert restored.versions == [1, 1]  # kernel caches invalidate

    def test_replace_partition_bumps_the_version(self):
        s = SetRDD(1)
        s.union_in_place(0, [(1,)])
        version = s.versions[0]
        s.union_in_place(0, [(2,)])
        assert s.versions[0] == version  # an append is not a version
        s.replace_partition(0, dict.fromkeys([(3,), (1,)]))
        assert s.versions[0] == version + 1
        assert s.partition_rows(0) == [(3,), (1,)]
        assert s.union_in_place(0, [(1,), (4,)]) == [(4,)]

    @given(st.lists(st.tuples(st.integers(0, 20)), max_size=100),
           st.lists(st.tuples(st.integers(0, 20)), max_size=100))
    def test_a_duplicate_is_never_fresh(self, a, b):
        s = SetRDD(1)
        first = s.union_in_place(0, a)
        second = s.union_in_place(0, b)
        assert first == list(dict.fromkeys(a))
        assert second == [row for row in dict.fromkeys(b) if row not in set(a)]
        assert s.partition_rows(0) == first + second


class TestKeyedStateRDD:
    """Rows in, rows out: a partition is ``{group key: head row}``."""

    def test_insert_then_improve_min(self):
        state = KeyedStateRDD(1, (MIN,))
        delta = state.merge_rows(0, [("a", 10)])
        assert delta == [("a", 10)]
        improved = ("a", 5)
        delta = state.merge_rows(0, [improved])
        assert delta == [("a", 5)]
        assert state.partitions[0]["a"] == ("a", 5)
        # The min delta row *is* the stored row.
        assert delta[0] is improved and state.partitions[0]["a"] is improved

    def test_worse_min_produces_no_delta(self):
        state = KeyedStateRDD(1, (MIN,))
        state.merge_rows(0, [("a", 5)])
        assert state.merge_rows(0, [("a", 9)]) == []

    def test_sum_delta_carries_increment(self):
        state = KeyedStateRDD(1, (SUM,))
        state.merge_rows(0, [("a", 10)])
        delta = state.merge_rows(0, [("a", 4)])
        assert delta == [("a", 4)]
        assert state.partitions[0]["a"] == ("a", 14)

    def test_mixed_aggregate_columns(self):
        state = KeyedStateRDD(1, (MIN, SUM), aggregate_positions=(1, 2))
        state.merge_rows(0, [("a", 10, 1)])
        delta = state.merge_rows(0, [("a", 12, 2)])
        # min not improved (delta keeps state value), sum incremented.
        assert delta == [("a", 10, 2)]
        assert state.partitions[0]["a"] == ("a", 10, 3)

    def test_collect_rows_scalar_key(self):
        state = KeyedStateRDD(1, (MIN,))
        stored = [("a", 1), ("b", 2)]
        state.merge_rows(0, stored)
        assert sorted(state.collect()) == stored
        # ... and they are the stored objects, not re-assembled copies.
        assert all(a is b for a, b in zip(sorted(state.collect()), stored))
        assert state.partition_rows(0) == stored

    def test_collect_rows_tuple_key(self):
        state = KeyedStateRDD(1, (MIN,), group_positions=(0, 1),
                              aggregate_positions=(2,))
        state.merge_rows(0, [("x", "y", 1)])
        assert state.partitions[0] == {("x", "y"): ("x", "y", 1)}
        assert state.collect() == [("x", "y", 1)]

    def test_aggregate_before_group_column(self):
        """The layout is the view's, not ``key + values``."""
        state = KeyedStateRDD(1, (SUM,), group_positions=(1,),
                              aggregate_positions=(0,))
        state.merge_rows(0, [(3, "k"), (4, "k")])
        assert state.partitions[0] == {"k": (7, "k")}
        assert state.collect() == [(7, "k")]

    def test_global_aggregate_has_the_empty_key(self):
        state = KeyedStateRDD(1, (MIN,), group_positions=(),
                              aggregate_positions=(0,))
        assert state.merge_rows(0, [(5,), (3,), (4,)]) == [(5,), (3,)]
        assert state.partitions[0] == {(): (3,)}

    def test_clear_partition(self):
        for state in (KeyedStateRDD(2, (MIN,)), SetRDD(2)):
            state.merge_rows(0, [("a", 1)])
            state.merge_rows(1, [("b", 2)])
            version = state.versions[0]
            state.clear_partition(0)
            assert state.partition_rows(0) == []
            assert state.versions[0] > version
            assert state.collect() == [("b", 2)]

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(-50, 50)),
                    min_size=1, max_size=80))
    def test_min_state_matches_builtin_min(self, pairs):
        state = KeyedStateRDD(1, (MIN,))
        state.merge_rows(0, pairs)
        expected = {}
        for k, v in pairs:
            expected[k] = min(expected.get(k, v), v)
        assert state.partitions[0] == {k: (k, v) for k, v in expected.items()}

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(1, 50)),
                    min_size=1, max_size=80))
    def test_sum_state_matches_builtin_sum(self, pairs):
        state = KeyedStateRDD(1, (SUM,))
        for pair in pairs:
            state.merge_rows(0, [pair])
        expected: dict = {}
        for k, v in pairs:
            expected[k] = expected.get(k, 0) + v
        assert state.partitions[0] == {k: (k, v) for k, v in expected.items()}


class TestInsertDeltaConsistency:
    """Regression: the single-aggregate hot path must emit the same
    insert delta as the generic multi-aggregate path (both via
    ``delta_for_insert``), not the raw incoming values."""

    def _tagging(self, base):
        """A clone of *base* whose delta_for_insert is observable."""
        from repro.engine.aggregates import AggregateFunction

        return AggregateFunction(
            name=base.name,
            merge=base.merge,
            delta_for_insert=lambda v: ("ins", v),
            combine=base.combine,
            normalize=base.normalize,
        )

    def test_single_aggregate_path_applies_delta_for_insert(self):
        tagged = self._tagging(MIN)
        state = KeyedStateRDD(1, (tagged,))
        delta = state.merge_rows(0, [("a", 7)])
        # Pre-fix, the hot path emitted the raw row ("a", 7).
        assert delta == [("a", ("ins", 7))]
        # The stored state is the raw row, as in the multi path.
        assert state.partitions[0]["a"] == ("a", 7)

    @pytest.mark.parametrize("name", ["sum", "count", "min", "max"])
    def test_single_and_multi_paths_agree(self, name):
        from repro.engine.aggregates import get_aggregate

        agg = get_aggregate(name)
        contributions = [("a", 10), ("a", 4), ("b", 3), ("b", 3), ("c", 1)]

        single = KeyedStateRDD(1, (agg,))
        multi = KeyedStateRDD(1, (agg, agg), aggregate_positions=(1, 2))
        single_deltas = []
        multi_deltas = []
        for key, value in contributions:
            single_deltas.extend(single.merge_rows(0, [(key, value)]))
            multi_deltas.extend(multi.merge_rows(0, [(key, value, value)]))

        # Same keys enter the delta in the same order, and the first
        # (only) aggregate column of every delta row matches
        # column-for-column.
        assert single_deltas == [row[:2] for row in multi_deltas]
        assert all(row[1] == row[2] for row in multi_deltas)
        # Final states agree too.
        assert single.partitions[0] == \
            {k: row[:2] for k, row in multi.partitions[0].items()}


class TestMultiAggregateMergeDeltas:
    """Coverage for multi-aggregate-column merge deltas."""

    def test_insert_delta_has_one_value_per_column(self):
        state = KeyedStateRDD(1, (MIN, SUM), aggregate_positions=(1, 2))
        delta = state.merge_rows(0, [("a", 9, 2)])
        assert delta == [("a", 9, 2)]

    def test_partial_change_emits_state_for_unchanged_column(self):
        from repro.engine.aggregates import MAX

        state = KeyedStateRDD(1, (MIN, MAX), aggregate_positions=(1, 2))
        state.merge_rows(0, [("a", 5, 5)])
        delta = state.merge_rows(0, [("a", 7, 9)])
        # min unchanged (keeps state value 5), max improved to 9.
        assert delta == [("a", 5, 9)]
        assert state.partitions[0]["a"] == ("a", 5, 9)

    def test_no_change_emits_no_delta(self):
        state = KeyedStateRDD(1, (MIN, SUM), aggregate_positions=(1, 2))
        state.merge_rows(0, [("a", 5, 1)])
        assert state.merge_rows(0, [("a", 9, 0)]) == []

    def test_three_column_mixed_delta(self):
        from repro.engine.aggregates import COUNT, MAX

        state = KeyedStateRDD(1, (MIN, MAX, COUNT),
                              aggregate_positions=(1, 2, 3))
        state.merge_rows(0, [("k", 4, 4, 1)])
        delta = state.merge_rows(0, [("k", 3, 9, 2)])
        assert delta == [("k", 3, 9, 2)]
        assert state.partitions[0]["k"] == ("k", 3, 9, 3)


class TestCheckpointLayout:
    """``dump_state`` / ``load_state`` carry rows, tagged as such."""

    def test_round_trip_keeps_rows_and_dict_order(self):
        state = KeyedStateRDD(2, (SUM,))
        state.merge_rows(0, [("b", 1), ("a", 2), ("b", 3)])
        state.merge_rows(1, [("z", 9)])
        dumped = state.dump_state()
        assert dumped == {"kind": "keyed-rows",
                          "partitions": [[("b", 4), ("a", 2)], [("z", 9)]]}
        restored = KeyedStateRDD(2, (SUM,))
        restored.load_state(dumped)
        assert restored.partitions == state.partitions
        assert [list(p) for p in restored.partitions] == \
            [list(p) for p in state.partitions]  # insertion order too
        assert restored.versions == [1, 1]  # kernel caches invalidate

    def test_old_fragment_layout_is_refused(self):
        from repro.errors import CheckpointError

        old = {"kind": "keyed", "partitions": [{"a": (5,)}, {}]}
        state = KeyedStateRDD(2, (MIN,))
        with pytest.raises(CheckpointError, match="retired"):
            state.load_state(old)
        assert state.partitions == [{}, {}]  # nothing half-installed

    def test_foreign_payloads_still_mismatch(self):
        state = KeyedStateRDD(2, (MIN,))
        with pytest.raises(ValueError):
            state.load_state({"kind": "set", "partitions": [[], []]})
        with pytest.raises(ValueError):
            state.load_state({"kind": "keyed-rows", "partitions": [[]]})
