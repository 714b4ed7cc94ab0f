"""Unit tests for the specialized fixpoint kernels.

The kernels are the fixpoint's only hot path.  These tests pin each one
bit-exactly to its naive twin on adversarial inputs (negative ints,
floats, strings, tuples, None, bools): the merge and fold templates to
the generic ``AggregateFunction`` dispatch the product keeps for the
heads the templates do not cover (``aggregates.merge_rows`` /
``partial_aggregate``), the router to a per-row ``partition_of`` loop
kept under ``tests/`` (``tests.conftest.reference_router``).  They also
pin the fallback rules: custom aggregate clones and unsupported shapes
must return ``None`` so the generic dispatch keeps honouring their hooks.
"""

import dataclasses
import random

from hypothesis import example, given
from hypothesis import strategies as st

from repro.engine.aggregates import BY_NAME, partial_aggregate
from repro.engine.aggregates import merge_rows as generic_merge_rows
from repro.engine.kernels import (
    hash_probe_join,
    make_extractor,
    make_fold_kernel,
    make_merge_rows_kernel,
    make_router,
)
from repro.engine.partitioner import key_of
from repro.engine.setrdd import KeyedStateRDD
from tests.conftest import generic_state, reference_router
from tests.engine.test_partitioner import KEYS

MIXED_KEYS = [0, 1, -5, -(2**40), 2**63, "node-1", "", 3.5, -2.25, 10.0,
              None, True, False, ("a", 1), (None, -3)]


def mixed_rows():
    rng = random.Random(17)
    rows = []
    for key in MIXED_KEYS:
        for _ in range(3):
            rows.append((key, rng.randint(-50, 50), rng.choice(MIXED_KEYS)))
    rng.shuffle(rows)
    return rows


class TestExtractor:
    def test_matches_key_of(self):
        row = ("a", -7, 3.5, None)
        for positions in [(0,), (2,), (1, 3), (3, 0, 2)]:
            assert make_extractor(positions)(row) == key_of(row, positions)

    def test_empty_positions(self):
        assert make_extractor(())(("x", "y")) == ()


#: Rows over mixed int / float / str / ``None`` / tuple keys, ``-1`` next
#: to ``-1.0`` (the pair ``_stable_hash`` once split across partitions).
ROWS = st.lists(st.tuples(st.one_of(KEYS, st.text(max_size=4), st.none()),
                          st.integers(-50, 50),
                          st.one_of(KEYS, st.none())), max_size=60)
PARTITIONS = st.integers(min_value=1, max_value=9)


class TestRouter:
    @given(ROWS, PARTITIONS)
    @example(mixed_rows(), 7)
    @example([(-1, 0, None), (-1.0, 1, None), ((-1, "a"), 2, -1.0)], 5)
    def test_single_key_matches_partition_of(self, rows, n):
        assert make_router((0,), n)(rows) == reference_router((0,), n)(rows)

    @given(ROWS, PARTITIONS)
    @example(mixed_rows(), 5)
    @example([(-1, 0, -1.0), (-1.0, 1, -1), (None, 2, "x")], 3)
    def test_multi_key_matches_partition_of(self, rows, n):
        route = make_router((0, 2), n)
        assert route(rows) == reference_router((0, 2), n)(rows)

    def test_single_partition_collects_everything(self):
        rows = mixed_rows()
        assert make_router((0,), 1)(rows) == [rows]

    def test_preserves_order_within_buckets(self):
        rows = [(k, i) for i, k in enumerate([3, 7, 3, 11, 7, 3])]
        buckets = make_router((0,), 4)(rows)
        for bucket in buckets:
            positions = [row[1] for row in bucket]
            assert positions == sorted(positions)


#: (group positions, aggregate position) head layouts the kernels take:
#: the (key, value) pair, a two-column group, aggregate first, no group.
LAYOUTS = [((0,), 1), ((0, 1), 2), ((1,), 0), ((), 0)]


def head_row(group, position, key, value):
    """A head row of arity ``len(group) + 1`` with ``value`` at
    ``position`` and every group column holding ``key``."""
    row = [key] * (len(group) + 1)
    row[position] = value
    return tuple(row)


class TestMergeKernels:
    def _batches(self, name, group=(0,), position=1):
        rng = random.Random(5)
        keys = list(range(6)) + ["k1", "k2"]
        batches = []
        for _ in range(4):
            batch = [head_row(group, position, rng.choice(keys),
                              rng.randint(-9, 9)) for _ in range(20)]
            if name in ("sum", "count"):
                # zero increment: no delta
                batch.append(head_row(group, position, keys[0], 0))
            # duplicate key in batch
            batch.append(head_row(group, position, keys[1],
                                  batch[0][position]))
            batches.append(batch)
        return batches

    def test_bit_exact_with_generic_dispatch(self):
        for name in ("min", "max", "sum", "count"):
            for group, position in LAYOUTS:
                layout = dict(group_positions=group,
                              aggregate_positions=(position,))
                aggregates = (BY_NAME[name],)
                fast = KeyedStateRDD(1, aggregates, **layout)
                reference = generic_state(1, aggregates, **layout)
                assert fast._merge._generated_source
                assert reference._merge.func is generic_merge_rows
                for batch in self._batches(name, group, position):
                    assert fast.merge_rows(0, batch) == \
                        reference.merge_rows(0, batch)
                    assert fast.partitions[0] == reference.partitions[0]
                    assert list(fast.partitions[0]) == \
                        list(reference.partitions[0])  # insertion order

    def test_merge_rows_bit_exact(self):
        """The bare kernel against the bare generic loop, (key, value)."""
        key0 = make_extractor((0,))
        for name in ("min", "max", "sum", "count"):
            aggregates = (BY_NAME[name],)
            kernel = make_merge_rows_kernel(aggregates, (0,), (1,))
            fast, reference = {}, {}
            for batch in self._batches(name):
                assert kernel(fast, batch) == generic_merge_rows(
                    reference, batch, key0, (1,), aggregates)
                assert fast == reference

    def test_min_max_delta_row_is_the_stored_row(self):
        for make_state in (KeyedStateRDD, generic_state):
            for name, better in (("min", 1), ("max", 9)):
                state = make_state(1, (BY_NAME[name],))
                first, improved = ("k", 5), ("k", better)
                assert state.merge_rows(0, [first])[0] is first
                (delta,) = state.merge_rows(0, [improved])
                assert delta is improved
                assert state.partitions[0]["k"] is improved

    def test_custom_clone_falls_back_to_generic(self):
        # Borrowing a builtin name while swapping a hook must NOT get the
        # specialized loop: only the canonical singletons qualify.
        custom = dataclasses.replace(
            BY_NAME["min"], delta_for_insert=lambda v: ("ins", v))
        assert make_merge_rows_kernel((custom,), (0,), (1,)) is None
        assert make_fold_kernel((custom,), (0,), (1,)) is None
        state = KeyedStateRDD(1, (custom,))
        assert state._merge.func is generic_merge_rows
        assert state.fold.func is partial_aggregate
        assert state.merge_rows(0, [("a", 7)]) == [("a", ("ins", 7))]

    def test_multi_aggregate_falls_back(self):
        both = (BY_NAME["min"], BY_NAME["sum"])
        assert make_merge_rows_kernel(both, (0,), (1, 2)) is None
        assert make_fold_kernel(both, (0,), (1, 2)) is None
        state = KeyedStateRDD(1, both, aggregate_positions=(1, 2))
        assert state._merge.func is generic_merge_rows
        assert state.fold.func is partial_aggregate


class TestFoldKernels:
    def test_matches_partial_aggregate(self):
        rng = random.Random(11)
        for group, position in LAYOUTS:
            group_key = make_extractor(group)
            rows = [head_row(group, position, rng.randrange(8),
                             rng.randint(-20, 20)) for _ in range(120)]
            for name in ("min", "max", "sum", "count"):
                aggregates = (BY_NAME[name],)
                fold_into, emit = make_fold_kernel(aggregates, group,
                                                   (position,))
                assert emit(fold_into({}, iter(rows))) == [partial_aggregate(
                    rows, group_key, (position,), aggregates)]

    def test_min_ties_keep_incumbent(self):
        fold_into, emit = make_fold_kernel((BY_NAME["min"],), (0,), (1,))
        # 1.0 arrives first; the later equal int 1 must not replace it.
        assert repr(emit(fold_into({}, [("k", 1.0), ("k", 1)]))) \
            == "[[('k', 1.0)]]"
        assert repr(partial_aggregate([("k", 1.0), ("k", 1)],
                                      make_extractor((0,)), (1,),
                                      (BY_NAME["min"],))) == "[('k', 1.0)]"

    def test_a_head_that_is_not_groups_plus_one_aggregate_falls_back(self):
        # Column 1 is neither a group nor the aggregate column: the
        # position-inlined loops do not apply, the generic ones do.
        layout = ((BY_NAME["sum"],), (0,), (2,))
        assert make_merge_rows_kernel(*layout) is None
        assert make_fold_kernel(*layout) is None
        state = KeyedStateRDD(1, layout[0], group_positions=(0,),
                              aggregate_positions=(2,))
        assert state.merge_rows(0, [("k", "x", 1), ("k", "y", 2)]) == \
            [("k", "x", 1), ("k", "y", 2)]
        assert state.partitions[0] == {"k": ("k", "y", 3)}

    def test_one_compiled_loop_per_shape(self):
        """Kernels are compiled once per (aggregate, layout) and shared:
        they close over nothing."""
        a = make_merge_rows_kernel((BY_NAME["min"],), (0,), (1,))
        assert a is make_merge_rows_kernel((BY_NAME["min"],), (0,), (1,))
        assert a is not make_merge_rows_kernel((BY_NAME["max"],), (0,), (1,))
        assert "row[1] < current[1]" in a._generated_source


class TestJoinBodies:
    def test_hash_and_nested_loop_agree_row_for_row(self):
        """``hash_probe_join`` against a brute-force nested loop: matches
        come out in build order per probe row, row for row."""
        rng = random.Random(3)
        build = [(rng.randrange(5), rng.randrange(100)) for _ in range(12)]
        probe = [(rng.randrange(6), rng.randrange(100)) for _ in range(30)]
        table = {}
        for row in build:
            table.setdefault(row[0], []).append(row)
        key = make_extractor((0,))
        combine = lambda a, b: a + b  # noqa: E731
        nested = [combine(p, b) for p in probe for b in build
                  if key(b) == key(p)]
        assert hash_probe_join(probe, table, key, combine) == nested
