"""Unit tests for the specialized fixpoint kernels.

Every kernel has a naive reference loop that stays in the codebase; these
tests pin each kernel to its reference bit-exactly on adversarial inputs
(negative ints, floats, strings, tuples, None, bools), and pin the
fallback rules: custom aggregate clones and unsupported shapes must
return ``None`` so the generic dispatch keeps honouring their hooks.
"""

import dataclasses
import random

from repro.engine.aggregates import BY_NAME, partial_aggregate
from repro.engine.kernels import (
    hash_probe_join,
    make_extractor,
    make_fold_kernel,
    make_merge_kernel,
    make_merge_rows_kernel,
    make_router,
)
from repro.engine.partitioner import HashPartitioner, key_of
from repro.engine.setrdd import KeyedStateRDD

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


class TestRouter:
    def _reference(self, rows, positions, n):
        partitioner = HashPartitioner(n)
        buckets = [[] for _ in range(n)]
        for row in rows:
            buckets[partitioner.partition_of(key_of(row, positions))].append(row)
        return buckets

    def test_single_key_matches_partition_of(self):
        rows = mixed_rows()
        for n in (2, 4, 7):
            assert make_router((0,), n)(rows) == self._reference(rows, (0,), n)

    def test_multi_key_matches_partition_of(self):
        rows = mixed_rows()
        for n in (2, 5):
            route = make_router((0, 2), n)
            assert route(rows) == self._reference(rows, (0, 2), n)

    def test_single_partition_collects_everything(self):
        rows = mixed_rows()
        assert make_router((0,), 1)(rows) == [rows]

    def test_preserves_order_within_buckets(self):
        rows = [(k, i) for i, k in enumerate([3, 7, 3, 11, 7, 3])]
        buckets = make_router((0,), 4)(rows)
        for bucket in buckets:
            positions = [row[1] for row in bucket]
            assert positions == sorted(positions)


class TestMergeKernels:
    def _pairs(self, name):
        rng = random.Random(5)
        keys = list(range(6)) + ["k1", "k2"]
        batches = []
        for _ in range(4):
            batch = [(rng.choice(keys), (rng.randint(-9, 9),))
                     for _ in range(20)]
            if name in ("sum", "count"):
                batch.append((keys[0], (0,)))  # zero increment: no delta
            batch.append((keys[1], batch[0][1]))  # duplicate key in batch
            batches.append(batch)
        return batches

    def test_bit_exact_with_generic_dispatch(self):
        for name in ("min", "max", "sum", "count"):
            aggregates = (BY_NAME[name],)
            fast = KeyedStateRDD(1, aggregates, use_kernels=True)
            reference = KeyedStateRDD(1, aggregates, use_kernels=False)
            assert fast._merge_kernel is not None
            for batch in self._pairs(name):
                assert fast.merge(0, batch) == reference.merge(0, batch)
                assert fast.partitions[0] == reference.partitions[0]

    def test_merge_rows_bit_exact(self):
        for name in ("min", "max", "sum", "count"):
            aggregates = (BY_NAME[name],)
            fast = KeyedStateRDD(1, aggregates, use_kernels=True)
            reference = KeyedStateRDD(1, aggregates, use_kernels=False)
            for batch in self._pairs(name):
                rows = [(k, v[0]) for k, v in batch]
                assert fast.merge_rows(0, rows) == reference.merge_rows(0, rows)
                assert fast.partitions[0] == reference.partitions[0]

    def test_custom_clone_falls_back_to_generic(self):
        # Borrowing a builtin name while swapping a hook must NOT get the
        # specialized loop: only the canonical singletons qualify.
        custom = dataclasses.replace(
            BY_NAME["min"], delta_for_insert=lambda v: ("ins", v))
        assert make_merge_kernel((custom,)) is None
        assert make_merge_rows_kernel((custom,)) is None
        assert make_fold_kernel(custom) is None

    def test_multi_aggregate_falls_back(self):
        assert make_merge_kernel((BY_NAME["min"], BY_NAME["sum"])) is None
        assert make_merge_rows_kernel((BY_NAME["min"], BY_NAME["sum"])) is None


class TestFoldKernels:
    def test_matches_partial_aggregate(self):
        rng = random.Random(11)
        pairs = [(rng.randrange(8), (rng.randint(-20, 20),))
                 for _ in range(120)]
        for name in ("min", "max", "sum", "count"):
            aggregate = BY_NAME[name]
            fold = make_fold_kernel(aggregate)
            assert fold is not None
            folded = [(k, (v,)) for k, v in fold((k, v[0]) for k, v in pairs)]
            assert folded == partial_aggregate(pairs, (aggregate,))

    def test_min_ties_keep_incumbent(self):
        fold = make_fold_kernel(BY_NAME["min"])
        # 1.0 arrives first; the later equal int 1 must not replace it.
        assert fold([("k", 1.0), ("k", 1)]) == [("k", 1.0)]


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
