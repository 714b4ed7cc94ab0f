"""Unit tests for hash partitioning."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.aggregates import BY_NAME
from repro.engine.partitioner import (HashPartitioner, column_partition_ids,
                                      key_of, make_key_fn)


class TestHashPartitioner:
    def test_partition_in_range(self):
        p = HashPartitioner(7)
        for value in [0, 1, -5, "abc", (1, "x"), 3.5, None, True]:
            assert 0 <= p.partition_of(value) < 7

    def test_deterministic(self):
        p1 = HashPartitioner(16)
        p2 = HashPartitioner(16)
        for value in ["node-1", 42, (1, 2, 3), 2.5]:
            assert p1.partition_of(value) == p2.partition_of(value)

    def test_int_and_integral_float_collocate(self):
        # Join keys may arrive as int on one side and float on the other
        # (SQL numeric widening); they must land in the same partition.
        p = HashPartitioner(13)
        assert p.partition_of(10) == p.partition_of(10.0)

    def test_equality_by_num_partitions(self):
        assert HashPartitioner(4) == HashPartitioner(4)
        assert HashPartitioner(4) != HashPartitioner(5)

    def test_rejects_zero_partitions(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)

    @given(st.lists(st.one_of(st.integers(), st.text(max_size=10)), min_size=50,
                    max_size=300),
           st.integers(min_value=2, max_value=16))
    def test_reasonable_balance(self, values, n):
        """No partition should swallow everything for diverse keys."""
        p = HashPartitioner(n)
        buckets = [0] * n
        for v in set(values):
            buckets[p.partition_of(v)] += 1
        distinct = len(set(values))
        if distinct >= 10 * n:
            assert max(buckets) < distinct  # not all in one bucket


#: Values a dict may treat as one key: ints, bools, floats (integral or
#: not), and the same inside tuples.
SCALARS = st.one_of(
    st.integers(min_value=-2**70, max_value=2**70), st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-2**53, max_value=2**53).map(float),
    st.sampled_from([-1, -1.0, 0, -0.0, 1, True, 2**64, float(2**64)]))
KEYS = st.one_of(SCALARS, st.tuples(SCALARS, st.one_of(SCALARS, st.text())))


class TestDictEqualKeysColocate:
    """``a == b and hash(a) == hash(b)`` — one dict key, hence one group —
    implies one partition, for every partition count, through every
    routing path."""

    @staticmethod
    def twins(key):
        """``key`` and every dict-equal respelling of it."""
        if isinstance(key, tuple):
            return [(a, b) for a in TestDictEqualKeysColocate.twins(key[0])
                    for b in TestDictEqualKeysColocate.twins(key[1])]
        out = [key]
        if isinstance(key, (int, float)) and key == int(key):
            out += [int(key), float(int(key))] if abs(key) < 2**53 \
                else [int(key)]
            if key in (0, 1):
                out.append(bool(key))
        return [twin for twin in out
                if twin == key and hash(twin) == hash(key)]

    @given(KEYS)
    def test_every_routing_path_agrees_on_dict_equal_keys(self, key):
        from repro.engine.kernels import make_fold_kernel, make_router
        from tests.conftest import reference_router

        twins = self.twins(key)
        rows = [(twin, i) for i, twin in enumerate(twins)]
        for n in range(1, 9):
            partitioner = HashPartitioner(n)
            (home,) = {partitioner.partition_of(twin) for twin in twins}
            assert 0 <= home < n
            for route in (make_router((0,), n),
                          reference_router((0,), n)):
                buckets = route(rows)
                assert buckets[home] == rows and sum(map(len, buckets)) \
                    == len(rows)
            assert set(column_partition_ids(twins, n)) == {home}
            # the fused stage's emit pass: one group, in its home bucket
            fold_into, emit = make_fold_kernel((BY_NAME["min"],), (0,), (1,),
                                               (0,), n)
            buckets = emit(fold_into({}, rows))
            assert buckets[home] == [rows[0]] and sum(map(len, buckets)) == 1
            if isinstance(key, tuple):  # ... also as two key columns
                wide = [twin + (i,) for i, twin in enumerate(twins)]
                assert make_router((0, 1), n)(wide)[home] == wide
                fold_into, emit = make_fold_kernel(
                    (BY_NAME["min"],), (0, 1), (2,), (0, 1), n)
                assert emit(fold_into({}, wide))[home] == [wide[0]]

    def test_the_pairs_that_used_to_split(self):
        p = HashPartitioner(3)
        assert p.partition_of(-1) == p.partition_of(-1.0) == 2
        assert p.partition_of(True) == p.partition_of(1) == p.partition_of(1.0)
        assert p.partition_of((-1, "x")) == p.partition_of((-1.0, "x"))
        assert p.partition_of((True, 0)) == p.partition_of((1, False))


class TestKeyExtraction:
    def test_single_column_key_is_scalar(self):
        assert key_of((10, 20, 30), (1,)) == 20

    def test_multi_column_key_is_tuple(self):
        assert key_of((10, 20, 30), (2, 0)) == (30, 10)

    def test_make_key_fn_matches_key_of(self):
        row = ("a", "b", "c")
        for indices in [(0,), (1, 2), (2, 0, 1)]:
            assert make_key_fn(indices)(row) == key_of(row, indices)
