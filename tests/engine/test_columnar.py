"""Unit tests for the pinned remainder of ``repro.engine.columnar``.

The columnar layer is off the product path (DESIGN.md §14); what stays
importable is what ``benchmarks/e2e/micro.py`` times.  A
:class:`ColumnBatch` is bit-exact with the row-tuple forms it mirrors:
``to_rows(from_rows(rows)) == rows`` value-for-value and
order-for-order, routing bucket-for-bucket identical to
``kernels.make_router``, and an encode/decode round trip that preserves
every value's ``repr`` (so ``1`` never comes back as ``True`` or
``1.0``).  These tests pin all three claims on seeded adversarial
inputs — mixed types, NULLs, bools, >64-bit ints, NaN/inf floats, empty
relations — plus the columnar merge/join twins.
"""

import math
import pickle
import random

import pytest

from repro.engine.aggregates import BY_NAME
from repro.engine.columnar import ColumnBatch
from repro.engine.joins import build_hash_table, build_hash_table_columns
from repro.engine.kernels import (
    batch_hash_probe,
    hash_probe_join,
    make_extractor,
    make_router,
)
from repro.engine.partitioner import HashPartitioner, column_partition_ids
from repro.engine.setrdd import KeyedStateRDD
from tests.conftest import generic_state

MIXED_VALUES = [0, 1, -5, -(2**40), 2**63, 2**70, "node-1", "", 3.5,
                -2.25, 10.0, float("inf"), None, True, False, ("a", 1)]

SEEDS = [5, 13]


def mixed_rows(seed, count=40, arity=3):
    rng = random.Random(seed)
    return [tuple(rng.choice(MIXED_VALUES) for _ in range(arity))
            for _ in range(count)]


def int_rows(seed, count=40, lo=-1000, hi=1000):
    rng = random.Random(seed)
    return [(rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(count)]


def reprs(rows):
    """Type-exact comparison key: ``repr`` distinguishes 1/True/1.0."""
    return [tuple(repr(v) for v in row) for row in rows]


class TestRoundTrip:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_mixed_rows_round_trip_repr_exact(self, seed):
        rows = mixed_rows(seed)
        batch = ColumnBatch.from_rows(rows)
        assert batch.to_rows() == rows
        assert reprs(batch.to_rows()) == reprs(rows)
        assert list(batch.iter_rows()) == rows
        assert list(batch) == rows  # __iter__ is iter_rows
        assert len(batch) == len(rows)

    def test_empty_relation(self):
        batch = ColumnBatch.from_rows([])
        assert batch.to_rows() == []
        assert len(batch) == 0
        assert list(batch.iter_rows()) == []
        round_tripped = ColumnBatch.decode(batch.encode())
        assert round_tripped.to_rows() == []

    def test_kind_classification(self):
        batch = ColumnBatch.from_rows([
            (1, 1.5, "a", None, True, 2**70),
            (2, -0.0, "b", 3, False, 0),
        ])
        # bools, NULL-bearing and >64-bit columns must all be object
        # columns: an array would change their repr or overflow.
        assert batch.kinds == "ifoooo"

    def test_bool_column_survives_exactly(self):
        rows = [(True,), (False,), (True,)]
        decoded = ColumnBatch.decode(ColumnBatch.from_rows(rows).encode())
        assert reprs(decoded.to_rows()) == reprs(rows)

    def test_nan_round_trips_bitwise(self):
        rows = [(float("nan"), 1.0), (2.0, float("-inf"))]
        decoded = ColumnBatch.decode(ColumnBatch.from_rows(rows).encode())
        out = decoded.to_rows()
        assert math.isnan(out[0][0])
        assert out[1] == (2.0, float("-inf"))

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="uniform-arity"):
            ColumnBatch.from_rows([(1, 2), (3,)])


class TestWire:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_encode_decode_mixed(self, seed):
        rows = mixed_rows(seed)
        batch = ColumnBatch.from_rows(rows)
        decoded = ColumnBatch.decode(batch.encode())
        assert reprs(decoded.to_rows()) == reprs(rows)
        assert decoded.kinds == batch.kinds

    @pytest.mark.parametrize("lo,hi", [(0, 100), (-120, 120), (-40000, 0),
                                       (10**6, 10**6 + 500),
                                       (-(2**62), 2**62)])
    def test_narrow_int_widths(self, lo, hi):
        rows = [(v,) for v in (lo, hi, (lo + hi) // 2, lo, hi)]
        decoded = ColumnBatch.decode(ColumnBatch.from_rows(rows).encode())
        assert decoded.to_rows() == rows

    def test_wire_is_compact_for_narrow_columns(self):
        # Uniform-random narrow ints: one byte per value pre-DEFLATE
        # already halves the row pickle.
        rows = int_rows(7, count=500, lo=0, hi=60)
        row_pickle = pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(ColumnBatch.from_rows(rows).encode()) < len(row_pickle) / 2
        # A converging fixpoint's delta (few distinct labels repeated):
        # column-major layout lets DEFLATE collapse it ≥5×.
        rng = random.Random(7)
        labels = [(node, rng.choice((0, 1, 2))) for node in range(500)]
        label_pickle = pickle.dumps(labels, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(ColumnBatch.from_rows(labels).encode()) < \
            len(label_pickle) / 5

    def test_decode_rejects_foreign_blobs(self):
        with pytest.raises(Exception):
            ColumnBatch.decode(b"R" + pickle.dumps(("nope", 0, [])))


class TestRouting:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("key_positions", [(0,), (1,), (0, 2)])
    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_route_matches_make_router(self, seed, key_positions, n):
        rows = mixed_rows(seed)
        batch = ColumnBatch.from_rows(rows)
        assert batch.route(key_positions, n) == make_router(
            key_positions, n)(rows)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_int_column_fast_path_matches(self, seed):
        rows = int_rows(seed)
        batch = ColumnBatch.from_rows(rows)
        assert batch.kinds == "ii"
        for n in (2, 4, 5):
            assert batch.route((0,), n) == make_router((0,), n)(rows)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("key_positions", [(0,), (1, 2)])
    def test_partition_ids_match_partitioner(self, seed, key_positions):
        rows = mixed_rows(seed)
        batch = ColumnBatch.from_rows(rows)
        partitioner = HashPartitioner(4)
        extractor = make_extractor(key_positions)
        expected = [partitioner.partition_of(extractor(row)) for row in rows]
        assert list(column_partition_ids(batch.keys(key_positions),
                                         4)) == expected

    @pytest.mark.parametrize("seed", SEEDS)
    def test_keys_match_extractor(self, seed):
        rows = mixed_rows(seed)
        batch = ColumnBatch.from_rows(rows)
        for positions in [(0,), (2,), (1, 2)]:
            extractor = make_extractor(positions)
            assert list(batch.keys(positions)) == [extractor(r) for r in rows]


class TestMergeTwins:
    """The columnar merge/join twins against their row references."""

    @pytest.mark.parametrize("name", ["min", "max", "sum", "count"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_merge_columns_kernel_matches_rows_kernel(self, name, seed):
        """``merge_rows_batch`` walks the batch's columns into the very
        loop ``merge_rows`` runs: same fresh rows, same row-layout state."""
        aggregates = (BY_NAME[name],)
        by_rows = KeyedStateRDD(1, aggregates)
        by_columns = KeyedStateRDD(1, aggregates)
        rows = int_rows(seed, count=60, lo=0, hi=9)
        batch = ColumnBatch.from_rows(rows)
        fresh_rows = by_rows.merge_rows(0, rows)
        fresh_cols = by_columns.merge_rows_batch(0, batch)
        assert fresh_cols == fresh_rows
        assert by_columns.partitions == by_rows.partitions
        assert all(key == row[0] and len(row) == 2
                   for key, row in by_columns.partitions[0].items())

    @pytest.mark.parametrize("name", ["min", "max", "sum", "count"])
    def test_generic_merge_columns_matches_kernel(self, name):
        aggregates = (BY_NAME[name],)
        batch = ColumnBatch.from_rows(int_rows(11, count=60, lo=0, hi=9))
        generic = generic_state(1, aggregates)
        kernel = KeyedStateRDD(1, aggregates)
        assert generic.merge_rows_batch(0, batch) == \
            kernel.merge_rows_batch(0, batch)
        assert generic.partitions == kernel.partitions
        assert generic.versions == kernel.versions == [1]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_columnar_hash_build_matches_row_build(self, seed):
        rows = mixed_rows(seed)
        batch = ColumnBatch.from_rows(rows)
        key_fn = make_extractor((0,))
        row_table = build_hash_table(rows, key_fn)
        col_table = build_hash_table_columns(batch.keys((0,)), batch)
        assert col_table == row_table
        assert list(col_table) == list(row_table)  # insertion order too

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batch_hash_probe_matches_hash_probe_join(self, seed):
        build = mixed_rows(seed, count=30, arity=2)
        probe = mixed_rows(seed + 1, count=30, arity=2)
        key_fn = make_extractor((0,))
        table = build_hash_table(build, key_fn)
        combine = lambda left, right: left + right  # noqa: E731
        probe_batch = ColumnBatch.from_rows(probe)
        assert batch_hash_probe(probe_batch.keys((0,)), probe_batch,
                                table, combine) == \
            hash_probe_join(probe, table, key_fn, combine)
