"""Unit tests for the wire-size model and compression codec."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.serialization import (
    CompressionCodec,
    HASH_TABLE_BLOWUP,
    ShuffleBlock,
    forwarded,
    incoming_rows,
    row_size,
    rows_size,
    value_size,
)


class TestSizeModel:
    def test_numeric_values(self):
        assert value_size(42) == 8
        assert value_size(3.14) == 8

    def test_string_values_scale_with_length(self):
        assert value_size("abcd") == 4
        assert value_size("") == 0
        assert value_size("ab" * 100) == 200

    def test_unicode_measured_in_bytes(self):
        assert value_size("é") == 2

    def test_none_and_bool_are_one_byte(self):
        assert value_size(None) == 1
        assert value_size(True) == 1

    def test_row_size_includes_overheads(self):
        assert row_size((1, 2)) == 4 + 2 * (2 + 8)

    def test_rows_size_sums(self):
        rows = [(1, 2), (3, 4), (5, 6)]
        assert rows_size(rows) == 3 * row_size((1, 2))

    def test_hash_table_blowup_in_paper_range(self):
        assert 2.0 <= HASH_TABLE_BLOWUP <= 3.0


def reference_rows_size(rows) -> int:
    """``rows_size`` as first defined: copy anything that is not a list
    or tuple into a list, size up to 64 rows exactly, else 64 evenly
    spaced ones, each through :func:`row_size`."""
    if not isinstance(rows, (list, tuple)):
        rows = list(rows)
    n = len(rows)
    if n <= 64:
        return sum(row_size(row) for row in rows)
    step = n // 64
    sampled = sum(row_size(rows[i]) for i in range(0, step * 64, step))
    return int(sampled * (n / 64))


#: Every kind of value ``value_size`` tells apart, ``bool`` — an ``int``
#: that is *not* sized as a number — among them.
VALUES = st.one_of(
    st.integers(-2**70, 2**70), st.floats(allow_nan=False), st.booleans(),
    st.none(), st.text(max_size=6), st.binary(max_size=6),
    st.decimals(allow_nan=False, allow_infinity=False, places=2))
NUMBERS = st.one_of(st.integers(-2**40, 2**40), st.floats(allow_nan=False))
SIZES = (0, 1, 63, 64, 65, 128, 129, 5_000)


def assert_agrees_in_every_container(rows: list[tuple]) -> None:
    containers = {"list": rows, "tuple": tuple(rows), "set": set(rows),
                  "dict values": dict(enumerate(rows)).values()}
    for kind, container in containers.items():
        assert rows_size(container) == reference_rows_size(container), kind
    assert rows_size(row for row in rows) == reference_rows_size(rows)


class TestRowsSizeIsTheReferenceDefinition:
    """The accounting hot path sizes numeric rows from their widths and
    samples a set / dict view in place; every byte count — hence every
    simulated-clock figure — must be what the first definition gave."""

    @pytest.mark.parametrize("size", SIZES)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_over_value_types_containers_and_sizes(self, size, data):
        # A pool of rows tiled to ``size``: mostly numeric rows of mixed
        # widths, with rows that are not — so samples land on both.
        numeric = st.lists(NUMBERS, max_size=4).map(tuple)
        mixed = st.lists(VALUES, max_size=4).map(tuple)
        pool = data.draw(st.lists(st.one_of(numeric, numeric, mixed),
                                  min_size=1, max_size=12))
        offset = data.draw(st.integers(0, len(pool)))
        # Distinct rows (a trailing index), so a set keeps ``size`` rows.
        assert_agrees_in_every_container(
            [pool[(i + offset) % len(pool)] + (i,) for i in range(size)])

    @pytest.mark.parametrize("size", SIZES)
    def test_numeric_rows_of_mixed_widths(self, size):
        assert_agrees_in_every_container(
            [(i, float(i), -i)[:1 + i % 3] for i in range(size)])

    def test_a_bool_or_none_among_numbers_is_not_sized_as_a_number(self):
        rows = [(1, 2.0)] * 100 + [(True, None)]
        assert rows_size(rows[-1:]) == row_size((True, None)) == 4 + 2 * 3
        # 101 rows sample every row but the last: force it into the sample.
        rows = [(True, None)] + [(1, 2.0)] * 100
        assert rows_size(rows) == reference_rows_size(rows)
        assert rows_size(rows) < rows_size([(1, 2.0)] * 101)


class TestShuffleBlock:
    @given(st.lists(st.lists(st.tuples(st.integers(), st.text(max_size=3)),
                             min_size=1, max_size=80),
                    min_size=1, max_size=4))
    def test_blocks_decode_in_arrival_order(self, buckets):
        blocks = [ShuffleBlock.encode(rows) for rows in buckets]
        for block, rows in zip(blocks, buckets):
            assert (block.records, block.nbytes) == (len(rows),
                                                     rows_size(rows))
        merged = incoming_rows({"v": forwarded(blocks), "w": buckets[0]})
        assert merged["v"] == [row for rows in buckets for row in rows]
        assert merged["w"] is buckets[0]  # a driver-made row list as is

    def test_forwarded_blocks_carry_no_class_reference_or_frame(self):
        rows = [(i, float(i)) for i in range(40)]
        blocks = [ShuffleBlock.encode(rows[:3]), ShuffleBlock.encode(rows)]
        shipped = pickle.dumps(("iterate", "s", 0, {"v": forwarded(blocks)}),
                               protocol=pickle.HIGHEST_PROTOCOL)
        assert b"ShuffleBlock" not in shipped
        for block in blocks:
            assert block.data.startswith(b"\x80\x05")  # PROTO, no FRAME
            assert block.data[2:3] != b"\x95"
            assert len(block.data) == len(pickle.dumps(
                block.decode(), protocol=5)) - 9
        assert forwarded(rows) is rows and forwarded([]) == []


class TestCompressionCodec:
    def test_compression_shrinks(self):
        codec = CompressionCodec()
        assert codec.compressed_size(10_000) < 10_000

    def test_compression_never_zero(self):
        codec = CompressionCodec()
        assert codec.compressed_size(1) >= 1

    def test_cpu_seconds_proportional(self):
        codec = CompressionCodec()
        assert codec.cpu_seconds(2_000_000) == 2 * codec.cpu_seconds(1_000_000)
