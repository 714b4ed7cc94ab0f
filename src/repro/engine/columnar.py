"""Column-decomposed row batches — measured, then retired from the engine.

Nothing in the product path imports this module: row tuples are the only
delta representation and pickled row lists the only process-backend wire
(DESIGN.md §14 has the measurements that decided it).  What is left is
exactly the surface ``benchmarks/e2e/micro.py`` times — ``from_rows``,
``route``, ``keys``, ``encode``/``decode`` — pinned (and unit-tested in
``tests/engine/test_columnar.py``) until the benchmark drops those rows.

A :class:`ColumnBatch` holds rows as *parallel per-column sequences*:

- columns whose every value is a plain ``int`` (``type(v) is int`` — a
  ``bool`` is deliberately not an int here, it would not round-trip
  ``repr``-exactly) live in an ``array('q')``;
- columns whose every value is a plain ``float`` live in an
  ``array('d')`` (C doubles are Python floats, so the round trip is
  bit-exact, NaN payloads included);
- anything else — strings, ``None``-bearing (NULL) columns, mixed types,
  ints beyond 64 bits — falls back to a plain Python list.

:meth:`encode` splits each numeric column into its eight native-endian
byte planes (``raw[i::8]`` — pure C-speed slicing), drops the planes that
are a constant 0x00/0xFF (the high bytes of narrow values, i.e. most of
them), ships object columns pickled, then DEFLATEs the lot.

``to_rows(from_rows(rows)) == rows`` value-for-value and order-for-order,
and :meth:`route` reproduces ``repro.engine.kernels.make_router`` (and
therefore ``HashPartitioner.partition_of``) bucket-for-bucket.
"""

from __future__ import annotations

import zlib
from array import array
from operator import itemgetter
from pickle import HIGHEST_PROTOCOL, dumps, loads
from typing import Iterable, Iterator

from repro.engine.partitioner import _stable_hash, column_partition_ids

__all__ = ["ColumnBatch"]

#: DEFLATE level 3 lands within ~2% of level 6 on plane data (the runs
#: are long and obvious) at two-thirds of the compression CPU, which
#: matters when driver and workers share cores.
_ZLIB_LEVEL = 3

#: Bytes per value of a numeric column's wire planes (``array('q')``
#: and ``array('d')`` are both 8 bytes on every supported platform).
_INT_WIDTH = array("q").itemsize


def _planes(raw: bytes, count: int, width: int = _INT_WIDTH) -> list:
    """Split packed values into per-byte planes (``raw[i::width]``).

    A plane that is a constant 0x00/0xFF — the sign extension of narrow
    values, i.e. most planes — collapses to that int.  Pure C-speed
    slicing/counting; DEFLATE does the actual squeezing on plane runs.
    """
    planes: list = []
    for i in range(width):
        plane = raw[i::width]
        if count and plane[0] in (0, 255) and \
                plane.count(plane[0]) == count:
            planes.append(plane[0])
        else:
            planes.append(plane)
    return planes


def _unplanes(planes: list, count: int, width: int = _INT_WIDTH) -> bytes:
    """Inverse of :func:`_planes`: re-interleave the byte planes."""
    interleaved = bytearray(width * count)
    for i, plane in enumerate(planes):
        if isinstance(plane, int):
            if plane:  # 0xFF sign-extension plane
                interleaved[i::width] = b"\xff" * count
            # zero planes: bytearray starts zeroed
        else:
            interleaved[i::width] = plane
    return bytes(interleaved)


class ColumnBatch:
    """Rows of uniform arity, stored column-major.  Immutable by
    convention: every consumer treats columns as read-only."""

    __slots__ = ("columns", "kinds", "length", "arity", "_wire")

    def __init__(self, columns: list, kinds: str, length: int):
        #: Parallel per-column storage: ``array('q')`` (kind ``'i'``),
        #: ``array('d')`` (kind ``'f'``) or ``list`` (kind ``'o'``).
        self.columns = columns
        self.kinds = kinds
        self.length = length
        self.arity = len(columns)
        self._wire: bytes | None = None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_rows(cls, rows: list[tuple]) -> "ColumnBatch":
        """Column-decompose a list of equal-arity row tuples.

        Raises ``ValueError`` on ragged input (``zip(*rows)`` would
        silently truncate).
        """
        if not rows:
            return cls([], "", 0)
        try:
            decomposed = list(zip(*rows, strict=True))
        except ValueError:
            raise ValueError(
                "ColumnBatch requires uniform-arity rows") from None
        columns: list = []
        kinds: list[str] = []
        for values in decomposed:
            # One C-speed pass classifies the column; ``bool`` (a
            # subclass of int) lands in the object branch by type
            # identity, as does None, so the set check is exact.
            value_types = set(map(type, values))
            if value_types == {int}:
                try:
                    columns.append(array("q", values))
                    kinds.append("i")
                    continue
                except OverflowError:
                    pass  # > 64-bit int somewhere: object column
            elif value_types == {float}:
                columns.append(array("d", values))
                kinds.append("f")
                continue
            columns.append(list(values))
            kinds.append("o")
        return cls(columns, "".join(kinds), len(rows))

    # -- row views ------------------------------------------------------

    def __len__(self) -> int:
        return self.length

    def iter_rows(self) -> Iterator[tuple]:
        """Rows as tuples, in original order (``array`` items come back
        as plain ``int``/``float``, so tuples equal the originals)."""
        if not self.columns:
            return iter(())
        return zip(*self.columns)

    __iter__ = iter_rows

    def to_rows(self) -> list[tuple]:
        if not self.columns:
            return []
        return list(zip(*self.columns))

    # -- hash-partition routing -----------------------------------------

    def route(self, key_positions: tuple[int, ...],
              num_partitions: int) -> list[list[tuple]]:
        """Single-pass shuffle routing over the key column(s).

        Bucket-for-bucket identical to
        ``kernels.make_router(key_positions, n)(self.to_rows())``: the
        ``type(key) is int`` fast path, the ``_stable_hash`` fallback and
        the always-hash rule for multi-column keys are reproduced exactly,
        and rows keep their relative order inside each bucket.
        """
        n = num_partitions
        if n == 1:
            return [self.to_rows()]
        buckets: list[list[tuple]] = [[] for _ in range(n)]
        appends = [bucket.append for bucket in buckets]
        if len(key_positions) == 1:
            position = key_positions[0]
            keys = self.columns[position] if self.columns else ()
            if self.kinds[position:position + 1] == "i":
                # Whole-column int fast path: no per-row type check.
                for key, row in zip(keys, self.iter_rows()):
                    appends[key % n](row)
            else:
                for pid, row in zip(column_partition_ids(keys, n),
                                    self.iter_rows()):
                    appends[pid](row)
            return buckets
        getter = itemgetter(*key_positions)
        stable_hash = _stable_hash
        for row in self.iter_rows():
            appends[stable_hash(getter(row)) % n](row)
        return buckets

    def keys(self, key_positions: tuple[int, ...]) -> Iterable:
        """The key column (scalars) or zipped key tuples — the columnar
        form of mapping ``partitioner.key_of`` over the rows."""
        if len(key_positions) == 1:
            return self.columns[key_positions[0]]
        return list(zip(*(self.columns[p] for p in key_positions)))

    # -- wire format ----------------------------------------------------

    def encode(self) -> bytes:
        """Compact self-describing bytes; cached (batches are immutable).

        Layout: 1 tag byte (``Z`` deflated / ``R`` raw) + pickle of
        ``("CB1", length, [per-column spec])`` where an int column is
        ``("p", [plane_0 .. plane_7])`` — its eight native-endian byte
        planes (``tobytes()[i::8]``), each either the raw plane bytes or
        the int ``0``/``255`` when the plane is that constant (the sign
        extension of narrow values, i.e. most planes) — a float column
        is ``("f", payload_bytes)`` and an object column is
        ``("o", values_list)``.  Every step is C-speed slicing; DEFLATE
        does the actual squeezing on the plane runs.
        """
        if self._wire is not None:
            return self._wire
        cols = []
        for kind, col in zip(self.kinds, self.columns):
            if kind == "i":
                cols.append(("p", _planes(col.tobytes(), len(col))))
            elif kind == "f":
                cols.append(("f", _planes(col.tobytes(), len(col))))
            else:
                cols.append(("o", list(col)))
        raw = dumps(("CB1", self.length, cols), protocol=HIGHEST_PROTOCOL)
        packed = zlib.compress(raw, _ZLIB_LEVEL)
        wire = (b"Z" + packed) if len(packed) < len(raw) else (b"R" + raw)
        self._wire = wire
        return wire

    @classmethod
    def decode(cls, blob: bytes) -> "ColumnBatch":
        raw = zlib.decompress(blob[1:]) if blob[:1] == b"Z" else blob[1:]
        magic, length, cols = loads(raw)
        if magic != "CB1":
            raise ValueError(f"not a ColumnBatch blob: {magic!r}")
        columns: list = []
        kinds: list[str] = []
        for spec in cols:
            if spec[0] == "p":
                col = array("q")
                col.frombytes(_unplanes(spec[1], length))
                columns.append(col)
                kinds.append("i")
            elif spec[0] == "f":
                col = array("d")
                col.frombytes(_unplanes(spec[1], length))
                columns.append(col)
                kinds.append("f")
            else:
                columns.append(spec[1])
                kinds.append("o")
        batch = cls(columns, "".join(kinds), length)
        batch._wire = bytes(blob)
        return batch

    def __repr__(self) -> str:
        return (f"ColumnBatch(rows={self.length}, arity={self.arity}, "
                f"kinds={self.kinds!r})")
