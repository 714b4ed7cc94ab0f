"""Row serialization size model and the broadcast compression codec.

The network cost model needs byte counts.  ``row_size`` gives a
deterministic wire-size estimate comparable to a compact binary row format
(8 bytes per number, raw bytes per string, small per-field/row overhead).

``CompressionCodec`` models the broadcast compression of Section 7.2: the
paper broadcasts the *compressed* relation and lets each worker build its own
hash table, instead of shipping a hash table that is "often 2X to 3X larger
than the original".  We reproduce both effects as byte-count multipliers.

Pipes to pool workers (:func:`dump_payload`, :class:`ShuffleBlock`) and
checkpoint blobs really serialize: :func:`dump_blob` / :func:`load_blob`
persist a pickled payload behind a content hash (first line
``rasql-ckpt <sha256-hex>\\n``, then the pickle bytes), written atomically
via a temp file + rename so a crash mid-write leaves either the previous
checkpoint or none, never a torn one.
:func:`rows_checksum` is the cheap order-insensitive integrity hash the
shuffle path uses for corruption detection.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import zlib
from dataclasses import dataclass
from itertools import chain, islice
from typing import NamedTuple

from repro.errors import CheckpointCorruptionError, CheckpointError

_NUMERIC_BYTES = 8
_FIELD_OVERHEAD = 2
_ROW_OVERHEAD = 4

#: How much larger a serialized hash table is than the raw rows it indexes.
#: The paper reports "2X to 3X"; we use the middle of that range.
HASH_TABLE_BLOWUP = 2.5


def value_size(value) -> int:
    """Wire-size estimate of one scalar value in bytes."""
    if isinstance(value, bool) or value is None:
        return 1
    if isinstance(value, (int, float)):
        return _NUMERIC_BYTES
    if isinstance(value, str):
        return len(value.encode("utf-8", errors="replace"))
    if isinstance(value, bytes):
        return len(value)
    # Fallback for exotic values: size of their text rendering.
    return len(str(value))


def row_size(row: tuple) -> int:
    """Wire-size estimate of one row in bytes."""
    total = _ROW_OVERHEAD
    for value in row:
        total += _FIELD_OVERHEAD + value_size(value)
    return total


_SAMPLE_THRESHOLD = 64
_NUMBERS = frozenset((int, float))


def _sized(rows) -> int:
    """Summed :func:`row_size` of a few rows; rows of plain numbers (the
    common case, and this sits on the shuffle accounting hot path) are
    sized from their row and value counts alone, after one pass that
    gathers the values and one that reads their types."""
    values = [*chain.from_iterable(rows)]
    if not _NUMBERS.issuperset(map(type, values)):
        return sum(map(row_size, rows))
    return (_ROW_OVERHEAD * len(rows)
            + (_FIELD_OVERHEAD + _NUMERIC_BYTES) * len(values))


def rows_size(rows) -> int:
    """Wire-size estimate of a collection of rows in bytes.

    Exact for small collections; for large ones the estimate samples 64
    evenly spaced rows (in iteration order, for a set or a dict view) and
    extrapolates — the model only needs byte counts, not byte-perfect
    sums.
    """
    if not hasattr(rows, "__len__"):
        rows = list(rows)
    n = len(rows)
    sliceable = isinstance(rows, (list, tuple))
    if n <= _SAMPLE_THRESHOLD:
        return _sized(rows if sliceable else list(rows))
    step = n // _SAMPLE_THRESHOLD
    stop = step * _SAMPLE_THRESHOLD
    sampled = _sized(rows[:stop:step] if sliceable
                     else list(islice(rows, 0, stop, step)))
    return int(sampled * (n / _SAMPLE_THRESHOLD))


_BLOB_MAGIC = b"rasql-ckpt "


def dump_blob(path: str, payload) -> int:
    """Pickle *payload* to *path* behind a sha256 header, atomically.

    Returns the number of bytes written.  The write goes to
    ``<path>.tmp`` first and is renamed into place, so concurrent
    readers (and a crash between the two steps) see either the old
    complete blob or the new complete blob.
    """
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    header = _BLOB_MAGIC + hashlib.sha256(body).hexdigest().encode("ascii") + b"\n"
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(body)
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint blob {path!r}: {exc}") from exc
    return len(header) + len(body)


def load_blob(path: str):
    """Load a blob written by :func:`dump_blob`, verifying its hash.

    Raises :class:`~repro.errors.CheckpointCorruptionError` when the
    body's sha256 does not match the header (torn write, bit flip), and
    :class:`~repro.errors.CheckpointError` when the file is unreadable
    or not a checkpoint blob at all.
    """
    try:
        with open(path, "rb") as fh:
            header = fh.readline()
            body = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint blob {path!r}: {exc}") from exc
    if not header.startswith(_BLOB_MAGIC):
        raise CheckpointError(f"{path!r} is not a RaSQL checkpoint blob")
    expected = header[len(_BLOB_MAGIC):].strip().decode("ascii", errors="replace")
    actual = hashlib.sha256(body).hexdigest()
    if actual != expected:
        raise CheckpointCorruptionError(
            f"checkpoint blob {path!r} failed its integrity check "
            f"(header {expected[:12]}..., body {actual[:12]}...)")
    try:
        return pickle.loads(body)
    except Exception as exc:  # pickle raises a zoo of types
        raise CheckpointCorruptionError(
            f"checkpoint blob {path!r} verified but failed to unpickle: {exc}") from exc


def dump_payload(payload) -> bytes:
    """Pickle a task payload for the process-backend wire.

    Payloads are plain tuples of builtins plus the frozen wire
    dataclasses of :mod:`repro.engine.backend.payloads` — no closures,
    no live state — so the highest pickle protocol always applies.
    """
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def load_payload(blob: bytes):
    """Inverse of :func:`dump_payload` (worker side)."""
    return pickle.loads(blob)


#: A protocol-5 pickle opens with PROTO (2 bytes) and, when it frames its
#: body, FRAME and the frame's 8-byte length (9 more) that say nothing a
#: block's reader needs: framing is optional to the unpickler.
_FRAMED = b"\x80\x05\x95"
_FRAME_HEADER = 11


def dump_rows(rows: list[tuple]) -> bytes:
    """``rows`` pickled as one shuffle bucket travels: the protocol-5
    pickle without its frame header (PROTO stays, so it loads as is)."""
    data = pickle.dumps(rows, protocol=5)
    if data.startswith(_FRAMED):
        return data[:2] + data[_FRAME_HEADER:]
    return data


class ShuffleBlock(NamedTuple):
    """A non-empty shuffle bucket pickled once by the pool worker that
    routed it: the driver forwards it unread, its merger decodes it.

    A reply carries blocks; what the driver forwards (the next payload,
    the replay log) is their ``data`` alone, a plain ``bytes`` per
    block: the header has been read by then, and bytes pickle with no
    class reference (:func:`forwarded`)."""

    records: int
    nbytes: int  # rows_size of the rows, as the exchange would size them
    data: bytes  # dump_rows(rows)

    @classmethod
    def encode(cls, rows: list[tuple]) -> ShuffleBlock:
        return cls(len(rows), rows_size(rows), dump_rows(rows))

    def decode(self) -> list[tuple]:
        return pickle.loads(self.data)


def forwarded(part: list) -> list:
    """A gathered partition as the driver ships it on: its blocks'
    ``data`` (no row is read), driver-made rows as they are."""
    if part and type(part[0]) is ShuffleBlock:
        return [block.data for block in part]
    return part


def incoming_rows(rows_by_view: dict[str, list]) -> dict[str, list[tuple]]:
    """A partition's incoming delta per view as a worker merges it:
    forwarded blocks (:func:`forwarded`) decoded in arrival order and
    concatenated, driver-made rows as is."""
    return {name: list(chain.from_iterable(map(pickle.loads, part)))
            if type(part[0]) is bytes else part
            for name, part in rows_by_view.items()}


def rows_checksum(rows) -> int:
    """Order-insensitive integrity hash of a row collection.

    XOR of per-row crc32s over each row's ``repr`` — cheap enough for
    the shuffle hot path (it only runs when a corruption injector is
    armed), order-insensitive so map-side and reduce-side can hash in
    whatever order they hold the rows, and sensitive to any single-value
    mutation (``1`` vs ``1.0`` differ, matching bit-exactness).
    """
    digest = 0
    for row in rows:
        digest ^= zlib.crc32(repr(row).encode("utf-8", errors="replace"))
    return digest


@dataclass(frozen=True)
class CompressionCodec:
    """A byte-count compression model for broadcast data.

    ``ratio`` is output/input; 0.45 approximates what a general-purpose
    codec (LZ4/Snappy) achieves on integer-heavy edge lists, which is the
    regime of the Figure 6 experiment.  ``throughput`` charges CPU time for
    the compression itself on the sender.
    """

    ratio: float = 0.45
    throughput_bytes_per_s: float = 400e6

    def compressed_size(self, nbytes: int) -> int:
        return max(1, int(nbytes * self.ratio))

    def cpu_seconds(self, nbytes: int) -> float:
        return nbytes / self.throughput_bytes_per_s
