"""Partitioners: the hash functions of Appendix A.

A partitioner maps a *key* (one value or a tuple of values drawn from a row)
to a partition id.  Two datasets are *co-partitioned* when they share an
equal partitioner and the same number of partitions — the precondition for
the partition-local joins and set operations of Algorithms 4–6.
"""

from __future__ import annotations

from dataclasses import dataclass


def _stable_hash(value) -> int:
    """A deterministic hash (Python's ``hash`` of str is salted per process).

    Determinism matters for reproducible benchmarks and for the
    property-based tests that re-run partitioning across processes.

    Keys a dict treats as one key must land in one partition, or a group
    straddles two: an ``int``, ``bool`` or integer-valued ``float`` hashes
    to its *unmasked* integer value, so ``h % n`` is the ``key % n`` of
    ``partition_of``'s int fast path for every ``n`` (``-1`` and ``-1.0``,
    ``True`` and ``1``).  A tuple masks after mixing each item in.
    """
    if isinstance(value, tuple):
        h = 0x345678
        for item in value:
            h = (h * 1000003) ^ _stable_hash(item)
            h &= 0xFFFFFFFFFFFFFFFF
        return h
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
        return hash(value) & 0xFFFFFFFFFFFFFFFF
    if isinstance(value, str):
        h = 5381
        for ch in value:
            h = ((h * 33) ^ ord(ch)) & 0xFFFFFFFFFFFFFFFF
        return h
    if value is None:
        return 0x51ED270B
    return hash(value) & 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class HashPartitioner:
    """Hash partitioning over an explicit key, Appendix A's ``h``."""

    num_partitions: int

    def __post_init__(self):
        if self.num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")

    def partition_of(self, key) -> int:
        # Fast path: graph workloads partition on integer vertex ids.
        if type(key) is int:
            return key % self.num_partitions
        return _stable_hash(key) % self.num_partitions

    def __eq__(self, other) -> bool:
        return (isinstance(other, HashPartitioner)
                and other.num_partitions == self.num_partitions)

    def __hash__(self) -> int:
        return hash(("HashPartitioner", self.num_partitions))


def key_of(row: tuple, key_indices: tuple[int, ...]):
    """Extract the partition/join key from a row.

    Single-column keys are unwrapped (scalar) so that hash distribution and
    dictionary lookups avoid one-tuple allocation on the hot path.
    """
    if len(key_indices) == 1:
        return row[key_indices[0]]
    return tuple(row[i] for i in key_indices)


def column_partition_ids(keys, num_partitions: int):
    """Partition ids for a whole *key column* in one pass.

    The columnar twin of mapping :meth:`HashPartitioner.partition_of`
    over single-column keys: the exact ``type(key) is int`` fast-path
    check runs per value, so a mixed column (ints interleaved with
    strings or ``None``) routes identically to the row-at-a-time loop.
    Yields one partition id per key, in order.
    """
    n = num_partitions
    stable_hash = _stable_hash
    for key in keys:
        if type(key) is int:
            yield key % n
        else:
            yield stable_hash(key) % n
