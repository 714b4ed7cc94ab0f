"""Partitioned datasets — the immutable RDD analog.

A :class:`Dataset` is a list of :class:`Partition` objects plus an optional
partitioner describing how rows were distributed.  Each partition remembers
the worker it resides on (its cache location); the scheduler uses this for
locality decisions and the cost model charges remote fetches when a task
runs elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.engine.partitioner import HashPartitioner
from repro.engine.serialization import rows_size


@dataclass(slots=True)
class Partition:
    """One partition of a dataset: rows plus their home worker (a pool
    exchange's partition holds its workers' unread ``ShuffleBlock`` s).

    ``nbytes`` is the rows' wire size when whoever made the partition
    already knows it (an exchange sums its buckets', a cached base side
    carries its blocks'); otherwise :meth:`size_bytes` samples the rows once.
    """

    index: int
    rows: list[tuple]
    worker: int = 0
    nbytes: int | None = field(default=None, repr=False)

    def size_bytes(self) -> int:
        """Wire-size estimate, memoized.  A base block's rows grow when
        its cached side absorbs an insert; each query wraps the block
        anew, with the size the side carries."""
        if self.nbytes is None:
            self.nbytes = rows_size(self.rows)
        return self.nbytes

    def __len__(self) -> int:
        return len(self.rows)


class Dataset:
    """An immutable, partitioned collection of rows.

    ``partitioner`` together with ``key_indices`` records *how* rows were
    placed: row ``r`` lives in partition
    ``partitioner.partition_of(key_of(r, key_indices))``.  Operators that
    need co-partitioned inputs check this instead of re-shuffling blindly.
    """

    def __init__(self, partitions: list[Partition],
                 partitioner: HashPartitioner | None = None,
                 key_indices: tuple[int, ...] | None = None):
        self.partitions = partitions
        self.partitioner = partitioner
        self.key_indices = key_indices
        #: Memory-charge group when this dataset's partitions are charged
        #: as shuffle buffers (set by ``Cluster.exchange``); consumers
        #: release the group once the rows are absorbed elsewhere.
        self.memory_group: str | None = None

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def num_rows(self) -> int:
        return sum(len(p) for p in self.partitions)

    def collect(self) -> list[tuple]:
        """All rows, concatenated in partition order."""
        out: list[tuple] = []
        for partition in self.partitions:
            out.extend(partition.rows)
        return out

    def __iter__(self) -> Iterator[tuple]:
        for partition in self.partitions:
            yield from partition.rows

    def size_bytes(self) -> int:
        return sum(p.size_bytes() for p in self.partitions)

    def __repr__(self) -> str:
        return (f"Dataset(partitions={self.num_partitions}, "
                f"rows={self.num_rows()}, partitioner={self.partitioner})")
