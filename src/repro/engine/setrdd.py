"""SetRDD — the mutable *all*-relation state of Section 6.1.

Spark RDDs are immutable, so each union/set-difference copies the whole
relation; the paper replaces the all-RDD with an append-only per-partition
hash set that supports in-place union.  We reproduce both flavours:

- :class:`SetRDD` for recursion without aggregates (REACH, TC, SG): each
  partition is an insertion-ordered set of rows (a ``dict`` whose keys are
  the rows); ``union_in_place`` inserts the delta and returns only the
  genuinely new rows (set difference fused with union, as in the Reduce
  stage of Algorithm 4).
- :class:`KeyedStateRDD` for aggregates-in-recursion (CC, SSSP, BOM, ...):
  each partition is a dict from group key to *the view's own head row
  carrying the group's current totals*; merging applies the monotonic
  aggregate logic of Algorithm 5 (insert new keys, improve existing ones,
  emit the delta).

Either way a row at rest is the view's own tuple, and both classes answer
the same calls — ``merge_rows`` (rows in, fresh delta rows out),
``partition_rows``, ``collect``, ``clear_partition``, snapshot / restore /
replace, ``dump_state`` / ``load_state`` — so the fixpoint never asks which
one it holds.  Both are deliberately *not* Datasets: they are long-lived
mutable state cached on workers for the whole fixpoint, exactly like the
paper's cached SetRDD partitions.

Both also carry a per-partition *version* counter, bumped whenever a
partition changes other than by pure append (restore after a fault,
wholesale replacement, an aggregate-value improvement).  Versions let the
fixpoint's kernel layer validate cached derivatives — hash-join build
tables, materialized row lists, memoized wire sizes — with an O(1) check
instead of a rebuild: a ``(version, row count)`` pair pins append-only
growth exactly, because appends change the count and everything else
changes the version.

A partition's wire size (memory accounting) is sampled only when nothing
better is known: a merge told the size of the rows it merged (the
exchange summed their buckets') grows the memoized size by the rows it
added, each at the merged rows' mean size.
"""

from __future__ import annotations

from typing import Iterable

from functools import partial

from repro.engine import aggregates as reference
from repro.engine.aggregates import AggregateFunction
from repro.engine.kernels import (make_extractor, make_merge_columns_kernel,
                                  make_merge_rows_kernel)
from repro.engine.partitioner import HashPartitioner
from repro.engine.serialization import rows_size
from repro.errors import CheckpointError


def _grown(entry, before: tuple, after: tuple, added: int, rows,
           nbytes: int | None):
    """The size-cache entry of a partition a merge of ``rows`` (``nbytes``
    on the wire) moved from key ``before`` to ``after`` by ``added`` rows:
    the old size plus ``added`` rows at the merged rows' mean size — or
    ``None``, to sample afresh, when either size is unknown."""
    if nbytes is None or entry is None or entry[0] != before:
        return None
    return after, entry[1] + nbytes * added // len(rows)


def _partition_size(state, partition_index: int, rows) -> int:
    """``state``'s memoized wire size of one partition holding ``rows``,
    sampled when the memo is stale."""
    key = (state.versions[partition_index], len(rows))
    entry = state._size_cache[partition_index]
    if entry is not None and entry[0] == key:
        return entry[1]
    size = rows_size(rows) if key[1] else 0
    state._size_cache[partition_index] = (key, size)
    return size


class SetRDD:
    """Per-partition insertion-ordered hash sets with fused
    union+difference.

    A partition is a ``dict[tuple, None]``: a set whose iteration order
    is the order its rows were added, so every reader — the fixpoint's
    state tables, ``collect`` and the final select — walks the rows in
    the order they were built (in memory, too), not in hash order.
    """

    #: Between version bumps a partition only ever grows, by exactly the
    #: fresh rows its merges return (what lets a cached state table be
    #: extended instead of rebuilt).
    append_only = True

    def __init__(self, num_partitions: int, partitioner: HashPartitioner | None = None):
        self.partitions: list[dict[tuple, None]] = \
            [{} for _ in range(num_partitions)]
        self.partitioner = partitioner or HashPartitioner(num_partitions)
        self.versions: list[int] = [0] * num_partitions
        #: Per partition ``((version, row count), wire size)`` or ``None``.
        self._size_cache: list[tuple[tuple[int, int], int] | None] = \
            [((0, 0), 0)] * num_partitions

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def union_in_place(self, partition_index: int, rows: Iterable[tuple],
                       nbytes: int | None = None) -> list[tuple]:
        """Insert rows into one partition; return those that were new.

        This is lines 14–16 of Algorithm 4 collapsed into one pass: the
        returned list is the new delta partition ``D``.  Pure append: the
        partition version is untouched (the row count records the growth).
        ``nbytes``, the wire size of ``rows`` when known, sizes the growth.
        """
        target = self.partitions[partition_index]
        fresh: list[tuple] = []
        for row in rows:
            if row not in target:
                target[row] = None
                fresh.append(row)
        if fresh:
            version = self.versions[partition_index]
            self._size_cache[partition_index] = _grown(
                self._size_cache[partition_index],
                (version, len(target) - len(fresh)), (version, len(target)),
                len(fresh), rows, nbytes)
        return fresh

    merge_rows = union_in_place

    def snapshot_partition(self, partition_index: int) -> dict[tuple, None]:
        """Copy one partition's state for fault recovery.

        Taken by the cluster before a stage that mutates this partition;
        the pre-iteration copy plays the role of the cached all-relation
        "checkpoint" of Section 6.1.
        """
        return dict(self.partitions[partition_index])

    def restore_partition(self, partition_index: int,
                          saved: dict[tuple, None]) -> None:
        """Reset one partition to a previously-snapshotted state."""
        self.partitions[partition_index] = dict(saved)
        self.versions[partition_index] += 1
        self._size_cache[partition_index] = None

    def replace_partition(self, partition_index: int,
                          rows: dict[tuple, None]) -> None:
        """Install a whole new partition (immutability ablation, decomposed
        write-back, collect from the pool)."""
        self.partitions[partition_index] = rows
        self.versions[partition_index] += 1
        self._size_cache[partition_index] = None

    def clear_partition(self, partition_index: int) -> None:
        self.replace_partition(partition_index, {})

    def dump_state(self) -> dict:
        """Whole-state dump for durable checkpoints (pickle-friendly)."""
        return {"kind": "set",
                "partitions": [list(p) for p in self.partitions]}

    def load_state(self, dumped: dict) -> None:
        """Restore a :meth:`dump_state` payload into this RDD.

        Goes through :meth:`replace_partition`, so versions bump and the
        kernel layer's cached derivatives invalidate — a resumed fixpoint
        rebuilds its build tables instead of trusting cold caches.  Rows
        come back in their dumped order.
        """
        if dumped.get("kind") != "set" or \
                len(dumped["partitions"]) != self.num_partitions:
            raise ValueError("checkpoint state does not match this SetRDD")
        for index, rows in enumerate(dumped["partitions"]):
            self.replace_partition(index, dict.fromkeys(rows))

    def num_rows(self) -> int:
        return sum(len(p) for p in self.partitions)

    def partition_rows(self, partition_index: int) -> list[tuple]:
        return list(self.partitions[partition_index])

    def collect(self) -> list[tuple]:
        out: list[tuple] = []
        for partition in self.partitions:
            out.extend(partition)
        return out

    def partition_size_bytes(self, partition_index: int) -> int:
        """Wire-size estimate of one partition (memory accounting).

        Memoized on ``(version, row count)`` and grown by each sized merge
        (:func:`_grown`): the memory manager re-charges every cached
        partition per stage, and most partitions are quiescent in any
        given iteration.
        """
        return _partition_size(self, partition_index,
                               self.partitions[partition_index])

    def size_bytes(self) -> int:
        return sum(self.partition_size_bytes(i)
                   for i in range(self.num_partitions))


class KeyedStateRDD:
    """Per-partition ``{group key: head row}`` state.

    A stored row is the view's own head row carrying the group's current
    totals, keyed by its columns at ``group_positions`` (a scalar for one
    position, a tuple otherwise — :func:`~repro.engine.kernels.
    make_extractor`); ``aggregates`` holds one :class:`AggregateFunction`
    per column of ``aggregate_positions``.  Every head column is one or
    the other.  The *delta* row a merge returns has the same shape: for
    ``min``/``max`` it is the stored row itself, for ``sum``/``count`` it
    carries the increment where the stored row carries the total.

    A head with one builtin aggregate merges through the unrolled loop
    of :mod:`repro.engine.kernels`; the generic
    :class:`AggregateFunction` dispatch of :mod:`repro.engine.aggregates`
    is the only path for multi-aggregate heads and custom aggregate
    clones.
    """

    append_only = False

    def __init__(self, num_partitions: int,
                 aggregates: tuple[AggregateFunction, ...],
                 partitioner: HashPartitioner | None = None,
                 group_positions: tuple[int, ...] = (0,),
                 aggregate_positions: tuple[int, ...] = (1,)):
        self.partitions: list[dict] = [{} for _ in range(num_partitions)]
        self.partitioner = partitioner or HashPartitioner(num_partitions)
        self.versions: list[int] = [0] * num_partitions
        #: Per partition ``((version, row count), wire size)`` or ``None``.
        self._size_cache: list[tuple[tuple[int, int], int] | None] = \
            [((0, 0), 0)] * num_partitions
        self.key_of = make_extractor(group_positions)
        generic = dict(key_of=self.key_of, positions=aggregate_positions,
                       aggregates=aggregates)
        layout = (aggregates, group_positions, aggregate_positions)
        self._merge_columns = make_merge_columns_kernel(*layout)
        self._merge = (make_merge_rows_kernel(*layout)
                       or partial(reference.merge_rows, **generic))
        #: The generic map-side combine of head rows under this state's
        #: layout (``Partial_Aggregate``, Algorithm 5 line 5): rows ->
        #: rows.  Heads the templates cover fold through
        #: ``kernels.make_fold_kernel`` instead (``iteration.make_sink``).
        self.fold = partial(reference.partial_aggregate, **generic)

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def _touch(self, partition_index: int) -> None:
        """Invalidate cached derivatives after a state change."""
        self.versions[partition_index] += 1
        self._size_cache[partition_index] = None

    def merge_rows(self, partition_index: int, rows: Iterable[tuple],
                   nbytes: int | None = None) -> list[tuple]:
        """Merge head rows into one partition; return the delta rows.

        The Reduce stage of Algorithm 5: a row enters the delta when its
        group is new or an aggregate changed.  For ``min``/``max`` the
        delta row is the improved stored row; for ``sum``/``count`` it
        carries the *increments*, which is what downstream linear
        recursion must propagate (see ``repro.engine.aggregates``).
        ``nbytes``, the wire size of ``rows`` when known, sizes the new
        groups; an improved group keeps its row's size.
        """
        partition = self.partitions[partition_index]
        held = len(partition)
        fresh = self._merge(partition, rows)
        if fresh:
            version = self.versions[partition_index]
            self.versions[partition_index] = version + 1
            self._size_cache[partition_index] = _grown(
                self._size_cache[partition_index], (version, held),
                (version + 1, len(partition)), len(partition) - held, rows,
                nbytes)
        return fresh

    # Unreferenced by the product path; pinned for benchmarks/e2e/micro.py.
    def merge_rows_batch(self, partition_index: int, batch) -> list[tuple]:
        """:meth:`merge_rows` over a :class:`~repro.engine.columnar.
        ColumnBatch`, walking its parallel columns."""
        if self._merge_columns is None:
            return self.merge_rows(partition_index, zip(*batch.columns))
        fresh = self._merge_columns(self.partitions[partition_index],
                                    batch.columns)
        if fresh:
            self._touch(partition_index)
        return fresh

    def snapshot_partition(self, partition_index: int) -> dict:
        """Copy one partition's state for fault recovery (see SetRDD)."""
        return dict(self.partitions[partition_index])

    def restore_partition(self, partition_index: int, saved: dict) -> None:
        """Reset one partition to a previously-snapshotted state."""
        self.partitions[partition_index] = dict(saved)
        self._touch(partition_index)

    def replace_partition(self, partition_index: int, state: dict) -> None:
        """Install a whole new partition (decomposed-plan write-back)."""
        self.partitions[partition_index] = state
        self._touch(partition_index)

    def clear_partition(self, partition_index: int) -> None:
        self.replace_partition(partition_index, {})

    def dump_state(self) -> dict:
        """Whole-state dump for durable checkpoints (pickle-friendly).

        Partitions are dumped as row lists in dict order, which
        :meth:`load_state` re-keys in that order, so a restored partition
        replays :meth:`partition_rows` exactly like the original —
        accumulating aggregates fold identically on resume.
        """
        return {"kind": "keyed-rows",
                "partitions": [self.partition_rows(i)
                               for i in range(self.num_partitions)]}

    def load_state(self, dumped: dict) -> None:
        """Restore a :meth:`dump_state` payload (see ``SetRDD.load_state``).

        The pre-row-layout ``"keyed"`` dumps held ``{key: value tuple}``
        fragments; installing those where rows are expected would corrupt
        the state silently, so they are refused.
        """
        if dumped.get("kind") == "keyed":
            raise CheckpointError(
                "checkpoint holds keyed state in the retired {key: values} "
                "layout; it cannot be resumed by this version")
        if dumped.get("kind") != "keyed-rows" or \
                len(dumped["partitions"]) != self.num_partitions:
            raise ValueError("checkpoint state does not match this KeyedStateRDD")
        key_of = self.key_of
        for index, rows in enumerate(dumped["partitions"]):
            self.replace_partition(index, {key_of(row): row for row in rows})

    def partition_rows(self, partition_index: int) -> list[tuple]:
        """The stored rows of one partition, in dict order."""
        return list(self.partitions[partition_index].values())

    def collect(self) -> list[tuple]:
        out: list[tuple] = []
        for partition in self.partitions:
            out.extend(partition.values())
        return out

    def partition_size_bytes(self, partition_index: int) -> int:
        """Wire-size estimate of one partition (memory accounting; see
        :meth:`SetRDD.partition_size_bytes`)."""
        return _partition_size(self, partition_index,
                               self.partitions[partition_index].values())

    def size_bytes(self) -> int:
        return sum(self.partition_size_bytes(i)
                   for i in range(self.num_partitions))
