"""SetRDD — the mutable *all*-relation state of Section 6.1.

Spark RDDs are immutable, so each union/set-difference copies the whole
relation; the paper replaces the all-RDD with an append-only per-partition
hash set that supports in-place union.  We reproduce both flavours:

- :class:`SetRDD` for recursion without aggregates (REACH, TC, SG): each
  partition is a Python ``set`` of rows; ``union_in_place`` inserts the delta
  and returns only the genuinely new rows (set difference fused with union,
  as in the Reduce stage of Algorithm 4).
- :class:`KeyedStateRDD` for aggregates-in-recursion (CC, SSSP, BOM, ...):
  each partition is a dict from group key to the current aggregate value
  tuple; merging applies the monotonic aggregate logic of Algorithm 5
  (insert new keys, improve existing ones, emit the delta).

Both structures are deliberately *not* Datasets: they are long-lived mutable
state cached on workers for the whole fixpoint, exactly like the paper's
cached SetRDD partitions.

Both also carry a per-partition *version* counter, bumped whenever a
partition changes other than by pure append (restore after a fault,
wholesale replacement, an aggregate-value improvement).  Versions let the
fixpoint's kernel layer validate cached derivatives — hash-join build
tables, materialized row lists, memoized wire sizes — with an O(1) check
instead of a rebuild: a ``(version, row count)`` pair pins append-only
growth exactly, because appends change the count and everything else
changes the version.
"""

from __future__ import annotations

from typing import Iterable

from repro.engine.aggregates import AggregateFunction, merge_columns
from repro.engine.kernels import (make_merge_columns_kernel,
                                  make_merge_kernel, make_merge_rows_kernel)
from repro.engine.partitioner import HashPartitioner
from repro.engine.serialization import rows_size


class SetRDD:
    """Per-partition hash sets with fused union+difference."""

    def __init__(self, num_partitions: int, partitioner: HashPartitioner | None = None):
        self.partitions: list[set[tuple]] = [set() for _ in range(num_partitions)]
        self.partitioner = partitioner or HashPartitioner(num_partitions)
        self.versions: list[int] = [0] * num_partitions
        self._size_cache: list[tuple[tuple[int, int], int] | None] = \
            [None] * num_partitions

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def union_in_place(self, partition_index: int,
                       rows: Iterable[tuple]) -> list[tuple]:
        """Insert rows into one partition; return those that were new.

        This is lines 14–16 of Algorithm 4 collapsed into one pass: the
        returned list is the new delta partition ``D``.  Pure append: the
        partition version is untouched (the row count records the growth).
        """
        target = self.partitions[partition_index]
        fresh: list[tuple] = []
        for row in rows:
            if row not in target:
                target.add(row)
                fresh.append(row)
        return fresh

    def contains(self, partition_index: int, row: tuple) -> bool:
        return row in self.partitions[partition_index]

    def snapshot_partition(self, partition_index: int) -> set[tuple]:
        """Copy one partition's state for fault recovery.

        Taken by the cluster before a stage that mutates this partition;
        the pre-iteration copy plays the role of the cached all-relation
        "checkpoint" of Section 6.1.
        """
        return set(self.partitions[partition_index])

    def restore_partition(self, partition_index: int,
                          saved: set[tuple]) -> None:
        """Reset one partition to a previously-snapshotted state."""
        self.partitions[partition_index] = set(saved)
        self.versions[partition_index] += 1
        self._size_cache[partition_index] = None

    def replace_partition(self, partition_index: int,
                          rows: set[tuple]) -> None:
        """Install a whole new partition (immutability ablation, gather)."""
        self.partitions[partition_index] = rows
        self.versions[partition_index] += 1
        self._size_cache[partition_index] = None

    def dump_state(self) -> dict:
        """Whole-state dump for durable checkpoints (pickle-friendly)."""
        return {"kind": "set",
                "partitions": [list(p) for p in self.partitions]}

    def load_state(self, dumped: dict) -> None:
        """Restore a :meth:`dump_state` payload into this RDD.

        Goes through :meth:`restore_partition`, so versions bump and the
        kernel layer's cached derivatives invalidate — a resumed fixpoint
        rebuilds its build tables instead of trusting cold caches.
        """
        if dumped.get("kind") != "set" or \
                len(dumped["partitions"]) != self.num_partitions:
            raise ValueError("checkpoint state does not match this SetRDD")
        for index, rows in enumerate(dumped["partitions"]):
            self.restore_partition(index, set(rows))

    def num_rows(self) -> int:
        return sum(len(p) for p in self.partitions)

    def collect(self) -> list[tuple]:
        out: list[tuple] = []
        for partition in self.partitions:
            out.extend(partition)
        return out

    def partition_size_bytes(self, partition_index: int) -> int:
        """Wire-size estimate of one partition (memory accounting).

        Memoized on ``(version, row count)``: the memory manager re-charges
        every cached partition per stage, and most partitions are quiescent
        in any given iteration.
        """
        partition = self.partitions[partition_index]
        key = (self.versions[partition_index], len(partition))
        entry = self._size_cache[partition_index]
        if entry is not None and entry[0] == key:
            return entry[1]
        size = rows_size(partition)
        self._size_cache[partition_index] = (key, size)
        return size

    def size_bytes(self) -> int:
        return sum(self.partition_size_bytes(i)
                   for i in range(self.num_partitions))


class KeyedStateRDD:
    """Per-partition ``{group key: aggregate values}`` state.

    ``aggregates`` holds one :class:`AggregateFunction` per value column.
    A *row* of this state is ``key_columns + value_columns``; helpers exist
    to reassemble full rows for the final result and for joins against the
    all-relation (the cross terms of mutual recursion).

    With ``use_kernels`` (the default), single-aggregate merges run through
    the unrolled loops of :mod:`repro.engine.kernels`; the generic
    :class:`AggregateFunction` dispatch below remains the bit-exact
    reference path (``ExecutionConfig.kernels=False``) and the only path
    for multi-aggregate states.
    """

    def __init__(self, num_partitions: int,
                 aggregates: tuple[AggregateFunction, ...],
                 partitioner: HashPartitioner | None = None,
                 use_kernels: bool = True):
        self.partitions: list[dict] = [{} for _ in range(num_partitions)]
        self.aggregates = aggregates
        self.partitioner = partitioner or HashPartitioner(num_partitions)
        self.versions: list[int] = [0] * num_partitions
        self._rows_cache: list[tuple[int, list[tuple]] | None] = \
            [None] * num_partitions
        self._size_cache: list[tuple[int, int] | None] = [None] * num_partitions
        self._merge_kernel = make_merge_kernel(aggregates) if use_kernels else None
        self._merge_rows_kernel = \
            make_merge_rows_kernel(aggregates) if use_kernels else None
        self._merge_columns_kernel = \
            make_merge_columns_kernel(aggregates) if use_kernels else None

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def _touch(self, partition_index: int) -> None:
        """Invalidate cached derivatives after a state change."""
        self.versions[partition_index] += 1
        self._rows_cache[partition_index] = None
        self._size_cache[partition_index] = None

    def merge(self, partition_index: int,
              pairs: Iterable[tuple[object, tuple]]) -> list[tuple[object, tuple]]:
        """Merge ``(key, values)`` contributions; return the delta pairs.

        Implements the Reduce stage of Algorithm 5 generalized to a tuple of
        aggregate columns: a pair enters the delta when its key is new or
        when at least one aggregate value changed.  For ``min``/``max`` the
        delta carries the improved totals; for ``sum``/``count`` it carries
        the *increments*, which is what downstream linear recursion must
        propagate (see ``repro.engine.aggregates``).
        """
        kernel = self._merge_kernel
        if kernel is not None:
            delta = kernel(self.partitions[partition_index], pairs)
            if delta:
                self._touch(partition_index)
            return delta
        state = self.partitions[partition_index]
        aggregates = self.aggregates
        delta: list[tuple[object, tuple]] = []
        if len(aggregates) == 1:
            # Hot path: every library query has a single aggregate column.
            agg_merge = aggregates[0].merge
            agg_insert = aggregates[0].delta_for_insert
            for key, values in pairs:
                current = state.get(key)
                if current is None:
                    state[key] = values
                    delta.append((key, (agg_insert(values[0]),)))
                    continue
                merged, changed, delta_value = agg_merge(current[0], values[0])
                if changed:
                    state[key] = (merged,)
                    delta.append((key, (delta_value,)))
            if delta:
                self._touch(partition_index)
            return delta
        for key, values in pairs:
            current = state.get(key)
            if current is None:
                state[key] = tuple(values)
                delta.append((key, tuple(
                    agg.delta_for_insert(v) for agg, v in zip(aggregates, values))))
                continue
            changed = False
            new_state = []
            delta_values = []
            for agg, old, new in zip(aggregates, current, values):
                merged, did_change, delta_value = agg.merge(old, new)
                new_state.append(merged)
                delta_values.append(delta_value)
                changed = changed or did_change
            if changed:
                state[key] = tuple(new_state)
                delta.append((key, tuple(delta_values)))
        if delta:
            self._touch(partition_index)
        return delta

    def merge_rows(self, partition_index: int,
                   rows: Iterable[tuple]) -> list[tuple]:
        """Merge two-column ``(key, value)`` head rows; return delta rows.

        Fuses the ``rows -> pairs -> merge -> rows`` chain the fixpoint's
        two-column fast path otherwise spells out (one intermediate list on
        each side of :meth:`merge`).  Only valid for single-aggregate
        states with scalar keys — the shape of every two-column head.
        """
        kernel = self._merge_rows_kernel
        if kernel is not None:
            fresh = kernel(self.partitions[partition_index], rows)
            if fresh:
                self._touch(partition_index)
            return fresh
        delta = self.merge(partition_index,
                           [(row[0], row[1:]) for row in rows])
        return [(key, values[0]) for key, values in delta]

    # Unreferenced by the product path; pinned for benchmarks/e2e/micro.py.
    def merge_rows_batch(self, partition_index: int, batch) -> list[tuple]:
        """Merge a two-column :class:`~repro.engine.columnar.ColumnBatch`.

        Columnar entry point for the same contract as :meth:`merge_rows`:
        the batch's parallel key/value columns feed the merge loop
        directly — no per-row ``row[0]``/``row[1]`` indexing, no tuple
        materialization for rows that do not improve the state.  Kernel
        for the builtin aggregates, generic single-aggregate dispatch
        otherwise, row-path fallback for shapes batches never take.
        """
        if batch.arity == 2:
            keys, values = batch.columns
            kernel = self._merge_columns_kernel
            if kernel is not None:
                fresh = kernel(self.partitions[partition_index], keys, values)
                if fresh:
                    self._touch(partition_index)
                return fresh
            if len(self.aggregates) == 1:
                fresh = merge_columns(self.partitions[partition_index],
                                      keys, values, self.aggregates[0])
                if fresh:
                    self._touch(partition_index)
                return fresh
        return self.merge_rows(partition_index, batch.to_rows())

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

    def dump_state(self) -> dict:
        """Whole-state dump for durable checkpoints (pickle-friendly).

        Dict insertion order is preserved by pickling, so a restored
        partition replays :meth:`partition_rows` in the same order as the
        original — accumulating aggregates fold identically on resume.
        """
        return {"kind": "keyed",
                "partitions": [dict(p) for p in self.partitions]}

    def load_state(self, dumped: dict) -> None:
        """Restore a :meth:`dump_state` payload (see ``SetRDD.load_state``)."""
        if dumped.get("kind") != "keyed" or \
                len(dumped["partitions"]) != self.num_partitions:
            raise ValueError("checkpoint state does not match this KeyedStateRDD")
        for index, state in enumerate(dumped["partitions"]):
            self.restore_partition(index, state)

    def num_groups(self) -> int:
        return sum(len(p) for p in self.partitions)

    def collect_rows(self) -> list[tuple]:
        """All groups as full ``key + values`` rows."""
        out: list[tuple] = []
        for i in range(self.num_partitions):
            out.extend(self.partition_rows(i))
        return out

    def partition_rows(self, partition_index: int) -> list[tuple]:
        """Full rows of one partition (used for all-relation cross joins).

        Memoized per version: joins against the all-relation re-read the
        same quiescent partitions every iteration.  Callers must treat the
        returned list as read-only.
        """
        cached = self._rows_cache[partition_index]
        version = self.versions[partition_index]
        if cached is not None and cached[0] == version:
            return cached[1]
        out = []
        for key, values in self.partitions[partition_index].items():
            key_part = key if isinstance(key, tuple) else (key,)
            out.append(key_part + tuple(values))
        self._rows_cache[partition_index] = (version, out)
        return out

    def partition_size_bytes(self, partition_index: int) -> int:
        """Wire-size estimate of one partition (memory accounting)."""
        cached = self._size_cache[partition_index]
        version = self.versions[partition_index]
        if cached is not None and cached[0] == version:
            return cached[1]
        size = rows_size(self.partition_rows(partition_index))
        self._size_cache[partition_index] = (version, size)
        return size

    def size_bytes(self) -> int:
        return sum(self.partition_size_bytes(i)
                   for i in range(self.num_partitions))
