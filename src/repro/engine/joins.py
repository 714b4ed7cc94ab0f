"""Partition-local join kernels (Appendix D, Section 7.2).

These run inside stage tasks; the distributed choreography (co-partitioning,
broadcast, shuffle) lives in the fixpoint operator and planner.  Three
kernels mirror the paper's join menu:

- *hash join* — build a table on one side, probe with the other.  In the
  fixpoint the base relation is always the build side, built once and cached
  across iterations (Appendix D's rationale: the delta is usually larger,
  and a cached build amortizes to ~zero).
- *sort-merge join* — sorts both inputs, merges sorted runs; the base side's
  sorted run can likewise be cached.  Slower than a cached hash probe but
  uses less memory (Figure 11).
- *nested-loop join* — the fallback for non-equi predicates (Interval
  Coalesce joins on ``coal.S <= inter.S AND inter.S <= coal.E``).

The interpreted pipeline (``ExecutionConfig.codegen=False``) joins
through the functions below; generated terms inline the same probe, and
the ``kernels`` differential suite pins the two to bit-exact results.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence


def build_hash_table(rows: Iterable[tuple],
                     key_fn: Callable[[tuple], object]) -> dict:
    """Build ``{key: [rows]}`` for the build side of a hash join."""
    table: dict = {}
    for row in rows:
        key = key_fn(row)
        bucket = table.get(key)
        if bucket is None:
            table[key] = [row]
        else:
            bucket.append(row)
    return table


def build_hash_table_columns(keys: Iterable, rows: Iterable) -> dict:
    """Columnar build: parallel key column instead of per-row ``key_fn``.

    ``{key: [rows]}`` with buckets in input order — entry-for-entry
    identical to :func:`build_hash_table` when ``keys`` is the column the
    key function would have extracted (e.g. ``ColumnBatch.keys(...)``).
    ``rows`` may be any parallel sequence of values to store: a pruned
    base side (``physical.build_base_side``) passes the columns its
    pipeline reads instead of the rows.
    """
    table: dict = {}
    for key, row in zip(keys, rows):
        bucket = table.get(key)
        if bucket is None:
            table[key] = [row]
        else:
            bucket.append(row)
    return table


def hash_join_probe(probe_rows: Iterable[tuple],
                    probe_key_fn: Callable[[tuple], object],
                    table: dict,
                    combine: Callable[[tuple, tuple], object]) -> list:
    """Probe a prebuilt hash table; ``combine(probe, build)`` shapes output.

    ``combine`` may return ``None`` to drop a pair (fused residual filter).
    """
    out: list = []
    append = out.append
    for probe in probe_rows:
        bucket = table.get(probe_key_fn(probe))
        if bucket is None:
            continue
        for build in bucket:
            result = combine(probe, build)
            if result is not None:
                append(result)
    return out


def sort_rows(rows: Iterable[tuple], key_fn: Callable[[tuple], object]) -> list[tuple]:
    """Sort rows by join key; exposed so the base side can be cached sorted."""
    return sorted(rows, key=key_fn)


def sort_merge_join(left_sorted: Sequence[tuple], right_sorted: Sequence[tuple],
                    left_key_fn: Callable[[tuple], object],
                    right_key_fn: Callable[[tuple], object],
                    combine: Callable[[tuple, tuple], object]) -> list:
    """Merge two key-sorted runs, emitting combined matches.

    Both inputs must already be sorted by their key (see :func:`sort_rows`).
    Handles duplicate keys on both sides (full cross product per key group).
    """
    out: list = []
    append = out.append
    i, j = 0, 0
    n, m = len(left_sorted), len(right_sorted)
    while i < n and j < m:
        lk = left_key_fn(left_sorted[i])
        rk = right_key_fn(right_sorted[j])
        if lk < rk:
            i += 1
        elif rk < lk:
            j += 1
        else:
            # Collect the key group on each side, emit the cross product.
            i_end = i
            while i_end < n and left_key_fn(left_sorted[i_end]) == lk:
                i_end += 1
            j_end = j
            while j_end < m and right_key_fn(right_sorted[j_end]) == rk:
                j_end += 1
            for left_row in left_sorted[i:i_end]:
                for right_row in right_sorted[j:j_end]:
                    result = combine(left_row, right_row)
                    if result is not None:
                        append(result)
            i, j = i_end, j_end
    return out


def nested_loop_join(left_rows: Iterable[tuple], right_rows: Sequence[tuple],
                     predicate: Callable[[tuple, tuple], bool],
                     combine: Callable[[tuple, tuple], object]) -> list:
    """Theta join fallback: test every pair against ``predicate``."""
    out: list = []
    append = out.append
    for left_row in left_rows:
        for right_row in right_rows:
            if predicate(left_row, right_row):
                result = combine(left_row, right_row)
                if result is not None:
                    append(result)
    return out
