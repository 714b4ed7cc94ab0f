"""Microbenchmarks of the hot-path primitives, row form vs columnar form.

Each primitive runs on a fixed sample of the workload's own edge table
(the first ``SAMPLE_ROWS`` rows), hash-partitioned two ways like the
workloads themselves, and reports million rows per second — the
per-operator table ROADMAP item 2 needs to decide which representation
each operator keeps.  Inputs are rebuilt outside the timed region; every
figure is the median over the passes.
"""

from __future__ import annotations

import gc
import statistics
import time

from repro.engine.aggregates import BY_NAME
from repro.engine.columnar import ColumnBatch
from repro.engine.joins import build_hash_table, build_hash_table_columns
from repro.engine.kernels import (
    batch_hash_probe,
    hash_probe_join,
    make_extractor,
    make_router,
)
from repro.engine.serialization import dump_payload, load_payload
from repro.engine.setrdd import KeyedStateRDD, SetRDD

SAMPLE_ROWS = 200_000
PARTITIONS = 2
#: A primitive is re-run until it has this many passes *and* this much
#: measured time, so the 3.6k-row serving table is not timed in one
#: sub-millisecond pass.
MIN_PASSES = 3
MIN_SECONDS = 0.05


def _rate(rows: int, prepare, run) -> float:
    """Median Mrows/s of ``run(prepare())`` over the passes."""
    rates = []
    spent = 0.0
    while len(rates) < MIN_PASSES or spent < MIN_SECONDS:
        argument = prepare()
        start = time.perf_counter()
        run(argument)
        elapsed = time.perf_counter() - start
        spent += elapsed
        rates.append(rows / elapsed / 1e6)
    return statistics.median(rates)


def run(edge_rows: list[tuple]) -> dict[str, float]:
    """All primitive metrics for one edge table; names as in ``spec``."""
    sample = edge_rows[:SAMPLE_ROWS]
    n = len(sample)
    # (key, value) head rows like cc's / sssp's deltas: (Dst, Src).
    pairs = [(row[1], row[0]) for row in sample]
    key0 = make_extractor((0,))
    out: dict[str, float] = {}
    gc.collect()
    gc.disable()
    try:
        # -- shuffle routing -------------------------------------------
        router = make_router((0,), PARTITIONS)
        out["engine.kernels.route_mrows_s"] = _rate(
            n, lambda: sample, router)
        out["engine.columnar.from_rows_mrows_s"] = _rate(
            n, lambda: sample, ColumnBatch.from_rows)
        batch = ColumnBatch.from_rows(sample)
        out["engine.columnar.route_mrows_s"] = _rate(
            n, lambda: batch, lambda b: b.route((0,), PARTITIONS))

        # -- join build / probe ----------------------------------------
        out["engine.joins.build_mrows_s"] = _rate(
            n, lambda: sample, lambda rows: build_hash_table(rows, key0))
        keys = batch.keys((0,))
        out["engine.joins.build_columns_mrows_s"] = _rate(
            n, lambda: sample,
            lambda rows: build_hash_table_columns(keys, rows))
        # One probe row per distinct source, as cc's base delta has: the
        # join emits every sampled edge once, and the rate counts emitted
        # rows (the output dominates a probe's cost).
        table = build_hash_table(sample, key0)
        probes = [(src, src) for src in table]
        probe_keys = [row[0] for row in probes]

        def combine(probe, build):
            return (build[1], probe[1])

        out["engine.kernels.probe_mrows_s"] = _rate(
            n, lambda: probes,
            lambda rows: hash_probe_join(rows, table, key0, combine))
        out["engine.kernels.batch_probe_mrows_s"] = _rate(
            n, lambda: probes,
            lambda rows: batch_hash_probe(probe_keys, rows, table, combine))

        # -- state merge (min) and set union ---------------------------
        aggregates = (BY_NAME["min"],)
        pair_buckets = router(pairs)
        pair_batches = [ColumnBatch.from_rows(bucket)
                        for bucket in pair_buckets]

        def merge_rows(state):
            for index, bucket in enumerate(pair_buckets):
                state.merge_rows(index, bucket)

        def merge_batch(state):
            for index, bucket in enumerate(pair_batches):
                state.merge_rows_batch(index, bucket)

        def fresh_state():
            return KeyedStateRDD(PARTITIONS, aggregates)

        out["engine.setrdd.merge_rows_mrows_s"] = _rate(
            n, fresh_state, merge_rows)
        out["engine.setrdd.merge_batch_mrows_s"] = _rate(
            n, fresh_state, merge_batch)
        edge_buckets = router([row[:2] for row in sample])

        def union(target):
            for index, bucket in enumerate(edge_buckets):
                target.union_in_place(index, bucket)

        out["engine.setrdd.union_mrows_s"] = _rate(
            n, lambda: SetRDD(PARTITIONS), union)

        # -- wire formats ----------------------------------------------
        # encode() caches its bytes on the batch, so each pass gets a
        # batch that has never been encoded.
        out["engine.columnar.encode_mrows_s"] = _rate(
            n, lambda: ColumnBatch.from_rows(sample), ColumnBatch.encode)
        wire = batch.encode()
        out["engine.columnar.decode_mrows_s"] = _rate(
            n, lambda: wire, ColumnBatch.decode)
        out["engine.columnar.wire_bytes_per_row"] = len(wire) / n
        out["engine.serialization.dump_mrows_s"] = _rate(
            n, lambda: sample, dump_payload)
        pickled = dump_payload(sample)
        out["engine.serialization.load_mrows_s"] = _rate(
            n, lambda: pickled, load_payload)
        out["engine.serialization.pickle_bytes_per_row"] = len(pickled) / n
    finally:
        gc.enable()
    return out
