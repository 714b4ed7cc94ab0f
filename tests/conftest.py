"""Shared fixtures, and the hot path's naive twins.

The fixpoint hot path has one implementation, the specialised loops of
``repro.engine.kernels``.  Their naive twins live here, under test, not
in the product: :func:`reference_router` (one ``partition_of`` call per
row) and :func:`generic_loops`, which switches the kernel templates off
so every head merges, folds and routes through the generic
``AggregateFunction`` dispatch the product keeps for multi-aggregate
heads and custom aggregate clones (the ``kernels_off`` axis of the
parametrised suites).
"""

import os

import pytest

from repro.core import fixpoint, iteration, planner
from repro.engine import setrdd
from repro.engine.kernels import make_extractor
from repro.engine.partitioner import HashPartitioner


def seeds(default: str) -> list[int]:
    """A seeded suite's seeds: ``RASQL_SEEDS`` (comma-separated; the one
    knob, CI's ``marker-suites`` rows set it) or the suite's ``default``."""
    return [int(s) for s in os.environ.get("RASQL_SEEDS", default).split(",")]


def reference_router(key_positions: tuple[int, ...], n: int):
    """``kernels.make_router``'s naive twin: one ``partition_of`` call per
    row, same bucket lists."""
    key_fn = make_extractor(key_positions)
    partition_of = HashPartitioner(n).partition_of

    def route(rows):
        buckets: list[list[tuple]] = [[] for _ in range(n)]
        for row in rows:
            buckets[partition_of(key_fn(row))].append(row)
        return buckets

    return route


def generic_loops(monkeypatch) -> None:
    """Run the engine with the kernel templates off for one test: states
    merge through ``aggregates.merge_rows``, sinks combine through
    ``aggregates.partial_aggregate`` (so no term is generated as the fold
    variant) and every shuffle and base side routes through
    :func:`reference_router`.  Driver-side only: pool workers never see
    the patch."""
    monkeypatch.setattr(setrdd, "make_merge_rows_kernel", lambda *_: None)
    monkeypatch.setattr(iteration, "make_fold_kernel", lambda *_: None)
    monkeypatch.setattr(planner, "head_shape", lambda view: None)
    monkeypatch.setattr(iteration, "make_router", reference_router)
    monkeypatch.setattr(fixpoint, "make_router", reference_router)


def generic_state(num_partitions: int, aggregates, **layout):
    """A :class:`~repro.engine.setrdd.KeyedStateRDD` that merges through
    the generic dispatch whatever its head."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(setrdd, "make_merge_rows_kernel", lambda *_: None)
        patch.setattr(setrdd, "make_merge_columns_kernel", lambda *_: None)
        return setrdd.KeyedStateRDD(num_partitions, aggregates, **layout)


@pytest.fixture
def generic_side(monkeypatch):
    """Wrap a differential's ``make_context``: a side made with
    ``generic=True`` runs with the kernel templates off
    (:func:`generic_loops`) until the next side is made — the oracle has
    finished by then — or the test ends.  It owns the test's
    ``monkeypatch``: making a side undoes every patch."""

    def wrap(make_context):
        def make(generic=False, **side):
            monkeypatch.undo()
            if generic:
                generic_loops(monkeypatch)
            return make_context(**side)

        return make

    return wrap
