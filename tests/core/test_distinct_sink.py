"""A set view's distinct sink (DESIGN.md §20).

A view without aggregates is a set: its ``UNION`` is a ``DISTINCT``, the
partial aggregate of Algorithm 5, line 5.  Its generated recursive and
base terms write each derived row into ``{head row: None}`` from inside
their probe loop, and the view's router buckets the keys, so a row
derived twice is routed, size-accounted and shipped once.  Pins:

- *property*: the sink + ``emit`` is, bucket for bucket and in order,
  ``router(list(dict.fromkeys(list-body rows)))`` — two terms sharing one
  sink, a term that returns rows meeting it, and the constant rows of a
  FROM-less base rule — with the very row objects of the first
  occurrences, over values mixing ``1`` / ``1.0`` / ``True``, ``0.0`` /
  ``-0.0``, one shared and many distinct NaN objects, ``None`` and
  ``str``;
- *bare values*: a one-column set view's sink keeps bare values, ``{value:
  None}``, and its emit builds each ``(value,)`` as it routes it; that is,
  bucket for bucket and in order, the tuple-keyed sink plus the router,
  over the same value mixes, for generated terms, terms that return rows,
  constant base rows and ``decomposed.run_local_fixpoint``;
- *differential*: set-view queries over such graphs answer exactly as
  their ``partial_aggregation=False`` run — rows by ``repr`` and in
  order, iterations, ``delta_history`` and every ``SetRDD`` partition's
  row order — and ship no more records (``reach`` also with
  ``codegen=False``, whose terms return rows);
- *process backend*: ``reach`` on real workers is bit-exact with the
  simulated run, and every task ships.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionConfig, RaSQLContext
from repro.core.iteration import CliqueStep, nonempty
from repro.engine.backend.payloads import WireView
from repro.engine.kernels import make_router
from repro.queries.library import get_query
from tests.conftest import reference_router

NAN = float("nan")

#: Values a dict and the router see as one key (``1``, ``1.0``, ``True``;
#: ``0.0``, ``-0.0``, ``0``) or as many (NaN objects), plus ``None`` and
#: strings.
VALUES = st.one_of(
    st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, 2, 2.5, NAN,
                     None, "a", ""]),
    st.builds(float, st.just("nan")),  # a fresh NaN object per draw
)

rows_of = st.lists(st.tuples(VALUES, VALUES), max_size=30)


def set_view(key, group=()):
    """A set view; ``group`` is the view's columns (all of them are its
    group), which the sink reads its width from — left empty, the rows
    are keyed whole, as a view of several columns keys them."""
    return WireView(group_positions=group, aggregate_positions=(),
                    aggregate_names=(), partition_key_positions=key,
                    has_aggregates=False)


def distinct_term(rows):
    """What codegen emits for a set view, by hand: each derivation
    stored in the sink from inside the probe loop."""
    def evaluate(delta, partition, runtime, combined):
        for row in rows:
            combined[row] = None
    return evaluate


def list_term(rows):
    return lambda delta, partition, runtime: list(rows)


def derive(view, terms, n):
    step = CliqueStep({"v": view}, terms, n, True)
    step.fresh["v"][0] = [("delta",)]  # non-empty: every term runs
    return step.derive(0).get("v", {})


def shape(buckets):
    """``repr`` (types and order) and the identity of every row."""
    return repr(buckets), {pid: [id(row) for row in bucket]
                           for pid, bucket in buckets.items()}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("key", [(0,), (1,), (0, 1)])
@settings(max_examples=40, deadline=None)
@given(first=rows_of, second=rows_of, constants=rows_of)
def test_distinct_sink_and_emit_match_dedup_then_route(
        n, key, first, second, constants):
    view = set_view(key)
    fused = derive(view, [("v", "v", False, distinct_term(first), True),
                          ("v", "v", False, distinct_term(second), True)], n)
    # ... and a term that returns rows meets the same sink.
    mixed = derive(view, [("v", "v", False, distinct_term(first), True),
                          ("v", "v", False, list_term(second), False)], n)
    base = CliqueStep({"v": view}, [], n, True).derive_once("v", constants)
    for route in (make_router(key, n), reference_router(key, n)):
        expected = nonempty(route(list(dict.fromkeys(first + second))))
        assert shape(fused) == shape(mixed) == shape(expected)
        assert shape(base) == shape(
            nonempty(route(list(dict.fromkeys(constants)))))
    # The ablation's list sink ships every derivation.
    ablated = CliqueStep({"v": view}, [], n, False).derive_once(
        "v", constants)
    assert sum(map(len, ablated.values())) == len(constants)


# ----------------------------------------------------------------------
# a one-column set view keeps bare values
# ----------------------------------------------------------------------


def bare_term(values):
    """What codegen emits for a one-column set view: the bare value."""
    def evaluate(delta, partition, runtime, combined):
        for value in values:
            combined[value] = None
    return evaluate


def value_shape(buckets):
    """``repr`` (types and order) and the identity of every row's value:
    the first occurrence's object, whichever sink kept it."""
    return repr(buckets), {pid: [id(row[0]) for row in bucket]
                           for pid, bucket in buckets.items()}


values_of = st.lists(VALUES, max_size=30)


@pytest.mark.parametrize("n", [1, 2, 3])
@settings(max_examples=60, deadline=None)
@given(first=values_of, second=values_of, constants=values_of)
def test_bare_value_sink_emits_what_the_tuple_sink_and_router_do(
        n, first, second, constants):
    one_column, keyed_whole = set_view((0,), group=(0,)), set_view((0,))
    rows = [[(v,) for v in values] for values in (first, second, constants)]
    bare = derive(one_column,
                  [("v", "v", False, bare_term(first), True),
                   ("v", "v", False, bare_term(second), True)], n)
    # a term that returns rows (codegen off) meets the same sink
    mixed = derive(one_column,
                   [("v", "v", False, bare_term(first), True),
                    ("v", "v", False, list_term(rows[1]), False)], n)
    tupled = derive(keyed_whole,
                    [("v", "v", False, distinct_term(rows[0]), True),
                     ("v", "v", False, distinct_term(rows[1]), True)], n)
    assert value_shape(bare) == value_shape(mixed) == value_shape(tupled)
    assert value_shape(bare) == value_shape(nonempty(
        make_router((0,), n)(list(dict.fromkeys(rows[0] + rows[1])))))
    # constant base rows (``SELECT 0``) go through ``add``
    assert value_shape(CliqueStep({"v": one_column}, [], n,
                                  True).derive_once("v", rows[2])) \
        == value_shape(CliqueStep({"v": keyed_whole}, [], n,
                                  True).derive_once("v", rows[2]))


@settings(max_examples=40, deadline=None)
@given(steps=st.dictionaries(st.integers(0, 12),
                             st.lists(st.integers(0, 12), max_size=4)),
       start=st.lists(st.integers(0, 12), min_size=1, max_size=3))
def test_local_fixpoint_of_a_one_column_view_keeps_bare_values(steps, start):
    from repro.core.decomposed import run_local_fixpoint

    def term(bare):
        def evaluate(delta, partition, runtime, combined):
            for (vertex,) in delta:
                for nxt in steps.get(vertex, ()):
                    combined[nxt if bare else (nxt,)] = None
        return evaluate

    runs = [run_local_fixpoint([("v", "v", False, term(bare), True)], "v",
                               view, True, {}, [(v,) for v in start], 100)
            for bare, view in ((True, set_view((0,), group=(0,))),
                               (False, set_view((0,))))]
    assert repr(list(runs[0][0])) == repr(list(runs[1][0]))
    assert runs[0][1] == runs[1][1]


# ----------------------------------------------------------------------
# differential: the distinct sink vs the ablation's list sink
# ----------------------------------------------------------------------

QUERIES = {
    "reach": ("edge", get_query("reach").formatted(source=1),
              ExecutionConfig()),
    "reach/codegen_off": ("edge", get_query("reach").formatted(source=1),
                          ExecutionConfig(codegen=False)),
    "tc": ("edge", get_query("tc").sql, ExecutionConfig()),
    "tc/stacked": ("edge", get_query("tc").sql,
                   ExecutionConfig(decomposed_plans=False)),
    "same_generation": ("rel", get_query("same_generation").sql,
                        ExecutionConfig()),
}


def run_set_query(name, edges, n, partial_aggregation, monkeypatch):
    """Rows, iterations, delta history, the view's ``SetRDD`` partitions
    as the fixpoint left them, and the shuffle records shipped."""
    table, sql, config = QUERIES[name]
    states = []
    clear = CliqueStep.clear

    def keep_then_clear(step):
        states.append({view: [list(partition) for partition
                              in state.partitions]
                       for view, state in step.states.items()})
        clear(step)

    monkeypatch.setattr(CliqueStep, "clear", keep_then_clear)
    ctx = RaSQLContext(num_workers=n, config=config.but(
        partial_aggregation=partial_aggregation))
    columns = ("Parent", "Child") if table == "rel" else ("Src", "Dst")
    ctx.register_table(table, list(columns), edges)
    rows = ctx.sql(sql).rows
    run = ctx.last_run
    monkeypatch.undo()
    return ({"rows": repr(rows), "iterations": run.iterations,
             "delta_rows": run.delta_history, "states": repr(states)},
            run.metrics.get("shuffle_records", 0))


@pytest.mark.parametrize("name", sorted(QUERIES))
@settings(max_examples=15, deadline=None)
@given(edges=st.lists(st.tuples(VALUES, VALUES), max_size=25),
       n=st.integers(1, 3))
def test_set_views_answer_as_their_ablation(name, edges, n):
    with pytest.MonkeyPatch.context() as monkeypatch:
        fused, shipped = run_set_query(name, edges, n, True, monkeypatch)
        ablated, shipped_off = run_set_query(name, edges, n, False,
                                             monkeypatch)
    assert fused == ablated
    assert shipped <= shipped_off


def test_duplicate_derivations_are_shipped_once(monkeypatch):
    """Two paths into each vertex (``i + 2`` and ``i + 4``, from vertices
    of one partition): ``reach`` derives it twice per iteration and ships
    it once."""
    edges = [(i, i + step) for i in range(1, 40) for step in (2, 4)]
    fused, shipped = run_set_query("reach", edges, 2, True, monkeypatch)
    ablated, shipped_off = run_set_query("reach", edges, 2, False,
                                         monkeypatch)
    assert fused == ablated
    assert shipped < shipped_off


# ----------------------------------------------------------------------
# process backend: the sink runs on the workers
# ----------------------------------------------------------------------


@pytest.mark.process_backend
@pytest.mark.timeout(120)
def test_reach_on_pool_workers_equals_the_simulated_run():
    from repro.chaos import run_differential
    from tests.integration.test_chaos import (
        QUERY_SETUPS,
        make_context_factory,
    )

    report = run_differential(
        QUERY_SETUPS["reach"][1](), make_context_factory("reach"),
        subject={"config": ExecutionConfig(backend="process")})
    assert report.exact, report.summary()
    counters = report.counters
    assert counters["process_tasks_shipped"] > 0
    assert counters["process_tasks_driver_local"] == 0
    assert counters["process_remote_ineligible"] == 0
    assert counters["process_backend_degradations"] == 0
    # The workers' sinks shipped exactly what the simulated ones did.
    oracle, subject = report.oracle_run, report.subject_run
    assert subject.delta_history == oracle.delta_history
    assert (subject.metrics["shuffle_records"]
            == oracle.metrics["shuffle_records"])
