"""Kernel-layer differential suite: the kernel path vs the interpreted
pipeline, bit for bit.

The kernel layer (``repro.engine.kernels`` + the generated fast paths in
``repro.core.codegen``/``fixpoint``) is the fixpoint's one hot path,
whatever the input size.  This suite pins it — same rows, same iteration
counts — against the oracles that know nothing of it: the interpreted
pipeline (``codegen=False``: no generated term, no fold variant, no set
runner) and, where ``repro.compile`` can lower the query, sqlite.  It
does so across the whole query library, under composition with the
other subsystems (sort-merge planning, fault injection, memory
pressure), and for the inputs a size gate once kept off this path: a
view grown from a tiny table and a tiny clique on the process backend.

Run with ``pytest -m kernels``; extra graph seeds via ``RASQL_SEEDS``
(comma-separated, ``tests/conftest.py``).
"""

import pytest

from repro import ExecutionConfig, RaSQLContext
from repro.chaos import make_schedule, run_differential, squeezed
from repro.compile import diff_query
from repro.core.context import RunInfo
from repro.core.streaming import IncrementalView
from repro.engine.tracing import format_explain_analyze

from tests.compile.test_differential import INEXPRESSIBLE
from tests.conftest import seeds
from tests.integration.test_chaos import (
    NUM_WORKERS,
    QUERY_SETUPS,
    make_context_factory,
    random_graph,
)

pytestmark = pytest.mark.kernels

SEEDS = seeds("5,13")

#: The oracle: the interpreted pipeline (no generated term).
REFERENCE = ExecutionConfig(codegen=False)

#: Queries whose input is a generated graph: rebuilt per seed so the
#: differential covers several shapes.  Fixed-data queries (BOM, MLM,
#: intervals, ...) run on their canonical tables for every seed.
GRAPH_QUERIES = {
    "sssp": dict(weighted=True),
    "reach": dict(),
    "count_paths": dict(acyclic=True),
    "cc": dict(),
    "cc_labels": dict(),
    "tc": dict(),
}


def tables_for(query_name, seed):
    if query_name in GRAPH_QUERIES:
        kwargs = GRAPH_QUERIES[query_name]
        columns = ("Src", "Dst") + (("Cost",) if kwargs.get("weighted")
                                    else ())
        return {"edge": (columns, random_graph(24, 60, seed=seed, **kwargs))}
    if query_name == "apsp":
        return {"edge": (("Src", "Dst", "Cost"),
                         random_graph(12, 30, seed=seed, weighted=True))}
    build_tables, _ = QUERY_SETUPS[query_name]
    return build_tables()


def factory(query_name, seed=None, **fixed):
    """``make_context`` over ``query_name``'s tables at a graph seed."""
    seed = SEEDS[0] if seed is None else seed
    return make_context_factory(
        query_name, tables=lambda: tables_for(query_name, seed), **fixed)


def differential(query_name, seed=None, *, oracle=REFERENCE, subject=None,
                 **harness):
    """The default config — or the ``subject`` config, or a function of
    the finished oracle returning the subject's side — against the
    ``oracle`` config, by default the interpreted pipeline."""
    _, make_query = QUERY_SETUPS[query_name]
    return run_differential(
        make_query(), factory(query_name, seed), oracle={"config": oracle},
        subject=subject if callable(subject) else {"config": subject},
        **harness)


def assert_sqlite_agrees(query_name, seed=None, config=None):
    """The kernel path against the sqlite lowering of the query, where
    ``repro.compile`` can lower it."""
    if query_name in INEXPRESSIBLE:
        return
    _, make_query = QUERY_SETUPS[query_name]
    report = diff_query(factory(query_name, seed)(), make_query(),
                        config=config, label=query_name)
    assert report.equal, report.summary()


def run_query(query_name, seed, config=None):
    """One run; the finished context."""
    _, make_query = QUERY_SETUPS[query_name]
    ctx = factory(query_name, seed)()
    ctx.sql(make_query(), config=config)
    return ctx


# ----------------------------------------------------------------------
# 1. every library query, kernel path vs interpreted pipeline (and
#    sqlite): same rows, same iterations
# ----------------------------------------------------------------------

@pytest.mark.timeout(120)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("query_name", sorted(QUERY_SETUPS))
def test_query_bit_exact_and_iteration_parity(query_name, seed):
    report = differential(query_name, seed)
    assert report.exact, report.summary()
    assert_sqlite_agrees(query_name, seed)


# ----------------------------------------------------------------------
# 2. kernels compose with the sort-merge planner strategy
# ----------------------------------------------------------------------

@pytest.mark.timeout(120)
@pytest.mark.parametrize("query_name", ["sssp", "cc", "tc", "bom",
                                        "company_control"])
def test_bit_exact_under_sort_merge_strategy(query_name):
    sort_merge = ExecutionConfig(join_strategy="sort_merge")
    report = differential(query_name, oracle=REFERENCE.but(
        join_strategy="sort_merge"), subject=sort_merge)
    assert report.exact, report.summary()
    assert_sqlite_agrees(query_name, config=sort_merge)


# ----------------------------------------------------------------------
# 3. kernel counters are observable where the kernels engage
# ----------------------------------------------------------------------

@pytest.mark.timeout(120)
def test_state_cache_counters_fire_on_company_control():
    summary = run_query("company_control",
                        SEEDS[0]).last_run.kernels_summary()
    assert (summary["kernel_state_cache_hits"]
            + summary["kernel_state_cache_updates"]) > 0


@pytest.mark.timeout(120)
def test_grouped_fixpoint_kernel_engages_on_tc():
    summary = run_query("tc", SEEDS[0]).last_run.kernels_summary()
    assert summary["kernel_grouped_fixpoint_stages"] > 0
    # ... and never on the interpreted pipeline.
    reference_summary = run_query(
        "tc", SEEDS[0], config=REFERENCE).last_run.kernels_summary()
    assert reference_summary["kernel_grouped_fixpoint_stages"] == 0


# ----------------------------------------------------------------------
# 4. one hot path whatever the input size: a view grown from a tiny
#    table, a tiny clique on the process backend
# ----------------------------------------------------------------------

def kernel_counters(ctx):
    """The session's cumulative kernel counters."""
    return RunInfo(metrics=ctx.metrics.snapshot()).kernels_summary()


@pytest.mark.timeout(120)
@pytest.mark.parametrize("query_name", ["sssp", "cc"])
def test_a_view_grown_from_80_rows_runs_the_kernel_path(query_name):
    weighted = GRAPH_QUERIES[query_name].get("weighted", False)
    columns = ("Src", "Dst") + (("Cost",) if weighted else ())
    edges = random_graph(2_000, 20_080, seed=SEEDS[0], weighted=weighted)
    _, make_query = QUERY_SETUPS[query_name]
    ctx = RaSQLContext(num_workers=NUM_WORKERS)
    ctx.register_table("edge", columns, edges[:80])
    view = IncrementalView(ctx, make_query())
    # The recursive terms fold inside their probe loop, however small
    # the table the view was planned over ...
    assert all(term.folds for term in view.planned.terms)
    ctx.catalog.append_rows("edge", edges[80:])
    before = kernel_counters(ctx)
    rows = sorted(view.result().rows, key=repr)
    after = kernel_counters(ctx)
    # ... and the catch-up's maintenance terms probe the state through
    # the step's cached state tables.
    assert sum(after[key] - before[key] for key in after
               if key.startswith("kernel_state_cache_")) > 0
    fresh = RaSQLContext(num_workers=NUM_WORKERS)
    fresh.register_table("edge", columns, edges)
    assert rows == sorted(fresh.sql(make_query()).rows, key=repr)


@pytest.mark.process_backend
@pytest.mark.timeout(180)
@pytest.mark.parametrize("query_name", ["sssp", "cc"])
def test_a_100_row_process_clique_ships_its_work(query_name):
    weighted = GRAPH_QUERIES[query_name].get("weighted", False)
    edges = random_graph(40, 100, seed=SEEDS[0], weighted=weighted)
    columns = ("Src", "Dst") + (("Cost",) if weighted else ())
    _, make_query = QUERY_SETUPS[query_name]
    report = run_differential(
        make_query(), make_context_factory(
            query_name, tables=lambda: {"edge": (columns, edges)},
            num_workers=2),
        subject={"config": ExecutionConfig(backend="process")})
    assert report.exact, report.summary()
    assert report.counters["process_tasks_shipped"] > 0
    assert "remote-ineligible" not in format_explain_analyze(report.trace)


@pytest.mark.timeout(120)
def test_explain_analyze_reports_kernels_section():
    report = run_query("company_control",
                       SEEDS[0]).last_run.explain_analyze()
    assert "kernels" in report
    assert "state build-table cache" in report


# ----------------------------------------------------------------------
# 5. composition: kernels under fault injection and memory pressure
# ----------------------------------------------------------------------

@pytest.mark.timeout(120)
@pytest.mark.parametrize("query_name", ["sssp", "cc", "tc", "bom"])
def test_kernels_bit_exact_under_chaos(query_name):
    """The kernel path (the default context) + a seeded fault schedule."""
    report = differential(
        query_name, oracle=None,
        faults=make_schedule(29, num_workers=NUM_WORKERS).injectors)
    assert report.exact, report.summary()


@pytest.mark.timeout(120)
@pytest.mark.parametrize("query_name", ["sssp", "tc"])
def test_kernels_bit_exact_under_spill(query_name):
    """Budget squeezed until spilling: the kernel run must still match
    the (unsqueezed) interpreted run."""
    report = differential(query_name, subject=squeezed)
    assert report.exact, report.summary()
    assert report.counters["spill_events"] >= 1
