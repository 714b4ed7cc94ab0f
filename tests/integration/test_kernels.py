"""Kernel-layer differential suite: kernels on vs off, bit for bit.

The kernel layer (``repro.engine.kernels`` + the generated fast paths in
``repro.core.codegen``/``fixpoint``) claims pure wall-clock wins: same
rows, same iteration counts, only faster.  This suite pins that claim
across the whole query library and under composition with the other
subsystems (sort-merge planning, fault injection, memory pressure).

The test graphs sit far below the kernel size gate, so the whole marker
suite runs with the gate lifted (``tests/conftest.py``); the gate's own
tests put it back.

Run with ``pytest -m kernels``; extra graph seeds via
``RASQL_KERNELS_SEEDS`` (comma-separated).
"""

import os

import pytest

from repro import ExecutionConfig, MemoryConfig, RaSQLContext
from repro.chaos import make_schedule, run_with_chaos
from repro.core import planner

from tests.integration.test_chaos import (
    NUM_WORKERS,
    QUERY_SETUPS,
    random_graph,
)

pytestmark = pytest.mark.kernels

SEEDS = [int(s) for s in
         os.environ.get("RASQL_KERNELS_SEEDS", "5,13").split(",")]

REFERENCE = ExecutionConfig(kernels=False)

#: The shipped threshold, read at import time — before the suite's
#: autouse fixture lifts the gate.
DEFAULT_GATE = planner.KERNEL_MIN_ROWS

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


def run_query(query_name, seed, config=None, **context_kwargs):
    _, make_query = QUERY_SETUPS[query_name]
    ctx = RaSQLContext(num_workers=NUM_WORKERS, **context_kwargs)
    for name, (columns, rows) in tables_for(query_name, seed).items():
        ctx.register_table(name, columns, rows)
    result = ctx.sql(make_query(), config=config)
    return sorted(result.rows, key=repr), ctx


# ----------------------------------------------------------------------
# 1. every library query, kernels on vs off: same rows, same iterations
# ----------------------------------------------------------------------

@pytest.mark.timeout(120)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("query_name", sorted(QUERY_SETUPS))
def test_query_bit_exact_and_iteration_parity(query_name, seed):
    fast_rows, fast_ctx = run_query(query_name, seed)
    reference_rows, reference_ctx = run_query(query_name, seed,
                                              config=REFERENCE)
    assert fast_rows == reference_rows
    assert (fast_ctx.last_run.iterations
            == reference_ctx.last_run.iterations)
    # The kernels side really ran kernels: a gated run would make this a
    # reference-vs-reference comparison.
    assert fast_ctx.last_run.kernels_summary()["kernel_small_input_gate"] == 0


# ----------------------------------------------------------------------
# 2. kernels compose with the sort-merge planner strategy
# ----------------------------------------------------------------------

@pytest.mark.timeout(120)
@pytest.mark.parametrize("query_name", ["sssp", "cc", "tc", "bom",
                                        "company_control"])
def test_bit_exact_under_sort_merge_strategy(query_name):
    seed = SEEDS[0]
    fast_rows, _ = run_query(
        query_name, seed, config=ExecutionConfig(join_strategy="sort_merge"))
    reference_rows, _ = run_query(
        query_name, seed,
        config=ExecutionConfig(join_strategy="sort_merge", kernels=False))
    assert fast_rows == reference_rows


# ----------------------------------------------------------------------
# 3. kernel counters are observable where the kernels engage
# ----------------------------------------------------------------------

@pytest.mark.timeout(120)
def test_state_cache_counters_fire_on_company_control():
    _, ctx = run_query("company_control", SEEDS[0])
    summary = ctx.last_run.kernels_summary()
    assert (summary["kernel_state_cache_hits"]
            + summary["kernel_state_cache_updates"]) > 0


@pytest.mark.timeout(120)
def test_grouped_fixpoint_kernel_engages_on_tc():
    _, ctx = run_query("tc", SEEDS[0])
    summary = ctx.last_run.kernels_summary()
    assert summary["kernel_grouped_fixpoint_stages"] > 0
    # ... and never off the kernel path.
    _, reference_ctx = run_query("tc", SEEDS[0], config=REFERENCE)
    reference_summary = reference_ctx.last_run.kernels_summary()
    assert reference_summary["kernel_grouped_fixpoint_stages"] == 0


# ----------------------------------------------------------------------
# 4. the small-input dispatch gate (repro.core.planner.KERNEL_MIN_ROWS)
# ----------------------------------------------------------------------

def run_tc_over(num_edges):
    ctx = RaSQLContext(num_workers=NUM_WORKERS)
    ctx.register_table("edge", ["Src", "Dst"],
                       random_graph(60, num_edges, seed=SEEDS[0]))
    _, make_query = QUERY_SETUPS["tc"]
    ctx.sql(make_query())
    return ctx.last_run.kernels_summary()


@pytest.mark.timeout(120)
def test_small_input_gate_routes_through_reference_loops(monkeypatch):
    # One row under the shipped threshold: the gate engages and no
    # kernel machinery runs, even though kernels are on in the config.
    assert DEFAULT_GATE == 256
    monkeypatch.setattr(planner, "KERNEL_MIN_ROWS", DEFAULT_GATE)
    summary = run_tc_over(DEFAULT_GATE - 1)
    assert summary["kernel_small_input_gate"] == 1
    assert summary["kernel_grouped_fixpoint_stages"] == 0
    assert summary["kernel_state_cache_hits"] == 0
    assert summary["kernel_state_cache_misses"] == 0


@pytest.mark.timeout(120)
def test_gate_does_not_engage_above_threshold(monkeypatch):
    # Exactly at the threshold (and so anywhere above it) kernels run.
    monkeypatch.setattr(planner, "KERNEL_MIN_ROWS", DEFAULT_GATE)
    summary = run_tc_over(DEFAULT_GATE)
    assert summary["kernel_small_input_gate"] == 0
    assert summary["kernel_grouped_fixpoint_stages"] > 0


@pytest.mark.timeout(120)
def test_small_input_gate_is_bit_exact_with_ungated_kernels(monkeypatch):
    for query_name in ("sssp", "tc", "company_control", "bom"):
        ungated_rows, ungated_ctx = run_query(query_name, SEEDS[0])
        with monkeypatch.context() as gate:
            gate.setattr(planner, "KERNEL_MIN_ROWS", DEFAULT_GATE)
            gated_rows, gated_ctx = run_query(query_name, SEEDS[0])
        assert gated_ctx.last_run.kernels_summary()[
            "kernel_small_input_gate"] == 1
        assert gated_rows == ungated_rows
        assert (gated_ctx.last_run.iterations
                == ungated_ctx.last_run.iterations)


@pytest.mark.timeout(120)
def test_explain_analyze_reports_kernels_section():
    _, make_query = QUERY_SETUPS["company_control"]
    ctx = RaSQLContext(num_workers=NUM_WORKERS)
    for name, (columns, rows) in tables_for("company_control",
                                            SEEDS[0]).items():
        ctx.register_table(name, columns, rows)
    report = ctx.explain_analyze(make_query())
    assert "kernels" in report
    assert "state build-table cache" in report


@pytest.mark.timeout(120)
def test_kernels_off_run_reports_no_kernel_counters():
    _, ctx = run_query("sssp", SEEDS[0], config=REFERENCE)
    summary = ctx.last_run.kernels_summary()
    assert all(value == 0 for key, value in summary.items()
               if key.startswith("kernel_"))
    # How the base sides were obtained is reported on either path.
    assert summary["base_side_cache_misses"] > 0


# ----------------------------------------------------------------------
# 5. composition: kernels under fault injection and memory pressure
# ----------------------------------------------------------------------

@pytest.mark.timeout(120)
@pytest.mark.parametrize("query_name", ["sssp", "cc", "tc", "bom"])
def test_kernels_bit_exact_under_chaos(query_name):
    """Kernels on (the default context) + a seeded fault schedule."""
    _, make_query = QUERY_SETUPS[query_name]

    def factory():
        ctx = RaSQLContext(num_workers=NUM_WORKERS)
        for name, (columns, rows) in tables_for(query_name,
                                                SEEDS[0]).items():
            ctx.register_table(name, columns, rows)
        return ctx

    report = run_with_chaos(make_query(), factory,
                            make_schedule(29, num_workers=NUM_WORKERS))
    assert report.matches, report.summary()


@pytest.mark.timeout(120)
@pytest.mark.parametrize("query_name", ["sssp", "tc"])
def test_kernels_bit_exact_under_spill(query_name):
    """Budget squeezed until spilling: kernels must not change results,
    and the squeezed kernel run must still match the kernels-off run."""
    clean_rows, clean_ctx = run_query(query_name, SEEDS[0])
    memory = clean_ctx.cluster.memory
    peak = max(memory.high_water_bytes(w) for w in range(NUM_WORKERS))
    budget = max(memory.max_segment_bytes() + 1, int(0.6 * peak))

    squeezed_rows, squeezed_ctx = run_query(
        query_name, SEEDS[0],
        memory_config=MemoryConfig(worker_budget_bytes=budget))
    assert squeezed_rows == clean_rows
    assert squeezed_ctx.last_run.memory_summary()["spill_events"] >= 1

    reference_rows, _ = run_query(query_name, SEEDS[0], config=REFERENCE)
    assert squeezed_rows == reference_rows
