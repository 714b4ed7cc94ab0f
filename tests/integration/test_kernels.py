"""Kernel-layer differential suite: kernels on vs off, bit for bit.

The kernel layer (``repro.engine.kernels`` + the generated fast paths in
``repro.core.codegen``/``fixpoint``) claims pure wall-clock wins: same
rows, same iteration counts, only faster.  This suite pins that claim
across the whole query library and under composition with the other
subsystems (sort-merge planning, fault injection, memory pressure).

The test graphs sit far below the kernel size gate, so the whole marker
suite runs with the gate lifted (``tests/conftest.py``); the gate's own
tests put it back.

Run with ``pytest -m kernels``; extra graph seeds via ``RASQL_SEEDS``
(comma-separated, ``tests/conftest.py``).
"""

import pytest

from repro import ExecutionConfig, RaSQLContext
from repro.chaos import make_schedule, run_differential, squeezed
from repro.core import planner

from tests.conftest import seeds
from tests.integration.test_chaos import (
    NUM_WORKERS,
    QUERY_SETUPS,
    make_context_factory,
    random_graph,
)

pytestmark = pytest.mark.kernels

SEEDS = seeds("5,13")

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


def factory(query_name, seed=None, **fixed):
    """``make_context`` over ``query_name``'s tables at a graph seed."""
    seed = SEEDS[0] if seed is None else seed
    return make_context_factory(
        query_name, tables=lambda: tables_for(query_name, seed), **fixed)


def differential(query_name, seed=None, *, oracle=REFERENCE, subject=None,
                 **harness):
    """Kernels on — or the ``subject`` config, or a function of the
    finished oracle returning the subject's side — against the ``oracle``
    config, by default the reference loops."""
    _, make_query = QUERY_SETUPS[query_name]
    return run_differential(
        make_query(), factory(query_name, seed), oracle={"config": oracle},
        subject=subject if callable(subject) else {"config": subject},
        **harness)


def run_query(query_name, seed, config=None):
    """One run; the finished context."""
    _, make_query = QUERY_SETUPS[query_name]
    ctx = factory(query_name, seed)()
    ctx.sql(make_query(), config=config)
    return ctx


# ----------------------------------------------------------------------
# 1. every library query, kernels on vs off: same rows, same iterations
# ----------------------------------------------------------------------

@pytest.mark.timeout(120)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("query_name", sorted(QUERY_SETUPS))
def test_query_bit_exact_and_iteration_parity(query_name, seed):
    report = differential(query_name, seed)
    assert report.exact, report.summary()
    # The kernels side really ran kernels: a gated run would make this a
    # reference-vs-reference comparison.
    assert report.counters["kernel_small_input_gate"] == 0


# ----------------------------------------------------------------------
# 2. kernels compose with the sort-merge planner strategy
# ----------------------------------------------------------------------

@pytest.mark.timeout(120)
@pytest.mark.parametrize("query_name", ["sssp", "cc", "tc", "bom",
                                        "company_control"])
def test_bit_exact_under_sort_merge_strategy(query_name):
    report = differential(
        query_name,
        oracle=ExecutionConfig(join_strategy="sort_merge", kernels=False),
        subject=ExecutionConfig(join_strategy="sort_merge"))
    assert report.exact, report.summary()


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
    # ... and never off the kernel path.
    reference_summary = run_query(
        "tc", SEEDS[0], config=REFERENCE).last_run.kernels_summary()
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
        make_context = factory(query_name)

        def gated(gate=0, **side):
            # The gate is read when a clique is planned: the oracle has
            # finished by the time the subject's context is made.
            monkeypatch.setattr(planner, "KERNEL_MIN_ROWS", gate)
            return make_context(**side)

        _, make_query = QUERY_SETUPS[query_name]
        report = run_differential(make_query(), gated,
                                  subject={"gate": DEFAULT_GATE})
        assert report.exact, report.summary()
        assert report.counters["kernel_small_input_gate"] == 1
        assert report.oracle_run.kernels_summary()[
            "kernel_small_input_gate"] == 0


@pytest.mark.timeout(120)
def test_explain_analyze_reports_kernels_section():
    report = run_query("company_control",
                       SEEDS[0]).last_run.explain_analyze()
    assert "kernels" in report
    assert "state build-table cache" in report


@pytest.mark.timeout(120)
def test_kernels_off_run_reports_no_kernel_counters():
    summary = run_query("sssp", SEEDS[0],
                        config=REFERENCE).last_run.kernels_summary()
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
    report = differential(
        query_name, oracle=None,
        faults=make_schedule(29, num_workers=NUM_WORKERS).injectors)
    assert report.exact, report.summary()


@pytest.mark.timeout(120)
@pytest.mark.parametrize("query_name", ["sssp", "tc"])
def test_kernels_bit_exact_under_spill(query_name):
    """Budget squeezed until spilling: the kernel run must still match
    the (unsqueezed) kernels-off run."""
    report = differential(query_name, subject=squeezed)
    assert report.exact, report.summary()
    assert report.counters["spill_events"] >= 1
