"""Resource-governance integration suite.

Three claims, verified end to end over the full query library:

1. **Spilling is invisible to correctness** — every library query returns
   bit-exact results when the per-worker budget is squeezed until cached
   partitions spill to the simulated disk tier (the analog of
   ``repro.chaos``'s clean-vs-faulted comparison, for memory pressure).
2. **Deadlines abort cooperatively, with evidence** — a query past its
   simulated deadline raises with the partial trace attached.
3. **Admission control bounds the session** — the governor queues and
   rejects with actionable errors, visible through ``RaSQLContext.sql``.

Run with ``pytest -m governance``; the CI job mirrors the chaos matrix.
"""

import os

import pytest

from repro import ExecutionConfig, MemoryConfig, QueryGovernor, RaSQLContext
from repro.chaos import make_schedule, run_with_chaos
from repro.engine.faults import MemoryPressureInjector
from repro.errors import (
    AdmissionRejectedError,
    MemoryBudgetExceededError,
    QueryDeadlineExceededError,
)

from tests.integration.test_chaos import NUM_WORKERS, QUERY_SETUPS

pytestmark = pytest.mark.governance

SEEDS = [int(s) for s in
         os.environ.get("RASQL_GOVERNANCE_SEEDS", "23").split(",")]


def _sorted(rows):
    return sorted(rows, key=repr)


def make_context(query_name, **context_kwargs):
    build_tables, _ = QUERY_SETUPS[query_name]
    ctx = RaSQLContext(num_workers=NUM_WORKERS, **context_kwargs)
    for name, (columns, rows) in build_tables().items():
        ctx.register_table(name, columns, rows)
    return ctx


# ----------------------------------------------------------------------
# 1. bit-exact under spill, across the whole query library
# ----------------------------------------------------------------------

@pytest.mark.timeout(120)
@pytest.mark.parametrize("query_name", sorted(QUERY_SETUPS))
def test_query_bit_exact_under_spill(query_name):
    """Squeeze the budget until partitions spill; results must not move.

    The budget is derived from the unconstrained run: above the largest
    single segment (so the hard budget cannot abort) but below the peak
    resident set (so at least one spill must happen).
    """
    _, make_query = QUERY_SETUPS[query_name]
    query = make_query()

    clean_ctx = make_context(query_name)
    clean = clean_ctx.sql(query)
    memory = clean_ctx.cluster.memory
    peak = max(memory.high_water_bytes(w) for w in range(NUM_WORKERS))
    budget = max(memory.max_segment_bytes() + 1, int(0.6 * peak))
    assert budget < peak, "budget heuristic must force spilling"

    squeezed_ctx = make_context(
        query_name,
        memory_config=MemoryConfig(worker_budget_bytes=budget))
    squeezed = squeezed_ctx.sql(query)

    assert _sorted(squeezed.rows) == _sorted(clean.rows)
    summary = squeezed_ctx.last_run.memory_summary()
    assert summary["spill_events"] >= 1
    assert summary["spill_bytes"] > 0
    # Spilling costs simulated disk time, never correctness.  (The two
    # runs' whole clocks are not comparable: each also contains its own
    # *measured* CPU, which jitters; the disk charge is deterministic.)
    assert squeezed_ctx.last_run.metrics.get("spill_seconds", 0) > 0
    assert clean_ctx.last_run.metrics.get("spill_seconds", 0) == 0


@pytest.mark.timeout(120)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("query_name", ["sssp", "cc", "tc", "bom"])
def test_spill_composes_with_chaos_schedule(query_name, seed):
    """Seeded chaos (task deaths + worker loss + memory pressure) over a
    budget-constrained cluster still reproduces the clean result."""
    _, make_query = QUERY_SETUPS[query_name]

    probe = make_context(query_name)
    probe.sql(make_query())
    memory = probe.cluster.memory
    peak = max(memory.high_water_bytes(w) for w in range(NUM_WORKERS))
    budget = max(memory.max_segment_bytes() + 1, int(0.6 * peak))

    schedule = make_schedule(seed, num_workers=NUM_WORKERS)
    report = run_with_chaos(
        make_query(),
        lambda: make_context(
            query_name,
            memory_config=MemoryConfig(worker_budget_bytes=budget)),
        schedule)
    assert report.matches, report.summary()


@pytest.mark.timeout(120)
@pytest.mark.parametrize("query_name", ["sssp", "cc"])
def test_memory_pressure_injection_is_result_neutral(query_name):
    """A mid-fixpoint budget squeeze (soft enforcement) degrades the run
    without changing results or raising."""
    _, make_query = QUERY_SETUPS[query_name]
    query = make_query()

    clean = make_context(query_name).sql(query)

    ctx = make_context(query_name)
    ctx.inject_faults(MemoryPressureInjector(
        "fixpoint", fraction=0.3, skip_matches=1))
    pressured = ctx.sql(query)

    assert _sorted(pressured.rows) == _sorted(clean.rows)
    summary = ctx.last_run.memory_summary()
    assert summary["memory_pressure_events"] == 1
    assert summary["spill_events"] >= 1


def test_pressure_budget_does_not_leak_into_next_query():
    ctx = make_context("sssp")
    _, make_query = QUERY_SETUPS["sssp"]
    ctx.inject_faults(MemoryPressureInjector("fixpoint", fraction=0.3))
    ctx.sql(make_query())
    assert ctx.cluster.memory.soft
    ctx.sql(make_query())  # fresh query resets to the configured budget
    assert not ctx.cluster.memory.soft
    assert ctx.cluster.memory.budget_bytes is None


# ----------------------------------------------------------------------
# 2. EXPLAIN ANALYZE memory section
# ----------------------------------------------------------------------

@pytest.mark.timeout(60)
def test_explain_analyze_reports_memory_section():
    _, make_query = QUERY_SETUPS["sssp"]
    query = make_query()

    probe = make_context("sssp")
    probe.sql(query)
    memory = probe.cluster.memory
    peak = max(memory.high_water_bytes(w) for w in range(NUM_WORKERS))
    budget = max(memory.max_segment_bytes() + 1, int(0.6 * peak))

    ctx = make_context(
        "sssp", memory_config=MemoryConfig(worker_budget_bytes=budget))
    report = ctx.explain_analyze(query)
    assert "memory" in report
    for worker in range(NUM_WORKERS):
        assert f"worker {worker} high-water:" in report
    assert "spills:" in report
    assert "mem_peak_B" in report  # per-iteration peak column

    timeline = ctx.last_run.iteration_timeline()
    assert timeline and all(
        row["memory_peak_bytes"] > 0 for row in timeline)


# ----------------------------------------------------------------------
# 3. deadlines
# ----------------------------------------------------------------------

@pytest.mark.timeout(60)
def test_deadline_aborts_with_partial_trace():
    _, make_query = QUERY_SETUPS["sssp"]
    query = make_query()

    probe = make_context("sssp")
    probe.sql(query)
    full_time = probe.last_run.sim_time

    ctx = make_context("sssp")
    with pytest.raises(QueryDeadlineExceededError) as info:
        ctx.sql(query, config=ExecutionConfig(
            deadline_seconds=full_time / 2))
    error = info.value
    assert error.partial_trace is not None
    assert error.partial_trace["children"], "partial trace must be non-empty"
    assert error.sim_time > error.deadline_seconds >= 0
    assert ctx.last_run.trace == error.partial_trace
    assert ctx.last_run.metrics.get("deadline_aborts") == 1
    # The deadline is per-query: the next call runs to completion.
    result = ctx.sql(query)
    assert len(result.rows) > 0
    assert ctx.cluster.deadline is None


@pytest.mark.timeout(60)
def test_generous_deadline_does_not_fire():
    _, make_query = QUERY_SETUPS["sssp"]
    ctx = make_context("sssp")
    result = ctx.sql(make_query(),
                     config=ExecutionConfig(deadline_seconds=1e9))
    assert len(result.rows) > 0


# ----------------------------------------------------------------------
# 4. admission control through the public API
# ----------------------------------------------------------------------

def test_governor_queues_then_rejects_held_tickets():
    ctx = make_context(
        "sssp", governor=QueryGovernor(max_concurrent=1, max_queue=1))
    _, make_query = QUERY_SETUPS["sssp"]
    # Hold a slot open, as a long-running session would.
    ctx.governor.admit("held")
    before = ctx.metrics.sim_time
    ctx.sql(make_query())  # queued behind the held ticket, then runs
    assert ctx.metrics.get("queries_queued") == 1
    assert ctx.metrics.sim_time > before
    ctx.governor.admit("held-2")  # now 1 held + 1 held = queue full
    with pytest.raises(AdmissionRejectedError):
        ctx.sql(make_query())
    assert ctx.metrics.get("queries_rejected") == 1


def test_governor_rejects_on_reserved_memory():
    ctx = make_context(
        "sssp", governor=QueryGovernor(max_reserved_bytes=1))
    _, make_query = QUERY_SETUPS["sssp"]
    with pytest.raises(AdmissionRejectedError) as info:
        ctx.sql(make_query())  # the edge table alone estimates > 1 byte
    assert info.value.reason == "memory"


def test_rejected_query_leaves_no_ticket_behind():
    ctx = make_context(
        "sssp", governor=QueryGovernor(max_concurrent=1, max_queue=0))
    _, make_query = QUERY_SETUPS["sssp"]
    ctx.sql(make_query())
    assert len(ctx.governor.active) == 0


# ----------------------------------------------------------------------
# 5. hard budget failure mode
# ----------------------------------------------------------------------

def test_impossible_budget_raises_structured_error():
    ctx = make_context(
        "sssp", memory_config=MemoryConfig(worker_budget_bytes=8))
    _, make_query = QUERY_SETUPS["sssp"]
    with pytest.raises(MemoryBudgetExceededError) as info:
        ctx.sql(make_query())
    error = info.value
    assert error.budget_bytes == 8
    assert error.requested_bytes > 8
    assert 0 <= error.worker < NUM_WORKERS
