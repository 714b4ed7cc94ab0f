"""Resource-governance integration suite.

Three claims, verified end to end over the full query library:

1. **Spilling is invisible to correctness** — every library query returns
   bit-exact results when the per-worker budget is squeezed until cached
   partitions spill to the simulated disk tier (``repro.chaos``'s
   differential with a memory budget as the subject's side).
2. **Deadlines abort cooperatively, with evidence** — a query past its
   simulated deadline raises with the partial trace attached.
3. **Admission control bounds the session** — the governor queues and
   rejects with actionable errors, visible through ``RaSQLContext.sql``.

Run with ``pytest -m governance``; the CI job mirrors the chaos matrix.
"""

import pytest

from repro import ExecutionConfig, MemoryConfig, QueryGovernor
from repro.chaos import (
    checkpoint_sides,
    driver_kill,
    make_schedule,
    squeezed,
)
from repro.engine.faults import MemoryPressureInjector
from repro.errors import (
    AdmissionRejectedError,
    MemoryBudgetExceededError,
    QueryDeadlineExceededError,
)

from tests.conftest import seeds
from tests.integration.test_chaos import (
    NUM_WORKERS,
    QUERY_SETUPS,
    differential,
    make_context_factory,
)

pytestmark = pytest.mark.governance

SEEDS = seeds("23")


make_context = make_context_factory("sssp")
SSSP = QUERY_SETUPS["sssp"][1]()


# ----------------------------------------------------------------------
# 1. bit-exact under spill, across the whole query library
# ----------------------------------------------------------------------

@pytest.mark.timeout(120)
@pytest.mark.parametrize("query_name", sorted(QUERY_SETUPS))
def test_query_bit_exact_under_spill(query_name):
    """Squeeze the budget until partitions spill; results must not move."""
    report = differential(query_name, subject=squeezed)
    assert report.exact, report.summary()
    assert report.counters["spill_events"] >= 1
    assert report.counters["spill_bytes"] > 0
    # Spilling costs simulated disk time, never correctness.  (The two
    # runs' whole clocks are not comparable: each also contains its own
    # *measured* CPU, which jitters; the disk charge is deterministic.)
    assert report.counters["spill_seconds"] > 0
    assert report.oracle_run.metrics.get("spill_seconds", 0) == 0


@pytest.mark.timeout(120)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("query_name", ["sssp", "cc", "tc", "bom"])
def test_spill_composes_with_chaos_schedule(query_name, seed):
    """Seeded chaos (task deaths + worker loss + memory pressure) over a
    budget-constrained cluster still reproduces the clean result."""
    report = differential(
        query_name, subject=squeezed,
        faults=make_schedule(seed, num_workers=NUM_WORKERS).injectors)
    assert report.exact, report.summary()


@pytest.mark.timeout(120)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("query_name", ["sssp", "tc"])
def test_spill_composes_with_kill_resume(query_name, seed, tmp_path):
    """Composition: a squeezed, checkpointed run killed mid-fixpoint and
    resumed (on an equally squeezed restart) is still the clean answer."""
    sides = checkpoint_sides(str(tmp_path), interval=1)
    report = differential(
        query_name, oracle=sides["oracle"],
        subject=lambda clean: {**sides["subject"], **squeezed(clean)},
        faults=driver_kill(seed), resume=True)
    assert report.exact, report.summary()
    assert report.counters["spill_events"] >= 1


@pytest.mark.timeout(120)
@pytest.mark.parametrize("query_name", ["sssp", "cc"])
def test_memory_pressure_injection_is_result_neutral(query_name):
    """A mid-fixpoint budget squeeze (soft enforcement) degrades the run
    without changing results or raising."""
    report = differential(query_name, faults=[MemoryPressureInjector(
        "fixpoint", fraction=0.3, skip_matches=1)])
    assert report.exact, report.summary()
    assert report.counters["memory_pressure_events"] == 1
    assert report.counters["spill_events"] >= 1


def test_pressure_budget_does_not_leak_into_next_query():
    ctx = make_context()
    ctx.inject_faults(MemoryPressureInjector("fixpoint", fraction=0.3))
    ctx.sql(SSSP)
    assert ctx.cluster.memory.soft
    ctx.sql(SSSP)  # fresh query resets to the configured budget
    assert not ctx.cluster.memory.soft
    assert ctx.cluster.memory.budget_bytes is None


# ----------------------------------------------------------------------
# 2. EXPLAIN ANALYZE memory section
# ----------------------------------------------------------------------

@pytest.mark.timeout(60)
def test_explain_analyze_reports_memory_section():
    squeezed_run = differential("sssp", subject=squeezed).subject_run
    report = squeezed_run.explain_analyze()
    assert "memory" in report
    for worker in range(NUM_WORKERS):
        assert f"worker {worker} high-water:" in report
    assert "spills:" in report
    assert "mem_peak_B" in report  # per-iteration peak column

    timeline = squeezed_run.iteration_timeline()
    assert timeline and all(
        row["memory_peak_bytes"] > 0 for row in timeline)


# ----------------------------------------------------------------------
# 3. deadlines
# ----------------------------------------------------------------------

@pytest.mark.timeout(60)
def test_deadline_aborts_with_partial_trace():
    report = differential("sssp", subject=lambda clean: {
        "config": ExecutionConfig(
            deadline_seconds=clean.last_run.sim_time / 2)})
    error = report.error
    assert isinstance(error, QueryDeadlineExceededError)
    assert error.partial_trace is not None
    assert error.partial_trace["children"], "partial trace must be non-empty"
    assert error.sim_time > error.deadline_seconds >= 0
    assert report.trace == error.partial_trace
    assert report.counters["deadline_aborts"] == 1
    assert not report.leaks, report.summary()

    # The deadline is per-query: the next call runs to completion.
    ctx = make_context()
    with pytest.raises(QueryDeadlineExceededError):
        ctx.sql(SSSP, config=ExecutionConfig(deadline_seconds=1e-9))
    result = ctx.sql(SSSP)
    assert len(result.rows) > 0
    assert ctx.cluster.deadline is None


@pytest.mark.timeout(60)
def test_generous_deadline_does_not_fire():
    ctx = make_context()
    result = ctx.sql(SSSP, config=ExecutionConfig(deadline_seconds=1e9))
    assert len(result.rows) > 0


# ----------------------------------------------------------------------
# 4. admission control through the public API
# ----------------------------------------------------------------------

def test_governor_queues_then_rejects_held_tickets():
    ctx = make_context(governor=QueryGovernor(max_concurrent=1, max_queue=1))
    # Hold a slot open, as a long-running session would.
    ctx.governor.admit("held")
    before = ctx.metrics.sim_time
    ctx.sql(SSSP)  # queued behind the held ticket, then runs
    assert ctx.metrics.get("queries_queued") == 1
    assert ctx.metrics.sim_time > before
    ctx.governor.admit("held-2")  # now 1 held + 1 held = queue full
    with pytest.raises(AdmissionRejectedError):
        ctx.sql(SSSP)
    assert ctx.metrics.get("queries_rejected") == 1


def test_governor_rejects_on_reserved_memory():
    ctx = make_context(governor=QueryGovernor(max_reserved_bytes=1))
    with pytest.raises(AdmissionRejectedError) as info:
        ctx.sql(SSSP)  # the edge table alone estimates > 1 byte
    assert info.value.reason == "memory"


def test_rejected_query_leaves_no_ticket_behind():
    ctx = make_context(governor=QueryGovernor(max_concurrent=1, max_queue=0))
    ctx.sql(SSSP)
    assert len(ctx.governor.active) == 0


# ----------------------------------------------------------------------
# 5. hard budget failure mode
# ----------------------------------------------------------------------

def test_impossible_budget_raises_structured_error():
    report = differential("sssp", subject={
        "memory_config": MemoryConfig(worker_budget_bytes=8)})
    error = report.error
    assert isinstance(error, MemoryBudgetExceededError)
    assert error.budget_bytes == 8
    assert error.requested_bytes > 8
    assert 0 <= error.worker < NUM_WORKERS
    assert not report.leaks, report.summary()
