"""What the retired columnar on/off suite still pins.

The columnar batch layer is gone (DESIGN.md §14), and with it every
on/off behaviour this file used to compare.  The module keeps its name —
test ids are tracked by name across PRs — and pins the two things the
old suite covered that no other suite does:

1. the kernels differential on the *interpreted* pipeline
   (``codegen=False``: ``HashJoinStep``/``SortMergeJoinStep.apply``
   placing stored rows, the state-table cache they share with the
   generated code), where
   ``tests/integration/test_kernels.py`` covers the generated one;
2. the process backend's pickled-row wire with more partitions than
   pool workers, so task coalescing and the content-addressed install
   cache have something to do.

Run with ``pytest -m kernels`` (the suite runs with the kernel size gate
lifted, see ``tests/conftest.py``); extra graph seeds via ``RASQL_SEEDS``.
"""

import functools

import pytest

from repro import ExecutionConfig
from repro.chaos import (
    make_schedule,
    run_differential,
    sorted_rows,
    squeezed,
)

from tests.integration.test_chaos import NUM_WORKERS, QUERY_SETUPS
from tests.integration.test_kernels import SEEDS, differential, factory

pytestmark = pytest.mark.kernels

#: Kernels vs reference loops, both on the interpreted pipeline.
ON = ExecutionConfig(codegen=False)
OFF = ExecutionConfig(codegen=False, kernels=False)


# ----------------------------------------------------------------------
# 1. every library query, interpreted: same rows, same iterations
# ----------------------------------------------------------------------

@pytest.mark.timeout(120)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("query_name", sorted(QUERY_SETUPS))
def test_query_bit_exact_and_iteration_parity(query_name, seed):
    report = differential(query_name, seed, oracle=OFF, subject=ON)
    assert report.exact, report.summary()
    assert report.counters["kernel_small_input_gate"] == 0


# ----------------------------------------------------------------------
# 2. composition: sort-merge strategy, chaos, spill
# ----------------------------------------------------------------------

@pytest.mark.timeout(120)
@pytest.mark.parametrize("query_name", ["sssp", "cc", "tc", "bom"])
def test_bit_exact_under_sort_merge_strategy(query_name):
    report = differential(query_name,
                          oracle=OFF.but(join_strategy="sort_merge"),
                          subject=ON.but(join_strategy="sort_merge"))
    assert report.exact, report.summary()


@pytest.mark.timeout(120)
@pytest.mark.parametrize("query_name", ["sssp", "cc", "tc"])
def test_bit_exact_under_chaos(query_name):
    report = differential(
        query_name, oracle=ON, subject=ON,
        faults=make_schedule(31, num_workers=NUM_WORKERS).injectors)
    assert report.exact, report.summary()


@pytest.mark.timeout(120)
@pytest.mark.parametrize("query_name", ["sssp", "tc"])
def test_bit_exact_under_spill(query_name):
    report = differential(query_name, oracle=OFF, subject=lambda clean: {
        "config": ON, **squeezed(clean)})
    assert report.exact, report.summary()
    assert report.counters["spill_events"] >= 1


# ----------------------------------------------------------------------
# 3. the process backend's row wire: coalescing and the install cache
# ----------------------------------------------------------------------

PROCESS_ON = ExecutionConfig(backend="process")


@functools.lru_cache(maxsize=None)  # three tests read cc's report
def process_differential(query_name):
    """Process backend on (8 partitions over a 2-process pool, so
    per-iteration task coalescing has something to coalesce) vs the
    simulated oracle at the same partitioning."""
    _, make_query = QUERY_SETUPS[query_name]
    return run_differential(
        make_query(),
        factory(query_name, num_workers=2, num_partitions=8),
        subject={"config": PROCESS_ON})


@pytest.mark.timeout(180)
@pytest.mark.parametrize("query_name", ["cc", "sssp", "tc"])
def test_process_backend_bit_exact_on_vs_off(query_name):
    report = process_differential(query_name)
    assert report.exact, report.summary()
    # The process run did not silently degrade to the simulated oracle ...
    assert report.counters["process_backend_degradations"] == 0
    # ... and actually shipped work over the wire.
    assert report.counters["process_payload_bytes"] > 0


@pytest.mark.timeout(180)
def test_process_backend_matches_simulated_oracle():
    """... and the default partitioning's oracle (one per worker)."""
    _, make_query = QUERY_SETUPS["cc"]
    report = run_differential(
        make_query(), factory("cc"),
        subject={"config": PROCESS_ON, "num_workers": 2,
                 "num_partitions": 8})
    assert report.exact, report.summary()


@pytest.mark.timeout(180)
def test_task_coalescing_cuts_pipe_messages():
    counters = process_differential("cc").counters
    shipped = counters["process_tasks_shipped"]
    messages = counters["process_task_messages"]
    assert shipped > 0 and messages > 0
    # 8 partitions over a 2-process pool: ≥4 tasks per message on the
    # all-ship iterations, so messages must come in well under tasks.
    assert messages <= shipped / 2


@pytest.mark.timeout(180)
def test_install_cache_skips_unchanged_base_partitions():
    _, make_query = QUERY_SETUPS["cc"]
    ctx = factory("cc", num_workers=2, num_partitions=8)(config=PROCESS_ON)
    try:
        first = ctx.sql(make_query())
        first_sup = ctx.last_run.supervision_summary()
        assert first_sup["process_install_bytes"] > 0
        second = ctx.sql(make_query())
        second_sup = ctx.last_run.supervision_summary()
        assert sorted_rows(first) == sorted_rows(second)
        # The second query's heavy install blob is content-identical, so
        # the driver skips re-shipping it and counts the saved bytes.
        saved = (second_sup["process_payload_bytes_saved"]
                 - first_sup["process_payload_bytes_saved"])
        assert saved >= first_sup["process_install_bytes"]
    finally:
        ctx.close()


# ----------------------------------------------------------------------
# 4. observability: the wire counters land in EXPLAIN ANALYZE
# ----------------------------------------------------------------------

@pytest.mark.timeout(180)
def test_explain_analyze_reports_wire_counters():
    from repro.engine.tracing import format_explain_analyze

    report = format_explain_analyze(process_differential("cc").trace)
    assert "task pipe messages" in report
    assert "install blobs" in report
