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
lifted, see ``tests/conftest.py``); extra graph seeds via
``RASQL_KERNELS_SEEDS`` (comma-separated).
"""

import pytest

from repro import ExecutionConfig, MemoryConfig, RaSQLContext
from repro.chaos import make_schedule, run_with_chaos
from repro.engine.backend import ProcessConfig

from tests.integration.test_chaos import NUM_WORKERS, QUERY_SETUPS
from tests.integration.test_kernels import SEEDS, run_query, tables_for

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
    on_rows, on_ctx = run_query(query_name, seed, config=ON)
    off_rows, off_ctx = run_query(query_name, seed, config=OFF)
    assert on_rows == off_rows
    assert on_ctx.last_run.iterations == off_ctx.last_run.iterations
    assert on_ctx.last_run.kernels_summary()["kernel_small_input_gate"] == 0


# ----------------------------------------------------------------------
# 2. composition: sort-merge strategy, chaos, spill
# ----------------------------------------------------------------------

@pytest.mark.timeout(120)
@pytest.mark.parametrize("query_name", ["sssp", "cc", "tc", "bom"])
def test_bit_exact_under_sort_merge_strategy(query_name):
    seed = SEEDS[0]
    on_rows, _ = run_query(query_name, seed,
                           config=ON.but(join_strategy="sort_merge"))
    off_rows, _ = run_query(query_name, seed,
                            config=OFF.but(join_strategy="sort_merge"))
    assert on_rows == off_rows


@pytest.mark.timeout(120)
@pytest.mark.parametrize("query_name", ["sssp", "cc", "tc"])
def test_bit_exact_under_chaos(query_name):
    _, make_query = QUERY_SETUPS[query_name]

    def factory():
        ctx = RaSQLContext(num_workers=NUM_WORKERS, config=ON)
        for name, (columns, rows) in tables_for(query_name,
                                                SEEDS[0]).items():
            ctx.register_table(name, columns, rows)
        return ctx

    report = run_with_chaos(make_query(), factory,
                            make_schedule(31, num_workers=NUM_WORKERS))
    assert report.matches, report.summary()


@pytest.mark.timeout(120)
@pytest.mark.parametrize("query_name", ["sssp", "tc"])
def test_bit_exact_under_spill(query_name):
    clean_rows, clean_ctx = run_query(query_name, SEEDS[0], config=ON)
    memory = clean_ctx.cluster.memory
    peak = max(memory.high_water_bytes(w) for w in range(NUM_WORKERS))
    budget = max(memory.max_segment_bytes() + 1, int(0.6 * peak))

    squeezed_rows, squeezed_ctx = run_query(
        query_name, SEEDS[0], config=ON,
        memory_config=MemoryConfig(worker_budget_bytes=budget))
    assert squeezed_rows == clean_rows
    assert squeezed_ctx.last_run.memory_summary()["spill_events"] >= 1

    off_rows, _ = run_query(query_name, SEEDS[0], config=OFF)
    assert squeezed_rows == off_rows


# ----------------------------------------------------------------------
# 3. the process backend's row wire: coalescing and the install cache
# ----------------------------------------------------------------------

def run_process_query(query_name, config, num_workers=2, num_partitions=8):
    """A run with more partitions than (pool) workers, so per-iteration
    task coalescing has something to coalesce on the process backend."""
    _, make_query = QUERY_SETUPS[query_name]
    kwargs = ({"process_config": ProcessConfig()}
              if config.backend == "process" else {})
    ctx = RaSQLContext(num_workers=num_workers,
                       num_partitions=num_partitions, config=config,
                       **kwargs)
    try:
        for name, (columns, rows) in tables_for(query_name,
                                                SEEDS[0]).items():
            ctx.register_table(name, columns, rows)
        result = ctx.sql(make_query())
        return (sorted(result.rows, key=repr), ctx.last_run,
                ctx.last_run.supervision_summary())
    finally:
        ctx.close()


PROCESS_ON = ExecutionConfig(backend="process")


@pytest.mark.timeout(180)
@pytest.mark.parametrize("query_name", ["cc", "sssp", "tc"])
def test_process_backend_bit_exact_on_vs_off(query_name):
    """Process backend on (8 partitions over a 2-process pool) vs the
    simulated oracle at the same partitioning."""
    on_rows, on_run, on_sup = run_process_query(query_name, PROCESS_ON)
    off_rows, off_run, _ = run_process_query(query_name, ExecutionConfig())
    assert on_rows == off_rows
    assert on_run.iterations == off_run.iterations
    # The process run did not silently degrade to the simulated oracle ...
    assert on_sup["process_backend_degradations"] == 0
    # ... and actually shipped work over the wire.
    assert on_sup["process_payload_bytes"] > 0


@pytest.mark.timeout(180)
def test_process_backend_matches_simulated_oracle():
    on_rows, on_run, _ = run_process_query("cc", PROCESS_ON)
    sim_rows, sim_ctx = run_query("cc", SEEDS[0])
    assert on_rows == sim_rows
    assert on_run.iterations == sim_ctx.last_run.iterations


@pytest.mark.timeout(180)
def test_task_coalescing_cuts_pipe_messages():
    _, _, sup = run_process_query("cc", PROCESS_ON)
    shipped = sup["process_tasks_shipped"]
    messages = sup["process_task_messages"]
    assert shipped > 0 and messages > 0
    # 8 partitions over a 2-process pool: ≥4 tasks per message on the
    # all-ship iterations, so messages must come in well under tasks.
    assert messages <= shipped / 2


@pytest.mark.timeout(180)
def test_install_cache_skips_unchanged_base_partitions():
    _, make_query = QUERY_SETUPS["cc"]
    ctx = RaSQLContext(num_workers=2, num_partitions=8, config=PROCESS_ON,
                       process_config=ProcessConfig())
    try:
        for name, (columns, rows) in tables_for("cc", SEEDS[0]).items():
            ctx.register_table(name, columns, rows)
        first = ctx.sql(make_query())
        first_sup = ctx.last_run.supervision_summary()
        assert first_sup["process_install_bytes"] > 0
        second = ctx.sql(make_query())
        second_sup = ctx.last_run.supervision_summary()
        assert sorted(first.rows, key=repr) == sorted(second.rows, key=repr)
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
    _, run, sup = run_process_query("cc", PROCESS_ON)
    report = run.explain_analyze()
    assert "task pipe messages" in report
    assert "install blobs" in report
