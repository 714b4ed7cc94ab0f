"""Recovery overhead vs failure rate (Section 6.1's recovery claim).

The paper argues the SetRDD design keeps recovery cheap: the cached
all-relation partitions double as checkpoints, so a failure replays only
the current stage.  This experiment quantifies that on SSSP over an RMAT
graph by sweeping the number of injected faults per run — from none, to
several task deaths, to task deaths plus a mid-fixpoint worker loss —
and reporting the simulated-time overhead, the extra task attempts, and
the time the recovery machinery itself charged.

Every run is checked bit-exact against the fault-free result; a chaos
run that diverged would invalidate the row (and the claim).
"""

import pytest

from harness import NUM_WORKERS, dump_trace, once, report, rmat_tables
from repro import RaSQLContext
from repro.chaos import make_schedule, run_differential
from repro.engine.faults import FailureInjector, WorkerLossInjector
from repro.queries import get_query

GRAPH_SIZE = 2_000
SEED = 23


def task_deaths(count):
    return [FailureInjector("fixpoint", task_index=i % NUM_WORKERS, times=1,
                            point="after" if i % 2 else "before")
            for i in range(count)]


#: (label, injector-list builder) — increasing failure rates.
SWEEP = [
    ("no faults", list),
    ("2 task deaths", lambda: make_schedule(
        SEED, num_workers=NUM_WORKERS, task_deaths=2,
        worker_losses=0).injectors),
    ("6 task deaths", lambda: task_deaths(6)),
    ("6 deaths + worker loss", lambda: task_deaths(6) + [
        WorkerLossInjector("fixpoint", worker=None, at_task=1,
                           skip_matches=2)]),
]


def make_context():
    ctx = RaSQLContext(num_workers=NUM_WORKERS)
    for name, (columns, rows) in rmat_tables(GRAPH_SIZE).items():
        ctx.register_table(name, columns, rows)
    return ctx


@pytest.mark.benchmark(group="chaos-recovery")
def test_recovery_overhead_vs_failure_rate(benchmark):
    query = get_query("sssp").formatted(source=0)

    def run():
        rows = []
        last_trace = None
        for label, build_faults in SWEEP:
            faults = build_faults()
            result = run_differential(query, make_context, faults=faults)
            assert result.exact, f"{label}: {result.summary()}"
            rows.append([
                label,
                # crash faults only: the seeded schedule's memory squeeze
                # degrades the run but kills nothing
                sum(f.injected for f in faults if isinstance(
                    f, (FailureInjector, WorkerLossInjector))),
                result.counters["task_attempts"],
                result.counters["cache_invalidated_partitions"],
                result.subject_run.sim_time,
                result.subject_run.sim_time - result.oracle_run.sim_time,
                result.counters["recovery_seconds"],
            ])
            last_trace = result.trace
        return rows, last_trace

    rows, trace = once(benchmark, run)
    report(
        "chaos_recovery",
        f"Recovery overhead vs failure rate (SSSP, RMAT-{GRAPH_SIZE // 1000}K, "
        f"{NUM_WORKERS} workers)",
        ["schedule", "faults", "attempts", "invalidated",
         "sim_time_s", "overhead_s", "recovery_s"],
        rows,
        notes="All rows verified bit-exact against the fault-free run; "
              "overhead_s is chaos minus clean simulated time, recovery_s "
              "the portion the cost model charged to recovery "
              "(wasted attempts, backoff, detection, re-derivation).")
    dump_trace("chaos_recovery", trace, label="worker-loss")
