"""A task is timed and charged in one place (DESIGN.md §8).

- *One task clock*: every measured duration the simulated clock charges
  is read from ``metrics.task_clock``.  With it replaced by a clock that
  advances a fixed step per read, two fresh runs of every library query,
  and of the SQL-loop baseline, charge bit-identical ``sim_time`` — a
  site that read another clock would charge real, jittering seconds.
- *One commit path*: a batch a backend claims and the same tasks run on
  the driver, given the same ``(output, worker, cpu)``, record the same
  attempts, remote fetches and task leaves.
- The fetch charged is the committed attempt's: a retry that moved to
  another worker, and a worker-loss replay, count their own remote fetch.
"""

import pytest

from repro import ExecutionConfig
from repro.baselines.sql_loop import SQLLoopEngine
from repro.engine.backend import SimulatedBackend
from repro.engine.cluster import Cluster, StageTask
from repro.engine.dataset import Partition
from repro.engine.faults import FailureInjector, WorkerLossInjector
from repro.queries.library import get_query
from repro.relation import Relation
from tests.conftest import STEP
from tests.integration.test_chaos import QUERY_SETUPS, make_context_factory

@pytest.mark.parametrize("query_name", sorted(QUERY_SETUPS))
def test_library_query_charges_only_task_clock_seconds(fake_clock,
                                                       query_name):
    def charged():
        start = fake_clock.now
        ctx = make_context_factory(query_name)(config=ExecutionConfig())
        ctx.sql(QUERY_SETUPS[query_name][1]())
        assert fake_clock.now > start  # the fake clock is the one read
        return ctx.cluster.metrics.sim_time

    assert charged() == charged()


def test_sql_loop_charges_only_task_clock_seconds(fake_clock):
    edges = [(i, (i * 7 + 3) % 40) for i in range(40)] + [(5, 9), (9, 5)]

    def charged():
        start = fake_clock.now
        cluster = Cluster(num_workers=4)
        engine = SQLLoopEngine(cluster, "sn")
        engine.run(get_query("reach").formatted(source=0),
                   {"edge": Relation("edge", ["Src", "Dst"], edges)})
        assert fake_clock.now > start
        return cluster.metrics.sim_time

    assert charged() == charged()


# ----------------------------------------------------------------------
# one commit path
# ----------------------------------------------------------------------


class BatchBackend(SimulatedBackend):
    """Claims every batch and runs it in place, as a pool would: each
    task on its assigned worker, charged ``STEP`` seconds."""

    def wants_batch(self, tasks) -> bool:
        return True

    def run_batch(self, name, tasks, assignments):
        return [(task.fn(*[p.rows for p in task.inputs]), worker, STEP)
                for task, worker in zip(tasks, assignments)]


def count_rows(*parts):
    return sum(map(len, parts))


def stage_tasks():
    """Four tasks, each pinned to worker ``i``; the odd ones read an
    input homed on another worker."""
    tasks = []
    for i in range(4):
        inputs = [Partition(i, [(i, j) for j in range(5)], i)]
        if i % 2:
            inputs.append(Partition(10 + i, [(i,)] * 7, (i + 1) % 4))
        tasks.append(StageTask(i, inputs, count_rows, preferred_worker=i))
    return tasks


def accounted(cluster: Cluster) -> dict:
    with cluster.tracer.span("query", "q") as root:
        outputs = [r.output for r in cluster.run_stage("s", stage_tasks())]
    leaves = [dict(leaf.attrs) for leaf in root.find("task")]
    counters = {name: cluster.metrics.get(name)
                for name in ("task_attempts", "remote_fetches",
                             "remote_fetch_bytes", "tasks", "stages")}
    return {"outputs": outputs, "leaves": leaves, "counters": counters,
            "sim_time": cluster.metrics.sim_time}


@pytest.mark.usefixtures("fake_clock")
def test_claimed_batch_is_charged_like_the_same_tasks_run_locally():
    local = accounted(Cluster(num_workers=4))
    batched = Cluster(num_workers=4)
    batched.backend = BatchBackend()
    remote = accounted(batched)
    assert local == remote
    assert local["counters"]["remote_fetches"] == 2
    assert [leaf["cpu_seconds"] for leaf in local["leaves"]] == [STEP] * 4


def test_moved_retry_reports_the_committed_attempts_fetch():
    cluster = Cluster(num_workers=4)
    rows = [(j, j) for j in range(20)]
    task = StageTask(0, [Partition(0, rows, 0)], count_rows,
                     preferred_worker=0)
    # Three failures blacklist worker 0; the fourth attempt runs on
    # worker 1, which reads the input from worker 0.
    cluster.inject_failures(FailureInjector("s", task_index=0, times=3,
                                            persistent=True))
    result, = cluster.run_stage("s", [task])
    assert result.worker == 1
    nbytes = task.inputs[0].size_bytes()
    assert result.remote_bytes == nbytes
    assert cluster.metrics.get("remote_fetches") == 1
    assert cluster.metrics.get("remote_fetch_bytes") == nbytes
    assert cluster.metrics.get("task_attempts") == 4


def test_worker_loss_replay_counts_the_replaying_workers_fetch():
    def run(loss: bool):
        cluster = Cluster(num_workers=4)
        if loss:
            # Worker 0 dies before task 2: task 0's committed output is
            # replayed on a survivor, which reads task 0's second input
            # (homed on worker 3) remotely again.
            cluster.inject_failures(WorkerLossInjector("s", worker=0,
                                                       at_task=2))
        tasks = [StageTask(i, [Partition(i, [(i, 0)] * 4, i)], count_rows,
                           preferred_worker=i) for i in range(4)]
        far = Partition(9, [(9, 9)] * 6, 3)
        tasks[0].inputs.append(far)
        with cluster.tracer.span("query", "q") as root:
            results = cluster.run_stage("s", tasks)
        return cluster, results, len(list(root.find("task"))), far

    clean, _, clean_leaves, far = run(loss=False)
    lost, results, lost_leaves, _ = run(loss=True)
    assert results[0].worker not in (0, 3)
    assert results[0].remote_bytes == far.size_bytes()
    assert clean.metrics.get("remote_fetches") == 1
    assert lost.metrics.get("remote_fetches") == 2
    assert lost.metrics.get("remote_fetch_bytes") == 2 * far.size_bytes()
    # The replay is charged to recovery, not traced as a task.
    assert clean_leaves == lost_leaves == 4
    assert lost.metrics.get("recovery_seconds") > 0
