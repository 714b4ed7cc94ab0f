"""One iteration step, three schedulers.

:class:`repro.core.iteration.CliqueStep` is the per-partition loop body;
:func:`iterate_combined` (Algorithm 6, the default),
:func:`iterate_two_stage` (Algorithm 4/5, the stage-combination ablation)
and :func:`iterate_remote` (the combined step on the process pool) decide
*where and when* it runs for one global iteration of
:class:`repro.core.fixpoint.FixpointOperator`.  They share one tail
(:func:`_run_and_exchange`) and one driver-side task wrapper: everything
the step itself must not know — the memory governor's touch/charge,
fault snapshot/restore hooks, the immutable-state ablation's copy,
folding the step's cache tallies into the metrics registry — happens
*around* the two step calls, here.  (Decomposed plans have no global
iteration; see :mod:`repro.core.decomposed`.)
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable

from repro.engine.backend.payloads import remote_task_stub
from repro.engine.cluster import StageTask
from repro.engine.dataset import Dataset, Partition

# ----------------------------------------------------------------------
# the driver's task wrapper around the shared step
# ----------------------------------------------------------------------


def _task(operator, partition: int, inputs: list[Partition], fn: Callable,
          mutating: bool = False, payload=None) -> StageTask:
    """One per-partition iteration task on the partition's home worker.

    A task that merges into the cached state (``mutating``) carries
    snapshot/restore hooks; they are only consulted under failure
    injection, where replaying a failed merge from the snapshot is the
    simulator's version of recomputing from the cached checkpoint
    (Section 6.1).
    """
    states = operator.states
    snapshot = restore = None
    if mutating:
        def snapshot():
            return {name: state.snapshot_partition(partition)
                    for name, state in states.items()}

        def restore(saved):
            for name, data in saved.items():
                states[name].restore_partition(partition, data)

    return StageTask(
        partition, inputs, fn,
        preferred_worker=operator.cluster.worker_for_partition(partition),
        snapshot=snapshot, restore=restore, mutating=mutating,
        payload=payload)


def _stage_inputs(operator, incoming: dict[str, Dataset],
                  partition: int) -> list[Partition]:
    """Task inputs for locality accounting: delta + cached base blocks."""
    return ([dataset.partitions[partition] for dataset in incoming.values()]
            + [blocks[partition] for blocks in operator.base_blocks.values()])


def _merge(operator, partition: int,
           incoming: dict[str, Dataset]) -> dict[str, int]:
    """:meth:`CliqueStep.merge` under the memory governor.

    The cached state partitions are the merge's working set: they are
    touched first (reading them back from the spill tier if the memory
    governor evicted them) and re-charged at their post-merge size, so
    per-worker accounting tracks the all-relation as it grows.  That size
    grows by what the merge added, sized from the incoming partition's
    (its exchanged buckets'): the state is never re-sampled here.
    """
    memory = operator.cluster.memory
    for name, state in operator.states.items():
        memory.touch("state", name, partition)
        if not operator.config.use_setrdd:
            # Immutable-RDD ablation: every union copies the partition.
            state.replace_partition(partition,
                                    state.snapshot_partition(partition))
    parts = {name: dataset.partitions[partition]
             for name, dataset in incoming.items()}
    d_by_view = operator.step.merge(
        partition, {name: part.rows for name, part in parts.items()},
        {name: part.size_bytes() for name, part in parts.items()})
    home = operator.cluster.worker_for_partition(partition)
    for name, state in operator.states.items():
        memory.charge("state", name, partition, home,
                      state.partition_size_bytes(partition))
    return d_by_view


def _derive(operator, partition: int,
            naive: bool) -> dict[str, dict[int, list[tuple]]]:
    """:meth:`CliqueStep.derive` under the memory governor."""
    # The joins read the cached base blocks and broadcast copies: touch
    # them so LRU eviction prefers colder segments, and so a spilled
    # block is read back (and charged) before use.
    memory = operator.cluster.memory
    home = operator.cluster.worker_for_partition(partition)
    for step_id in operator.base_blocks:
        memory.touch("base", str(step_id), partition)
    for group in operator.broadcast_groups:
        memory.touch("broadcast", group, home)
    buckets = operator.step.derive(partition, naive)
    operator.fold_cache_counts()
    return buckets


# ----------------------------------------------------------------------
# the schedulers
# ----------------------------------------------------------------------


def _run_and_exchange(operator, stage: str, tasks: list[StageTask],
                      consumed: dict[str, Dataset]
                      ) -> tuple[dict[str, Dataset], dict[str, int]]:
    """The tail every scheduler shares: run the stage whose tasks return
    ``(|D| per view, shuffle buckets per view)``, free the shuffle
    buffers that stage absorbed, collate, and exchange the buckets into
    the next iteration's incoming datasets."""
    results = operator.cluster.run_stage(stage, tasks)
    operator.release_consumed_shuffles(consumed)
    delta_by_view = dict.fromkeys(operator.planned.views, 0)
    outputs: dict[str, list[tuple[int, dict]]] = defaultdict(list)
    for result in results:
        d_by_view, per_view = result.output
        for name, count in d_by_view.items():
            delta_by_view[name] += count
        for name, buckets in per_view.items():
            outputs[name].append((result.worker, buckets))
    return operator.exchange_prebucketed(outputs), delta_by_view


def iterate_combined(operator, incoming: dict[str, Dataset], naive: bool
                     ) -> tuple[dict[str, Dataset], dict[str, int]]:
    """Algorithm 6: one ShuffleMap stage per iteration.

    Returns the next iteration's incoming shuffled datasets together
    with the post-merge delta size ``|D|`` per view (summed over
    partitions), which is what the fixpoint loop keys termination off.
    """
    def task_fn(partition):
        def run(*_input_rows):
            d_by_view = _merge(operator, partition, incoming)
            if not naive and not any(d_by_view.values()):
                return d_by_view, {}
            return d_by_view, _derive(operator, partition, naive)
        return run

    tasks = [_task(operator, p, _stage_inputs(operator, incoming, p),
                   task_fn(p), mutating=True)
             for p in range(operator.n)]
    return _run_and_exchange(operator, "fixpoint-shufflemap", tasks, incoming)


def iterate_two_stage(operator, incoming: dict[str, Dataset], naive: bool
                      ) -> tuple[dict[str, Dataset], dict[str, int]]:
    """Algorithm 4/5: separate Reduce and Map stages per iteration."""
    # Stage 1: Reduce — merge incoming deltas into state, emit D.
    reduce_tasks = [
        _task(operator, p,
              [dataset.partitions[p] for dataset in incoming.values()],
              (lambda *_input_rows, p=p: _merge(operator, p, incoming)),
              mutating=True)
        for p in range(operator.n)]
    reduced = operator.cluster.run_stage("fixpoint-reduce", reduce_tasks)
    operator.release_consumed_shuffles(incoming)

    # Stage 2: Map — join D with bases/state, emit shuffle buckets.
    map_tasks = []
    for result in reduced:
        p = result.index
        inputs = [Partition(p, fresh[p], result.worker)
                  for fresh in operator.step.fresh.values()]
        inputs += [blocks[p] for blocks in operator.base_blocks.values()]
        map_tasks.append(_task(
            operator, p, inputs,
            (lambda *_input_rows, p=p, d_by_view=result.output:
             (d_by_view, _derive(operator, p, naive)))))
    return _run_and_exchange(operator, "fixpoint-map", map_tasks, {})


def iterate_remote(operator, incoming: dict[str, Dataset], naive: bool
                   ) -> tuple[dict[str, Dataset], dict[str, int]]:
    """One combined iteration with merge/derive/route on the pool
    (semi-naive only: remote eligibility excludes ``naive``).

    The driver only ships each partition's incoming delta rows and
    routes the returned shuffle buckets between iterations; the
    all-relation state lives worker-side until it is collected.  Tasks
    carry picklable payloads instead of closures, which is what makes
    the process backend claim the batch (``wants_batch``); the worker
    answers with the same ``(|D| per view, buckets)`` a local task does.
    """
    tasks = []
    for p in range(operator.n):
        rows_by_view = {}
        for name, dataset in incoming.items():
            rows = dataset.partitions[p].rows
            if rows:
                rows_by_view[name] = list(rows)
        tasks.append(_task(
            operator, p, _stage_inputs(operator, incoming, p),
            remote_task_stub,
            payload=("iterate", operator.session_id, p, rows_by_view)))
    return _run_and_exchange(operator, "fixpoint-shufflemap", tasks, incoming)
