"""Decomposed execution (Section 7.2): independent per-partition fixpoints.

For decomposable plans each partition runs its own local fixpoint against
broadcast bases with no shuffle and no synchronization.  Two runners
exist for that local fixpoint, both stateless, so the process backend
ships them whole and the pool worker calls the very same functions: the
column-decomposed set kernel for transitive closure's shape, and the
clique's own iteration step over one partition for every other shape.
"""

from __future__ import annotations

from itertools import chain, repeat

from repro.core.iteration import CliqueStep
from repro.engine.backend.payloads import remote_task_stub
from repro.engine.cluster import StageTask
from repro.engine.dataset import Dataset
from repro.errors import FixpointNotReachedError


def run_grouped_fixpoint(grouped_specs, broadcast_tables, delta_rows,
                         max_iters: int) -> tuple[dict[tuple, None], int]:
    """Column-decomposed set fixpoint (see ``GroupedDedupSpec``).

    Members live as ``prefix -> {last column}``, and so does each round's
    work: what a key derived, less what it already holds, is its fresh
    set — added to its members and, through the adjacency sets of its
    values, the key's next derivations.  All of it is C-level set algebra
    over bare column values; no row tuple is built or probed inside the
    loop.  A round counts whenever it has derivations to merge, so a last
    round that derives only duplicates counts, as in the local loop.  The
    rows are built once at the end, key by key, into an insertion-ordered
    ``SetRDD`` partition.  Shared verbatim by the driver's decomposed path
    and the process-backend worker.
    """
    # Every spec probes the last column and keys on the others, so the
    # terms' adjacencies union into one.
    adj: dict = {}
    for spec in grouped_specs:
        col = spec.build_index  # None: the side stores the bare column
        for k, rows in broadcast_tables[spec.step_id].items():
            adj.setdefault(k, set()).update(
                rows if col is None else [r[col] for r in rows])
    aget = adj.get
    pair = len(grouped_specs[0].prefix) == 1
    derived: dict = {}
    for row in delta_rows:
        derived.setdefault(row[0] if pair else row[:-1], set()).add(row[-1])
    members = {key: set() for key in derived}
    iterations = 0
    while derived:
        iterations += 1
        if iterations > max_iters:
            raise FixpointNotReachedError(
                "decomposed local fixpoint exceeded budget",
                iterations - 1)
        following: dict = {}
        for key, candidates in derived.items():
            known = members[key]
            fresh = candidates - known
            if fresh:
                known |= fresh
                more = set().union(*filter(None, map(aget, fresh)))
                if more:
                    following[key] = more
        derived = following
    if pair:
        rows = chain.from_iterable(
            zip(repeat(key), ys) for key, ys in members.items())
    else:
        rows = chain.from_iterable(
            map(key.__add__, zip(ys)) for key, ys in members.items())
    return dict.fromkeys(rows), iterations


def run_local_fixpoint(terms, view_name: str, view,
                       partial_aggregation: bool, broadcast_tables,
                       delta_rows, max_iters: int) -> tuple[object, int]:
    """The clique's own iteration step over a private one-partition
    state — merge the delta, derive from the fresh rows, repeat until
    nothing new derives.  ``terms`` are :attr:`CliqueStep.terms` entries,
    so any view shape runs here: aggregate heads, negated terms and terms
    that read the evolving state.  Shared verbatim by the driver's
    decomposed path and the process-backend worker."""
    step = CliqueStep({view_name: view}, terms, 1, partial_aggregation)
    step.broadcast_tables = broadcast_tables
    delta = list(delta_rows)
    iterations = 0
    while delta:
        iterations += 1
        if iterations > max_iters:
            raise FixpointNotReachedError(
                "decomposed local fixpoint exceeded budget",
                iterations - 1)
        step.merge(0, {view_name: delta})
        delta = step.derive(0).get(view_name, {}).get(0, [])
    return step.states[view_name].partitions[0], iterations


def decomposed_runner(operator) -> str:
    """Which runner this clique's local fixpoints use: ``"grouped"``
    when every term has the column-decomposed shape, else ``"local"``."""
    if all(t.grouped_spec is not None for t in operator.planned.terms):
        return "grouped"
    return "local"


def execute_decomposed(operator, incoming: dict[str, Dataset]) -> int:
    """Independent per-partition fixpoints; no shuffle, no sync."""
    (view_name, view), = operator.planned.views.items()
    terms = operator.planned.terms
    cluster = operator.cluster
    global_state = operator.states[view_name]
    tables = operator.runtime.broadcast_tables
    max_iters = operator.config.max_iterations
    delta_partitions = incoming[view_name].partitions

    runner = decomposed_runner(operator)
    if runner == "grouped":
        specs = [term.grouped_spec for term in terms]
        cluster.metrics.inc("kernel_grouped_fixpoint_stages")

        def run(delta_rows):
            return run_grouped_fixpoint(specs, tables, delta_rows, max_iters)
    else:
        def run(delta_rows):
            return run_local_fixpoint(
                operator.step.terms, view_name, view,
                operator.config.partial_aggregation, tables, delta_rows,
                max_iters)

    tasks = []
    for p in range(operator.n):
        fn, payload = run, None
        if operator.session_id is not None:
            # Stateless per-partition fixpoints ship whole: the worker
            # runs the same shared runner over the same delta rows.
            fn = remote_task_stub
            payload = ("decompose", operator.session_id, p, runner,
                       list(delta_partitions[p].rows))
        tasks.append(StageTask(
            p, [delta_partitions[p]], fn,
            preferred_worker=cluster.worker_for_partition(p),
            payload=payload))
    results = cluster.run_stage("fixpoint-decomposed", tasks)
    operator.release_consumed_shuffles(incoming)
    iterations = 0
    per_partition: dict[int, int] = {}
    for result in results:
        local_partition, local_iterations = result.output
        global_state.replace_partition(result.index, local_partition)
        per_partition[result.index] = local_iterations
        iterations = max(iterations, local_iterations)
        cluster.memory.charge(
            "state", view_name, result.index,
            cluster.worker_for_partition(result.index),
            global_state.partition_size_bytes(result.index))
    cluster.metrics.inc("iterations", iterations)
    span = cluster.tracer.current
    if span is not None:
        # Decomposed fixpoints have no global iteration barrier; record
        # each partition's local iteration count on the enclosing span,
        # and which runner counted them.
        span.annotate(local_iterations=per_partition, runner=runner)
    return iterations
