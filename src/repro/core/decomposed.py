"""Decomposed execution (Section 7.2): independent per-partition fixpoints.

For decomposable plans each partition runs its own local fixpoint against
broadcast bases with no shuffle and no synchronization.  Two runners
exist for that local fixpoint, both stateless, so the process backend
ships them whole and the pool worker calls the very same functions: the
column-decomposed set kernel for transitive closure's shape, and the
clique's own iteration step over one partition for every other shape.
"""

from __future__ import annotations

from repro.core.iteration import CliqueStep
from repro.engine.backend.payloads import remote_task_stub
from repro.engine.cluster import StageTask
from repro.engine.dataset import Dataset
from repro.engine.kernels import make_extractor
from repro.errors import FixpointNotReachedError


def run_grouped_fixpoint(grouped_specs, broadcast_tables, delta_rows,
                         max_iters: int) -> tuple[set, int]:
    """Column-decomposed set fixpoint (see ``GroupedDedupSpec``).

    Members live as ``prefix -> {last column}``; each round collects the
    adjacency sets hit by the delta, unions them per prefix and subtracts
    the already-known values — all C-level set algebra over bare column
    values.  Duplicate derivations (the bulk of a transitive closure's
    work) are collapsed before any row tuple is built or hashed.
    ``derived_any`` mirrors the local loop's accounting: a final round
    that derives only duplicates still counts.  Shared verbatim by
    the driver's decomposed path and the process-backend worker.
    """
    pair = all(len(spec.prefix) == 1 for spec in grouped_specs)
    probes = []
    for spec in grouped_specs:
        col = spec.build_index  # None: the side stores the bare column
        adj = {k: set(rows) if col is None else {r[col] for r in rows}
               for k, rows in broadcast_tables[spec.step_id].items()}
        probes.append((make_extractor(spec.probe),
                       make_extractor(spec.prefix), adj.get))
    seed = set(delta_rows)
    members: dict = {}
    for row in seed:
        key = row[0] if pair else row[:-1]
        known = members.get(key)
        if known is None:
            members[key] = {row[-1]}
        else:
            known.add(row[-1])
    delta = list(seed)
    iterations = 0
    derived_any = False
    while delta:
        iterations += 1
        if iterations > max_iters:
            raise FixpointNotReachedError(
                "decomposed local fixpoint exceeded budget",
                iterations - 1)
        groups: dict = {}
        gget = groups.get
        for probe, prefix, aget in probes:
            for d in delta:
                adj_set = aget(probe(d))
                if adj_set is not None:
                    key = prefix(d)
                    group = gget(key)
                    if group is None:
                        groups[key] = [adj_set]
                    else:
                        group.append(adj_set)
        derived_any = bool(groups)
        delta = []
        extend = delta.extend
        mget = members.get
        for key, sets in groups.items():
            candidates = (sets[0] if len(sets) == 1
                          else sets[0].union(*sets[1:]))
            known = mget(key)
            if known is None:
                fresh = set(candidates)  # adj sets stay pristine
                members[key] = fresh
            else:
                fresh = candidates - known
                if not fresh:
                    continue
                known.update(fresh)
            if pair:
                extend((key, y) for y in fresh)
            else:
                extend(key + (y,) for y in fresh)
    if derived_any:
        # The local loop runs one more (all-duplicate) round before its
        # merge comes back empty.
        iterations += 1
        if iterations > max_iters:
            raise FixpointNotReachedError(
                "decomposed local fixpoint exceeded budget",
                iterations - 1)
    if pair:
        rows = {(key, y) for key, ys in members.items() for y in ys}
    else:
        rows = {key + (y,) for key, ys in members.items() for y in ys}
    return rows, iterations


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
