"""Decomposed execution (Section 7.2): independent per-partition fixpoints.

For decomposable plans each partition runs its own local fixpoint against
broadcast bases with no shuffle and no synchronization.  Three runners
exist for that local fixpoint: the column-decomposed and the fused set
fixpoints (stateless, so the process backend ships them whole — the pool
worker calls the very same functions), and the reference loop that works
for any view shape and only ever runs driver-side.
"""

from __future__ import annotations

from repro.core.iteration import CliqueStep
from repro.core.physical import (
    CompiledTerm,
    HashJoinStep,
    TermRuntime,
    TotalizeStep,
)
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
    ``derived_any`` mirrors the reference loop's accounting: a final
    round that derives only duplicates still counts.  Shared verbatim by
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
        # The reference loop runs one more (all-duplicate) round before
        # its union comes back empty.
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


def run_fused_fixpoint(dedup_fns, broadcast_tables, delta_rows,
                       max_iters: int) -> tuple[set, int]:
    """Set-view fast path: each generated term emits the round's derived
    rows (duplicates included) from one comprehension, and the union pass
    collapses to C-level set algebra.  The first occurrence of a new row
    counts as fresh and every other derived occurrence as a duplicate —
    exactly the reference loop's accounting — so ``dups`` reproduces its
    iteration count: a final round that derives only duplicates still
    counts there.  Shared verbatim by the driver's decomposed path and
    the process-backend worker.
    """
    local_runtime = TermRuntime()
    local_runtime.broadcast_tables = broadcast_tables
    members = set(delta_rows)
    delta = list(members)
    single = dedup_fns[0] if len(dedup_fns) == 1 else None
    iterations = 0
    dups = 0
    while delta:
        iterations += 1
        if iterations > max_iters:
            raise FixpointNotReachedError(
                "decomposed local fixpoint exceeded budget",
                iterations - 1)
        if single is not None:
            derived = single(delta, 0, local_runtime)
        else:
            derived = []
            for fn in dedup_fns:
                derived.extend(fn(delta, 0, local_runtime))
        fresh = set(derived)
        fresh.difference_update(members)
        dups = len(derived) - len(fresh)
        members.update(fresh)
        delta = list(fresh)
    if dups:
        # The reference loop runs one more (all-duplicate) round before
        # its union comes back empty.
        iterations += 1
        if iterations > max_iters:
            raise FixpointNotReachedError(
                "decomposed local fixpoint exceeded budget",
                iterations - 1)
    return members, iterations


def run_local_fixpoint(terms, view_name: str, view,
                       partial_aggregation: bool, broadcast_tables,
                       delta_rows, max_iters: int) -> tuple[object, int]:
    """The reference local loop: the clique's own iteration step over a
    private one-partition state — merge the delta, derive from the fresh
    rows, repeat until nothing new derives.  Handles aggregate heads and
    terms that read the evolving state, which the two set runners above
    cannot."""
    step = CliqueStep(
        {view_name: view},
        [(t.view, t.delta_view, t.negate, t.evaluate, t.folds)
         for t in terms], 1, partial_aggregation)
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


def _dedup_fusable(term: CompiledTerm) -> bool:
    """Fused dedup must not read evolving state mid-round: its inline
    adds would be visible where the reference path's union defers them
    to the next round."""
    if term.codegen_dedup_fn is None:
        return False
    for step in term.steps:
        if isinstance(step, TotalizeStep):
            return False
        if (isinstance(step, HashJoinStep)
                and step.source in ("state", "delta")):
            return False
    return True


def decomposed_runner(operator) -> str | None:
    """Which stateless set runner this clique's local fixpoints can use:
    ``"grouped"``, ``"fused"``, or ``None`` for the reference loop."""
    (view,) = operator.planned.views.values()
    terms = operator.planned.terms
    if view.has_aggregates:
        return None
    if all(t.grouped_spec is not None for t in terms):
        return "grouped"
    if all(_dedup_fusable(t) for t in terms):
        return "fused"
    return None


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
    elif runner == "fused":
        dedup_fns = [term.codegen_dedup_fn for term in terms]
        cluster.metrics.inc("kernel_fused_fixpoint_stages")

        def run(delta_rows):
            return run_fused_fixpoint(dedup_fns, tables, delta_rows,
                                      max_iters)
    else:
        def run(delta_rows):
            return run_local_fixpoint(
                terms, view_name, view, operator.config.partial_aggregation,
                tables, delta_rows, max_iters)

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
        # each partition's local iteration count on the enclosing span.
        span.annotate(local_iterations=per_partition)
    return iterations
