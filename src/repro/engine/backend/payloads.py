"""Picklable wire forms of a fixpoint session for the process backend.

A remote-eligible clique (:func:`remote_ineligible_reason` says why one
is not) is *installed* once on every pool worker: the driver strips the
planned clique down to exactly what the per-iteration step needs — view
shapes, generated term sources, prebuilt base join structures — and each
worker builds a :class:`repro.core.iteration.CliqueStep` from it, the
same class the driver iterates with.  A worker's merge/derive/route
round therefore *is* the code the simulated oracle runs — the
bit-exactness argument is one implementation, not two kept in step.

Generated term functions cannot be pickled (they close over a compile
environment), but their *source text* can: codegen stamps it on the
function as ``_generated_source``, and :func:`recompile_term` rebuilds
the environment — ``_build_state_table`` plus the ``_norm<i>``
count-normalizers the emitter references — and re-executes the same
source under the same synthetic filename.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field, replace

from repro.core.physical import HashJoinStep
from repro.engine.aggregates import BY_NAME
from repro.engine.backend.base import SimulatedBackend
from repro.engine.serialization import dump_payload, load_payload

_NORM_REF = re.compile(r"_norm(\d+)")


@dataclass(frozen=True)
class WireView:
    """The slice of a :class:`repro.core.physical.PhysicalView` that
    :class:`repro.core.iteration.CliqueStep` reads."""

    group_positions: tuple[int, ...]
    aggregate_positions: tuple[int, ...]
    #: Aggregate *names*; the live function objects are re-looked-up in
    #: ``BY_NAME`` worker-side so kernel identity gates (which compare
    #: ``is`` against the registry) keep firing.
    aggregate_names: tuple[str, ...]
    partition_key_positions: tuple[int, ...]
    has_aggregates: bool

    @property
    def aggregate_functions(self):
        return [BY_NAME[name] for name in self.aggregate_names]


@dataclass(frozen=True)
class TermSpec:
    """One compiled term as source text + routing metadata."""

    view: str
    delta_view: str
    negate: bool
    source: str
    #: ``source`` is the fold variant (``CompiledTerm.folds``).
    folds: bool = False
    grouped_spec: object | None = None  # frozen GroupedDedupSpec, picklable


@dataclass(frozen=True)
class InstallSpec:
    """Everything a worker needs to run iterate/decompose tasks for one
    fixpoint session.

    ``base_partitions`` ships *all* partitions of every co-partitioned
    build to every worker (not just the worker's home partitions): after
    a crash the survivors adopt the dead worker's partitions via
    ``worker_for_partition``, and re-homing must not require a second
    install round-trip mid-recovery.  A worker *decodes* only the
    partitions it serves (:class:`HeavyHalf`); the rest stay pickled
    until a respawn or a pool shrink re-homes them there.
    """

    sid: str
    n: int
    views: dict[str, WireView]
    terms: tuple[TermSpec, ...]
    base_partitions: dict[int, list] = field(default_factory=dict)
    broadcast_tables: dict[int, object] = field(default_factory=dict)
    partial_aggregation: bool = True
    max_iterations: int = 100_000


#: ``Cluster.armed`` kinds that pin a clique to the simulated oracle,
#: with the slug :func:`remote_ineligible_reason` reports for each
#: (``process-kill`` and ``process-poison`` strike the pool itself).
_SIMULATED_INJECTORS = (
    ("task", "injector:failure"),
    ("worker-loss", "injector:worker-loss"),
    ("memory-pressure", "injector:memory-pressure"),
    ("corruption", "injector:corruption"),
    ("driver-kill", "injector:driver-kill"),
)


def remote_ineligible_reason(operator) -> str | None:
    """Why this clique's per-iteration work cannot ship to the process
    pool bit-exactly — the *first* cause, as a stable slug — or ``None``
    when it can.

    The pool runs the *DSN combined-stage* step and both decomposed
    runners (grouped and local) — nothing else.  Every feature
    that reads driver-side state mid-iteration (gather joins,
    checkpoints, memory budgets, simulated fault injectors, sim-time
    deadlines) keeps the query on the simulated oracle.  The answer only
    routes *where* the work runs; results are identical either way,
    which the ``process_backend`` differential suite enforces.
    """
    config = operator.config
    cluster = operator.cluster
    if not cluster.backend.remote_ready():
        return "backend-not-ready"
    if config.evaluation != "dsn":
        return f"evaluation={config.evaluation}"
    if not config.stage_combination:
        return "stage_combination=off"
    if not config.use_setrdd:
        return "use_setrdd=off"
    if operator.checkpointer is not None:
        return "checkpointing"
    if config.deadline_seconds is not None:
        return "deadline"
    if cluster.memory.budget_bytes is not None:
        return "memory-budget"
    for kind, slug in _SIMULATED_INJECTORS:
        if cluster.armed[kind]:
            return slug
    for term in operator.planned.terms:
        fn = term.codegen_fn
        if fn is None or getattr(fn, "_generated_source", None) is None:
            return "term-not-codegen"
        for step in term.steps:
            if isinstance(step, HashJoinStep) and step.gather:
                return "gather-join"
    return None


def remote_task_stub(*_inputs):
    """Placeholder ``fn`` for payload-carrying tasks: the process backend
    claims the whole batch, so this should never execute driver-side."""
    raise RuntimeError(
        "remote payload task executed driver-side; the process backend "
        "should have claimed this batch")


def open_remote_session(operator, span) -> None:
    """On a real-process backend, install the (set-up) operator's clique
    on every pool worker so its iterate/decompose work ships
    (``operator.session_id``) — or record on ``span`` and in the
    ``process_remote_ineligible`` counter why it stays on the driver, so
    a ``backend="process"`` query never degrades silently."""
    backend = operator.cluster.backend
    if isinstance(backend, SimulatedBackend):
        return
    reason = remote_ineligible_reason(operator)
    if reason is not None:
        span.annotate(remote_ineligible=reason)
        operator.cluster.metrics.inc("process_remote_ineligible")
        return
    sid = backend.new_session_id()
    spec = build_install_spec(operator, sid)
    pickled = None
    sides = operator.side_keys
    if operator.base_sides is not None \
            and len(sides) == len(operator.planned.base_plans):
        # Every base side came through the cross-query cache, so the
        # heavy half is a function of their keys and epochs: pickle and
        # hash it once per epoch of its tables, not once per query.  (The
        # bytes of a grown table are pickled anew — a blob cannot absorb.)
        pickled, outcome = operator.base_sides.get(
            ("install", *((step, key) for step, (key, _) in sides.items())),
            tuple(epoch for _, epoch in sides.values()),
            lambda: pickle_heavy_half(spec))
        if outcome == "hits":
            operator.cluster.metrics.inc("process_install_blob_reused")
    backend.install_session(spec, pickled)
    operator.session_id = sid


def collect_remote_states(operator) -> None:
    """Pull final state partitions back from the pool into the driver's
    (empty) state structures before results are read."""
    collected = operator.cluster.backend.collect_states(operator.session_id)
    for name, parts in collected.items():
        state = operator.states[name]
        for partition, data in parts.items():
            state.replace_partition(partition, data)


def build_install_spec(operator, sid: str) -> InstallSpec:
    """Strip a (set-up) :class:`repro.core.fixpoint.FixpointOperator`
    down to its wire form.  Must run after ``_setup_base_relations`` so
    the prebuilt join structures exist."""
    views = {}
    for name, view in operator.planned.views.items():
        views[name] = WireView(
            group_positions=tuple(view.group_positions),
            aggregate_positions=tuple(view.aggregate_positions),
            aggregate_names=tuple(fn.name for fn in view.aggregate_functions),
            partition_key_positions=tuple(view.partition_key_positions),
            has_aggregates=view.has_aggregates,
        )
    terms = []
    for term in operator.planned.terms:
        terms.append(TermSpec(
            view=term.view,
            delta_view=term.delta_view,
            negate=term.negate,
            source=term.codegen_fn._generated_source,
            folds=term.folds,
            grouped_spec=term.grouped_spec,
        ))
    return InstallSpec(
        sid=sid,
        n=operator.n,
        views=views,
        terms=tuple(terms),
        base_partitions=dict(operator.runtime.base_partitions),
        broadcast_tables=dict(operator.runtime.broadcast_tables),
        partial_aggregation=operator.config.partial_aggregation,
        max_iterations=operator.config.max_iterations,
    )


def pickle_heavy_half(spec: InstallSpec) -> tuple[bytes, str]:
    """``(blob, content digest)`` of a spec's heavy half: the prebuilt
    base join structures and broadcast tables, nearly all of an install's
    bytes.  Each partition's co-partitioned sides (one per join step, in
    ``base_partitions`` order) are pickled on their own inside the blob,
    so a worker decodes only the partitions it serves (:class:`HeavyHalf`).
    """
    steps = tuple(spec.base_partitions)
    partitions = [dump_payload(tuple(spec.base_partitions[step][p]
                                     for step in steps))
                  for p in range(spec.n)]
    heavy = dump_payload((steps, partitions, spec.broadcast_tables))
    return heavy, hashlib.sha256(heavy).hexdigest()


def split_install_spec(spec: InstallSpec,
                       pickled: tuple[bytes, str] | None = None
                       ) -> tuple[InstallSpec, bytes, str]:
    """Split a spec into ``(light spec, heavy blob, blob digest)``.

    The heavy half (:func:`pickle_heavy_half`; ``pickled`` when the
    caller already holds it) is *identical across repeated queries over
    the same registered tables* and content-addressed, so the driver can
    skip re-sending it to a worker whose blob cache still holds the digest
    (the base-partition install cache; see ``process.py``).  The light
    spec ships every time.
    """
    heavy, digest = pickled or pickle_heavy_half(spec)
    light = replace(spec, base_partitions={}, broadcast_tables={})
    return light, heavy, digest


class HeavyHalf:
    """Worker-side inverse of :func:`pickle_heavy_half`.

    The broadcast tables are decoded on arrival.  A partition's
    co-partitioned sides stay pickled until :meth:`decode` asks for them —
    before the first task for that partition on this worker starts its
    clock — and then stay decoded for the life of the half.  Until then
    ``base_partitions[step][partition]`` is ``None``, so a probe of a side
    nobody decoded raises instead of joining with nothing.  (Decomposed
    cliques have no co-partitioned sides — the planner builds them only
    ``and not ctx.decomposed`` — so each of their partitions decodes an
    empty tuple.)
    """

    def __init__(self, heavy: bytes):
        steps, self.pickled, self.broadcast_tables = load_payload(heavy)
        self.base_partitions: dict[int, list] = {
            step: [None] * len(self.pickled) for step in steps}

    def decode(self, partition: int) -> None:
        blob = self.pickled[partition]
        if blob is None:
            return
        for sides, side in zip(self.base_partitions.values(),
                               load_payload(blob)):
            sides[partition] = side
        self.pickled[partition] = None


def recompile_term(source: str, view: str):
    """Re-execute a generated term's source under the driver's compile
    environment; returns the live function.

    The emitter references at most two kinds of free names:
    ``_build_state_table`` (state-side probe tables) and ``_norm<i>``
    (count normalization — only ``count`` aggregates ever get one, so the
    registry lookup is exact).
    """
    from repro.core.codegen import _build_state_table, compile_term

    env = {"_build_state_table": _build_state_table}
    for index in set(_NORM_REF.findall(source)):
        env[f"_norm{index}"] = BY_NAME["count"].normalize
    exec(compile_term(source, view), env)
    fn = env["_term"]
    fn._generated_source = source
    return fn
