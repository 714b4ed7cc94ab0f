"""Picklable wire forms of a fixpoint session for the process backend.

A remote-eligible clique is *installed* once on every pool worker: the
driver strips the planned clique down to exactly what the per-iteration
hot path needs — view shapes, generated term sources, prebuilt base join
structures — and each worker reconstructs live callables from it.  The
reconstruction reuses the very same factories the driver uses
(``repro.core.fixpoint``'s splitter/assembler/negator makers, the kernel
routers and fold kernels, the codegen compile environment), so a worker's
merge/derive/route round is instruction-for-instruction the code the
simulated oracle runs — the bit-exactness argument is shared code, not
parallel reimplementation.

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

from repro.engine.aggregates import BY_NAME
from repro.engine.serialization import dump_payload, load_payload

_NORM_REF = re.compile(r"_norm(\d+)")

#: Per-worker install-blob cache capacity (driver and worker mirror this
#: FIFO exactly, so a driver-predicted cache hit can never miss).
BLOB_CACHE_SLOTS = 8


@dataclass(frozen=True)
class WireView:
    """The slice of a :class:`repro.core.physical.PhysicalView` the
    worker-side merge/aggregate/route path reads."""

    name: str
    group_positions: tuple[int, ...]
    aggregate_positions: tuple[int, ...]
    #: Aggregate *names*; the live function objects are re-looked-up in
    #: ``BY_NAME`` worker-side so kernel identity gates (which compare
    #: ``is`` against the registry) keep firing.
    aggregate_names: tuple[str, ...]
    partition_key_positions: tuple[int, ...]
    two_col: bool
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
    dedup_source: str | None = None
    grouped_spec: object | None = None  # frozen GroupedDedupSpec, picklable


@dataclass(frozen=True)
class InstallSpec:
    """Everything a worker needs to run iterate/decompose tasks for one
    fixpoint session.

    ``base_partitions`` ships *all* partitions of every co-partitioned
    build to every worker (not just the worker's home partitions): after
    a crash the survivors adopt the dead worker's partitions via
    ``worker_for_partition``, and re-homing must not require a second
    install round-trip mid-recovery.
    """

    sid: str
    n: int
    num_workers: int
    views: dict[str, WireView]
    view_order: tuple[str, ...]
    terms: tuple[TermSpec, ...]
    base_partitions: dict[int, list] = field(default_factory=dict)
    broadcast_tables: dict[int, object] = field(default_factory=dict)
    partial_aggregation: bool = True
    max_iterations: int = 100_000


def build_install_spec(operator, sid: str) -> InstallSpec:
    """Strip a (set-up) :class:`repro.core.fixpoint.FixpointOperator`
    down to its wire form.  Must run after ``_setup_base_relations`` so
    the prebuilt join structures exist."""
    views = {}
    for name, view in operator.planned.views.items():
        views[name] = WireView(
            name=name,
            group_positions=tuple(view.group_positions),
            aggregate_positions=tuple(view.aggregate_positions),
            aggregate_names=tuple(fn.name for fn in view.aggregate_functions),
            partition_key_positions=tuple(view.partition_key_positions),
            two_col=operator._two_col[name],
            has_aggregates=view.has_aggregates,
        )
    terms = []
    for term in operator.planned.terms:
        dedup = getattr(term, "codegen_dedup_fn", None)
        terms.append(TermSpec(
            view=term.view,
            delta_view=term.delta_view,
            negate=term.negate,
            source=term.codegen_fn._generated_source,
            dedup_source=(dedup._generated_source
                          if dedup is not None else None),
            grouped_spec=term.grouped_spec,
        ))
    return InstallSpec(
        sid=sid,
        n=operator.n,
        num_workers=operator.cluster.num_workers,
        views=views,
        view_order=tuple(operator.planned.views),
        terms=tuple(terms),
        base_partitions=dict(operator.runtime.base_partitions),
        broadcast_tables=dict(operator.runtime.broadcast_tables),
        partial_aggregation=operator.config.partial_aggregation,
        max_iterations=operator.config.max_iterations,
    )


def split_install_spec(spec: InstallSpec) -> tuple[InstallSpec, bytes, str]:
    """Split a spec into ``(light spec, heavy blob, blob digest)``.

    The heavy part — prebuilt base join structures and broadcast tables,
    nearly all of an install's bytes and *identical across repeated
    queries over the same registered tables* — is pickled once and
    content-addressed, so the driver can skip re-sending it to a worker
    whose blob cache still holds the digest (the base-partition install
    cache; see ``process.py``).  The light spec ships every time.
    """
    heavy = dump_payload((spec.base_partitions, spec.broadcast_tables))
    digest = hashlib.sha256(heavy).hexdigest()
    light = replace(spec, base_partitions={}, broadcast_tables={})
    return light, heavy, digest


def assemble_install_spec(light: InstallSpec, heavy: bytes) -> InstallSpec:
    """Worker-side inverse of :func:`split_install_spec`."""
    base_partitions, broadcast_tables = load_payload(heavy)
    return replace(light, base_partitions=base_partitions,
                   broadcast_tables=broadcast_tables)


def recompile_term(source: str, view: str):
    """Re-execute a generated term's source under the driver's compile
    environment; returns the live function.

    The emitter references at most two kinds of free names:
    ``_build_state_table`` (state-side probe tables) and ``_norm<i>``
    (count normalization — only ``count`` aggregates ever get one, so the
    registry lookup is exact).  ``_E`` is emitted inline by the dedup
    variant and needs no environment entry.
    """
    from repro.core.codegen import _build_state_table

    env = {"_build_state_table": _build_state_table}
    for index in set(_NORM_REF.findall(source)):
        env[f"_norm{index}"] = BY_NAME["count"].normalize
    code = compile(source, f"<rasql-codegen:{view}>", "exec")
    exec(code, env)
    fn = env["_term"]
    fn._generated_source = source
    return fn
