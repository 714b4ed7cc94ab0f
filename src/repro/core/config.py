"""Execution configuration: every optimization knob of Sections 6–7.

The defaults reproduce the paper's reference configuration ("RaSQL is
configured to execute queries using shuffle-hash join and optimized DSN
evaluation with stage combination and code generation", Section 8); each
benchmark flips exactly the knob its figure ablates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["DEFAULT_CHECKPOINT_INTERVAL", "DEFAULT_CONFIG", "ExecutionConfig"]

#: The interval the CLI's bare ``--checkpoint DIR`` (no explicit
#: ``--checkpoint-interval``) uses, and the one the overhead benchmark's
#: <10% acceptance bound is measured at.
DEFAULT_CHECKPOINT_INTERVAL = 4


@dataclass(frozen=True)
class ExecutionConfig:
    """Knobs of the fixpoint operator and its physical plans.

    evaluation:
        ``"dsn"`` — distributed semi-naive (Algorithms 4–6), the default.
        ``"naive"`` — Algorithm 1/2: re-derive from the full relation each
        iteration (used by the PreM tool and semantics tests).
        ``"stratified"`` — ignore head aggregates during recursion and
        apply them afterwards (Figure 1's comparison); may not terminate
        on cyclic data, exactly as the paper warns.
    stage_combination:
        Fuse Reduce(i) with Map(i+1) into one ShuffleMap stage
        (Section 7.1, Figure 5).
    join_strategy:
        ``"shuffle_hash"`` (cached base build side), ``"sort_merge"``
        (cached sorted base run) — Appendix D / Figure 11.  Either applies
        only where the co-partitioned path is available; other rules use
        broadcast joins.
    broadcast_bases:
        Force every base relation to be broadcast instead of co-partitioned
        (the decomposed plan of Section 7.2 requires this; it is also the
        fallback for multi-join and theta rules).
    broadcast_compression:
        Broadcast the compressed rows and rebuild hash tables on workers
        instead of shipping the built hash table (Section 7.2, Figure 6).
    decomposed_plans:
        Run decomposable cliques (Section 7.2) as independent per-partition
        fixpoints with no shuffle.
    codegen:
        Fuse each rule pipeline into one generated Python function
        (Section 7.3, Figure 7) instead of running the interpreted
        step chain.
        The fixpoint hot path has one implementation (the specialised
        loops of :mod:`repro.engine.kernels`) whatever the input size;
        ``False`` is also the oracle the ``kernels`` differential suite
        compares the generated path against.
    partial_aggregation:
        Map-side combine before the shuffle (Algorithm 5 line 5).
    use_setrdd:
        Mutable all-relation state (Section 6.1).  ``False`` re-creates the
        state dict/set every iteration, modelling immutable RDD lineage —
        the SetRDD ablation.
    magic_filters:
        Seed the recursion with the final SELECT's equality constants on
        delta-preserved columns (a lightweight magic-sets rewrite; see
        :func:`repro.core.optimizer.magic_filter_pushdown`).
    max_iterations:
        Safety budget; exceeding it raises
        :class:`repro.errors.FixpointNotReachedError`.  Also bounds the
        SQL-loop baseline's iteration budget
        (:class:`repro.baselines.sql_loop.SQLLoopEngine`).
    deadline_seconds:
        Cooperative per-query deadline in *simulated* seconds (``None``
        disables it).  The cluster checks the simulated clock at stage
        boundaries and raises
        :class:`repro.errors.QueryDeadlineExceededError` — with the
        partial trace attached — once the clock passes the deadline.
        Exposed on the CLI as ``--timeout``.
    checkpoint_interval:
        Persist a durable fixpoint checkpoint every N completed
        iterations (``0`` disables).  Checkpointing is *active* only
        when both this and ``checkpoint_dir`` are set; each knob alone
        is valid but inert, so configs can be composed piecewise.
        While active, decomposed plans are disabled for the checkpointed
        clique (their per-partition local fixpoints have no global
        iteration barrier to cut a consistent checkpoint at).  CLI:
        ``--checkpoint-interval``.
    checkpoint_dir:
        Directory receiving checkpoint blobs and the per-query manifest
        (see :mod:`repro.core.checkpoint`).  A killed or
        deadline-exceeded query resumes from its last completed
        checkpointed iteration via :meth:`repro.RaSQLContext.resume`.
        CLI: ``--checkpoint DIR``.
    backend:
        ``"simulated"`` — the deterministic single-process cluster (the
        oracle every differential suite compares against).
        ``"process"`` — real OS worker processes (spawn-start
        ``multiprocessing``) behind the same cluster abstraction, with
        supervision: heartbeats, hung-task reaping, crash replay, poison
        quarantine (see :mod:`repro.engine.backend`).  Results are
        bit-exact either way; only wall-clock parallelism changes.
        Knobs for the supervision layer live in
        :class:`repro.engine.backend.ProcessConfig` (a cluster-level
        concern, not a per-query plan knob).  CLI: ``--backend``.
    """

    evaluation: str = "dsn"
    stage_combination: bool = True
    join_strategy: str = "shuffle_hash"
    broadcast_bases: bool = False
    broadcast_compression: bool = True
    decomposed_plans: bool = True
    codegen: bool = True
    partial_aggregation: bool = True
    use_setrdd: bool = True
    magic_filters: bool = True
    max_iterations: int = 100_000
    deadline_seconds: float | None = None
    checkpoint_interval: int = 0
    checkpoint_dir: str | None = None
    backend: str = "simulated"

    @property
    def checkpointing(self) -> bool:
        """True when checkpoints will actually be written."""
        return self.checkpoint_interval > 0 and self.checkpoint_dir is not None

    def __post_init__(self):
        if self.evaluation not in ("dsn", "naive", "stratified"):
            raise ValueError(f"unknown evaluation mode {self.evaluation!r}")
        if self.join_strategy not in ("shuffle_hash", "sort_merge"):
            raise ValueError(f"unknown join strategy {self.join_strategy!r}")
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError(
                f"deadline_seconds must be positive, got "
                f"{self.deadline_seconds}")
        if self.checkpoint_interval < 0:
            raise ValueError(
                f"checkpoint_interval must be >= 0, got "
                f"{self.checkpoint_interval}")
        if self.backend not in ("simulated", "process"):
            raise ValueError(f"unknown backend {self.backend!r}")

    def but(self, **changes) -> "ExecutionConfig":
        """A copy with some knobs changed (benchmark convenience)."""
        return replace(self, **changes)


#: The paper's reference configuration.
DEFAULT_CONFIG = ExecutionConfig()
