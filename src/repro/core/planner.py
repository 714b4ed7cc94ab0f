"""Physical planning: logical clique plans → compiled fixpoint inputs.

This is where the paper's physical choices are made (Sections 6–7,
Appendix D):

- **Partition keys.** Each clique view is hash-partitioned on the columns
  through which recursive rules join it (Algorithm 4's requirement that
  the reduce key equal the join key).  Views only referenced join-lessly
  default to their group key.
- **Delta expansion.** A rule with one recursive reference yields one
  term; with two references it yields the two classic semi-naive cross
  terms, plus a negated δ⋈δ inclusion-exclusion correction when the head
  aggregates are ``sum``/``count`` (set and min/max semantics absorb the
  overlap, accumulation does not).
- **Join strategy.** The first join of a term runs co-partitioned
  (shuffle-hash with cached base build side, or sort-merge) when the
  delta-side equi columns are exactly the view's partition key; every
  other base input is broadcast; non-equi inputs fall back to nested
  loops.  Sibling-state joins are co-partitioned when keys align and
  gather otherwise.
- **Increment vs total.** For ``sum``/``count`` delta views, a term that
  filters or joins on the aggregate column reads group *totals*
  (TotalizeStep); linear propagation reads increments.  Mixing both in one
  rule is rejected as unsupported.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.core import ast_nodes as ast
from repro.core.config import ExecutionConfig
from repro.core.decompose import decompose_keys
from repro.core.expressions import (
    Layout,
    compile_expr,
    conjoin,
    referenced_bindings,
)
from repro.core.logical import (
    CliquePlan,
    JoinNode,
    RecursiveScanNode,
    RulePlan,
    ScanNode,
)
from repro.core.physical import (
    BaseRelationPlan,
    CompiledTerm,
    FilterStep,
    HashJoinStep,
    NestedLoopStep,
    PhysicalClique,
    PhysicalView,
    SortMergeJoinStep,
    Step,
    TotalizeStep,
    make_projector,
)
from repro.engine.kernels import head_shape
from repro.errors import PlanningError


# ---------------------------------------------------------------------------
# partition keys
# ---------------------------------------------------------------------------


def _equi_slot_pairs(rule: RulePlan) -> list[tuple[int, int]]:
    """Equi conjuncts as (slot, slot) pairs over the rule layout."""
    pairs = []
    for left, right in rule.join.equi_conjuncts:
        pairs.append((rule.layout.slot_of(left), rule.layout.slot_of(right)))
    return pairs


def _segment_of(rule: RulePlan, input_index: int) -> tuple[int, int]:
    """(offset, arity) of one join input's slot segment."""
    node = rule.join.inputs[input_index]
    offset = rule.layout.offsets[node.binding.lower()]
    return offset, len(node.columns)


def _compile_scan_filter(node: ScanNode, pushed: ast.Expr | None):
    """The filter pushed onto a scan, compiled over the relation's own
    row (the single-binding layout); ``None`` without one."""
    if pushed is None:
        return None
    return compile_expr(pushed, Layout([(node.binding, node.columns)]))


def _reference_key_candidates(view_name: str, clique: CliquePlan
                              ) -> list[tuple[int, ...]]:
    """Join-key position tuples for every recursive reference of a view."""
    target = view_name.lower()
    candidates = []
    for view in clique.views:
        for rule in view.recursive_rules:
            pairs = _equi_slot_pairs(rule)
            for index in rule.recursive_inputs():
                node = rule.join.inputs[index]
                if node.view.lower() != target:
                    continue
                offset, arity = _segment_of(rule, index)
                positions = set()
                for a, b in pairs:
                    inside_a = offset <= a < offset + arity
                    inside_b = offset <= b < offset + arity
                    if inside_a != inside_b:
                        positions.add((a if inside_a else b) - offset)
                if positions:
                    candidates.append(tuple(sorted(positions)))
    return candidates


def plan_partition_keys(clique: CliquePlan,
                        effective_aggregates: dict[str, tuple]) -> dict[str, tuple[int, ...]]:
    """Choose the hash-partition key positions of every clique view."""
    keys: dict[str, tuple[int, ...]] = {}
    for view in clique.views:
        name = view.name.lower()
        aggregates = effective_aggregates[name]
        group_positions = tuple(i for i, a in enumerate(aggregates) if a is None)
        candidates = _reference_key_candidates(view.name, clique)
        if any(a is not None for a in aggregates):
            # Partitioning must be a function of the group key, or groups
            # would straddle partitions.
            candidates = [c for c in candidates
                          if set(c) <= set(group_positions)]
            default = group_positions
        else:
            default = tuple(range(len(view.columns)))
        if candidates:
            keys[name] = Counter(candidates).most_common(1)[0][0]
        else:
            keys[name] = default if default else (0,)
    return keys


# ---------------------------------------------------------------------------
# term compilation
# ---------------------------------------------------------------------------


class _StepIds:
    """Monotonic step-id allocator shared across one clique's terms."""

    def __init__(self):
        self.next_id = 0

    def take(self) -> int:
        value = self.next_id
        self.next_id += 1
        return value


@dataclass
class _TermContext:
    clique: CliquePlan
    views: dict[str, PhysicalView]
    config: ExecutionConfig
    decomposed: bool
    step_ids: _StepIds
    base_plans: list[BaseRelationPlan]


def _delta_value_mode(rule: RulePlan, delta_index: int,
                      delta_view: PhysicalView) -> str:
    """``"increment"`` or ``"total"`` for a sum/count delta (see module doc)."""
    accumulating = [p for p, a in enumerate(delta_view.aggregates)
                    if a is not None and a.name in ("sum", "count")]
    if not accumulating:
        return "increment"

    offset, arity = _segment_of(rule, delta_index)
    agg_slots = {offset + p for p in accumulating}

    def touches(exprs) -> bool:
        for expr in exprs:
            for node in expr.walk():
                if isinstance(node, ast.ColumnRef):
                    if rule.layout.slot_of(node) in agg_slots:
                        return True
        return False

    filter_exprs = list(rule.join.residual)
    filter_exprs += [side for pair in rule.join.equi_conjuncts for side in pair]
    in_filter = touches(filter_exprs)
    in_projection = touches(rule.projections)
    if in_filter and in_projection:
        raise PlanningError(
            f"rule of view {rule.view!r} both filters on and propagates the "
            f"sum/count column of {delta_view.name!r}; increment semantics "
            f"cannot express this (see DESIGN.md)")
    return "total" if in_filter else "increment"


def _compile_pipeline(ctx: _TermContext, target: PhysicalView, rule: RulePlan,
                      driving: int, rec_sources: dict[int, str],
                      driving_key: tuple[int, ...] | None = None,
                      delta_view: str = "", prelude: tuple[Step, ...] = (),
                      negate: bool = False) -> CompiledTerm:
    """Compile the pipeline of *rule* driven by the rows of input ``driving``.

    This is the one place a rule's join order, conjunct placement, scan
    distribution and projection are decided; recursive terms, base rules
    and maintenance terms differ only in the data they pass:

    - ``rec_sources`` maps each non-driving recursive input to the
      relation it joins — ``"state"`` or ``"delta"`` (δ⋈δ correction
      terms).  An input it does not name may not be recursive.
    - ``driving_key`` is the partition key (positions within the driving
      rows) those rows arrive hash-partitioned on, ``None`` when they are
      not partitioned (a base rule's scan chunks, an insert batch).  A
      join probed by exactly that key runs partition-local: the first
      base join co-partitioned, a recursive reference against the aligned
      state partition.  Everything else broadcasts or gathers.
    - ``prelude`` steps run on the driving rows before anything else.
    """
    layout = rule.layout
    arity = layout.arity
    join: JoinNode = rule.join
    driving_node = join.inputs[driving]
    segments = [_segment_of(rule, i) for i in range(len(join.inputs))]
    driving_offset, driving_arity = segments[driving]

    pairs = _equi_slot_pairs(rule)
    bound_bindings = {driving_node.binding.lower()}
    bound_slots = set(range(driving_offset, driving_offset + driving_arity))
    pending = [i for i in range(len(join.inputs)) if i != driving]
    unplaced = list(join.residual)

    def take_evaluable(bindings: set[str]) -> list[ast.Expr]:
        """Remove and return the residual conjuncts over *bindings* only."""
        taken, rest = [], []
        for conjunct in unplaced:
            evaluable = referenced_bindings(conjunct, layout) <= bindings
            (taken if evaluable else rest).append(conjunct)
        unplaced[:] = rest
        return taken

    def filters() -> list[FilterStep]:
        return [FilterStep(compile_expr(c, layout), c.to_sql(), c)
                for c in take_evaluable(bound_bindings)]

    steps: list[Step] = [*prelude, *filters()]
    first_plan = len(ctx.base_plans)
    first_join = True
    while pending:
        # Prefer an input reachable through an equi conjunct.
        chosen, join_pairs = pending[0], []  # (probe slot, build slot)
        for index in pending:
            offset, input_arity = segments[index]
            slots = range(offset, offset + input_arity)
            matched = []
            for a, b in pairs:
                if a in slots and b in bound_slots:
                    matched.append((b, a))
                elif b in slots and a in bound_slots:
                    matched.append((a, b))
            if matched:
                chosen, join_pairs = index, sorted(matched)
                break
        pending.remove(chosen)

        node = join.inputs[chosen]
        segment = offset, input_arity = segments[chosen]
        probe_slots = tuple(p for p, _ in join_pairs)
        build_slots = tuple(b for _, b in join_pairs)
        # Every probe slot is a driving column and together they are the
        # key (a slot outside the driving segment is no key position, and
        # a partition key is never empty).
        on_driving_key = tuple(sorted(
            s - driving_offset for s in probe_slots)) == driving_key

        if isinstance(node, RecursiveScanNode):
            if chosen not in rec_sources:
                raise PlanningError(
                    f"rule of view {rule.view!r} cannot reference recursive "
                    f"view {node.view!r} here")
            if not join_pairs:
                raise PlanningError(
                    f"recursive reference {node.view!r} in a rule of "
                    f"{rule.view!r} has no equi-join condition; cross "
                    f"products over recursive state are not supported")
            # Aligned when the driving side is keyed on its partition key
            # and the state side on its own.
            state_key = tuple(sorted(b - offset for b in build_slots))
            aligned = (on_driving_key and state_key == ctx.views[
                node.view.lower()].partition_key_positions)
            steps.append(HashJoinStep(
                ctx.step_ids.take(), rec_sources[chosen], probe_slots,
                build_slots, segment, state_view=node.view.lower(),
                gather=not aligned))
        else:
            assert isinstance(node, ScanNode)
            step_id = ctx.step_ids.take()
            mode = "broadcast"
            if (first_join and on_driving_key
                    and not ctx.config.broadcast_bases
                    and not ctx.decomposed):
                mode = "copartition"
                if ctx.config.join_strategy == "sort_merge":
                    steps.append(SortMergeJoinStep(step_id, probe_slots,
                                                   build_slots, segment))
                else:
                    steps.append(HashJoinStep(
                        step_id, "base_partition", probe_slots, build_slots,
                        segment))
            elif join_pairs:
                steps.append(HashJoinStep(
                    step_id, "broadcast", probe_slots, build_slots, segment))
            else:
                # Theta or cross join: the conjuncts that become evaluable
                # exactly now are fused into the loop.
                theta = take_evaluable(bound_bindings | {node.binding.lower()})
                predicate = (compile_expr(conjoin(theta), layout)
                             if theta else None)
                steps.append(NestedLoopStep(step_id, predicate, segment,
                                            tuple(theta)))
            ctx.base_plans.append(BaseRelationPlan(
                step_id, node.relation, node.binding, mode, offset, arity,
                build_slots, _compile_scan_filter(node, node.filter),
                node.filter.to_sql() if node.filter is not None else "",
                bool(join_pairs)))

        bound_bindings.add(node.binding.lower())
        bound_slots.update(range(offset, offset + input_arity))
        first_join = False
        steps.extend(filters())

    if unplaced:
        raise PlanningError("internal: unconsumed residual conjuncts")

    if ctx.config.codegen and not any(
            isinstance(step, SortMergeJoinStep) for step in steps):
        # Build-side column pruning.  The term will be
        # generated code — without a sort-merge step a planner-built
        # term always is: codegen supports every expression
        # ``compile_expr`` does, and the plan snapshot pins that only
        # sort-merge terms stay interpreted — so a base hash side stores
        # only the columns read once its probe has matched: the
        # projection's, the residual and theta predicates' and later
        # joins' probe keys (its own build key is consumed by the hash
        # table, not read).
        read = {layout.slot_of(node)
                for expr in (*rule.projections, *join.residual)
                for node in expr.walk() if isinstance(node, ast.ColumnRef)}
        plans = {plan.step_id: plan for plan in ctx.base_plans[first_plan:]}
        for step in steps:
            if isinstance(step, HashJoinStep):
                read.update(step.probe_slots)
        for step in steps:
            if isinstance(step, HashJoinStep) and step.step_id in plans:
                offset, width = step.build_segment
                positions = tuple(p for p in range(width)
                                  if offset + p in read)
                if len(positions) < width:
                    step.read_positions = positions
                    plans[step.step_id].read_positions = positions

    # A filter the optimizer pushed onto the driving scan runs on the
    # driving rows themselves (recursive references never carry one).
    prefilter = (driving_node.filter if isinstance(driving_node, ScanNode)
                 else None)
    compiled_projections = [compile_expr(e, layout) for e in rule.projections]
    return CompiledTerm(
        view=target.name.lower(),
        delta_view=delta_view,
        delta_offset=driving_offset,
        delta_arity=driving_arity,
        arity=arity,
        steps=steps,
        project=make_projector(compiled_projections, target.aggregates),
        delta_prefilter=_compile_scan_filter(driving_node, prefilter),
        negate=negate,
        rule=rule,
        prefilter_expr=prefilter,
    )


def _compile_term(ctx: _TermContext, target: PhysicalView, rule: RulePlan,
                  delta_index: int, other_rec_sources: dict[int, str],
                  negate: bool) -> CompiledTerm:
    """Compile one delta-expansion term of one rule.

    ``other_rec_sources`` maps non-delta recursive input positions to
    ``"state"`` or ``"delta"`` (the latter only in δ⋈δ correction terms).
    """
    delta_view = ctx.views[rule.join.inputs[delta_index].view.lower()]
    prelude: tuple[Step, ...] = ()
    if _delta_value_mode(rule, delta_index, delta_view) == "total":
        segment = _segment_of(rule, delta_index)
        group_slots = tuple(segment[0] + p
                            for p in delta_view.group_positions)
        prelude = (TotalizeStep(delta_view.name.lower(), segment,
                                group_slots),)
    return _compile_pipeline(
        ctx, target, rule, delta_index, other_rec_sources,
        driving_key=delta_view.partition_key_positions,
        delta_view=delta_view.name.lower(), prelude=prelude, negate=negate)


def _expand_rule(ctx: _TermContext, target: PhysicalView,
                 rule: RulePlan) -> list[CompiledTerm]:
    """Delta-expand one recursive rule into compiled terms."""
    rec_positions = rule.recursive_inputs()
    accumulating = any(a is not None and a.name in ("sum", "count")
                       for a in target.aggregates)

    if len(rec_positions) == 1:
        (position,) = rec_positions
        return [_compile_term(ctx, target, rule, position, {}, negate=False)]

    if len(rec_positions) == 2:
        first, second = rec_positions
        terms = [
            # δ1 ⋈ all2 and all1 ⋈ δ2 — all-relations are post-merge (new).
            _compile_term(ctx, target, rule, first, {second: "state"},
                          negate=False),
            _compile_term(ctx, target, rule, second, {first: "state"},
                          negate=False),
        ]
        if accumulating:
            # Both cross terms double-count δ1 ⋈ δ2 under accumulation;
            # subtract it (inclusion–exclusion).  Idempotent semantics
            # (sets, min/max) absorb the overlap instead.
            terms.append(_compile_term(ctx, target, rule, first,
                                       {second: "delta"}, negate=True))
        return terms

    if accumulating:
        raise PlanningError(
            f"rule of view {rule.view!r} has {len(rec_positions)} recursive "
            f"references with sum/count aggregates; inclusion-exclusion "
            f"beyond two references is not implemented")
    return [_compile_term(ctx, target, rule, position,
                          {p: "state" for p in rec_positions if p != position},
                          negate=False)
            for position in rec_positions]


def _compile_base_rule(ctx: _TermContext, target: PhysicalView,
                       rule: RulePlan) -> CompiledTerm | tuple:
    """Base rules reuse the term pipeline with a scan as the driving input.

    Returns either a compiled term (driven by the full rows of its first
    FROM input; ``delta_view`` stays empty, the executor feeds it the
    scan) or, for FROM-less rules, the normalized constant rows.
    """
    if rule.join is None:
        normalize = [a.normalize if a is not None else (lambda v: v)
                     for a in target.aggregates]
        return tuple(tuple(fn(v) for fn, v in zip(normalize, row))
                     for row in rule.constant_rows)
    return _compile_pipeline(ctx, target, rule, 0, {})


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@dataclass
class PlannedBaseRule:
    """A base rule ready for one-shot evaluation at fixpoint start."""

    view: str
    #: Compiled pipeline driven by ``driving_relation`` (None → constants).
    term: CompiledTerm | None
    driving_relation: str | None
    constant_rows: tuple = ()


@dataclass
class PlannedClique(PhysicalClique):
    """PhysicalClique plus planned base rules (separate dataclass so the
    engine-facing PhysicalClique stays importable without planner types).

    ``maintenance_terms`` (filled when planning with ``maintenance=True``)
    maps a base-table name to the terms that derive new facts when rows
    are *inserted* into that table: for every rule input scanning it, a
    term driven by the new rows, joining the other inputs — recursive
    references through the (gathered) current state, sibling scans through
    broadcast tables.  This is the incremental-view-maintenance machinery
    of :mod:`repro.core.streaming`.
    """

    base_rules: list[PlannedBaseRule] = None
    maintenance_terms: dict[str, list[CompiledTerm]] = None


def _compile_maintenance_term(ctx: _TermContext, target: PhysicalView,
                              rule: RulePlan, scan_index: int) -> CompiledTerm:
    """A term driven by *inserted rows* of one base input of a rule.

    Recursive references join against the gathered current state (an
    update batch is small and unpartitioned, so per-partition alignment
    does not apply); other scans join via broadcast tables.  State values
    are running totals, which is exactly what a fresh base fact must
    combine with.
    """
    relation = rule.join.inputs[scan_index].relation
    return _compile_pipeline(
        ctx, target, rule, scan_index,
        {i: "state" for i in rule.recursive_inputs()},
        delta_view=f"@{relation.lower()}")


def plan_clique(clique: CliquePlan, config: ExecutionConfig,
                maintenance: bool = False) -> PlannedClique:
    """Compile one recursive clique under *config*.

    ``maintenance=True`` additionally compiles the insertion-maintenance
    terms used by incremental views (see :class:`PlannedClique`)."""
    stratified = config.evaluation == "stratified"
    effective_aggregates = {
        view.name.lower(): (tuple([None] * len(view.columns)) if stratified
                            else view.aggregates)
        for view in clique.views
    }

    keys = plan_partition_keys(clique, effective_aggregates)

    decomposition = decompose_keys(clique) if config.decomposed_plans else None
    decomposed = decomposition is not None
    if decomposed:
        keys.update(decomposition)

    views = {
        view.name.lower(): PhysicalView(
            plan=view,
            partition_key_positions=keys[view.name.lower()],
            aggregates=effective_aggregates[view.name.lower()])
        for view in clique.views
    }

    ctx = _TermContext(clique, views, config, decomposed, _StepIds(), [])

    terms: list[CompiledTerm] = []
    base_rules: list[PlannedBaseRule] = []
    for view in clique.views:
        target = views[view.name.lower()]
        for rule in view.recursive_rules:
            terms.extend(_expand_rule(ctx, target, rule))
        for rule in view.base_rules:
            compiled = _compile_base_rule(ctx, target, rule)
            if isinstance(compiled, CompiledTerm):
                driving = rule.join.inputs[0]
                base_rules.append(PlannedBaseRule(
                    view.name.lower(), compiled, driving.relation))
            else:
                base_rules.append(PlannedBaseRule(
                    view.name.lower(), None, None, compiled))

    maintenance_terms: dict[str, list[CompiledTerm]] = {}
    if maintenance:
        for view in clique.views:
            target = views[view.name.lower()]
            for rule in view.recursive_rules + view.base_rules:
                if rule.join is None:
                    continue
                for index, node in enumerate(rule.join.inputs):
                    if isinstance(node, ScanNode):
                        term = _compile_maintenance_term(ctx, target, rule,
                                                         index)
                        maintenance_terms.setdefault(
                            node.relation.lower(), []).append(term)

    if config.codegen:
        from repro.core.codegen import attach_generated_code

        # Only the recursive terms of a clique that will run decomposed
        # can reach the grouped set kernel; nothing else reads its shape.
        set_runners = (decomposed and config.evaluation == "dsn"
                       and not any(v.has_aggregates for v in views.values()))
        # A recursive or base term of a template-eligible head is the
        # whole Map side: it folds into the view's accumulator inside its
        # probe loop.
        base_terms = [b.term for b in base_rules if b.term is not None]
        for term, runners in ([(t, set_runners) for t in terms]
                              + [(t, False) for t in base_terms]):
            view = views[term.view]
            attach_generated_code(
                term, view.aggregates, set_runners=runners,
                fold=head_shape(view) if config.partial_aggregation else None)
        # Maintenance terms keep the row-list sink on purpose: their rows
        # meet a grown state, where ``sum``/``count`` heads are exposed to
        # double counts (DESIGN §19), so they reach the merge as derived.
        for table_terms in maintenance_terms.values():
            for term in table_terms:
                attach_generated_code(term, views[term.view].aggregates)

    return PlannedClique(
        views=views,
        terms=terms,
        base_plans=ctx.base_plans,
        decomposable=decomposed,
        decompose_keys=decomposition or {},
        base_rules=base_rules,
        maintenance_terms=maintenance_terms,
    )
