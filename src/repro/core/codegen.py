"""Whole-pipeline code generation (Section 7.3).

The interpreted term pipeline materializes a working-row list after every
step and calls one compiled function per expression per row — the classic
volcano-model overheads the paper's whole-stage code generation removes.
This module collapses all operators of one term into a single generated
Python function: one pass of nested loops with inlined key extraction,
predicates and projection, compiled once with ``compile()`` at plan time.

Structure of a generated function (SSSP's recursive rule, the list
variant — what ``partial_aggregation=False`` generates)::

    def _term(delta_rows, partition, runtime):
        _tbl0 = runtime.base_partitions[0][partition]
        _get1 = _tbl0.get
        _out = []
        _append = _out.append
        for d in delta_rows:
            _b1 = _get1(d[0])
            if _b1 is None:
                continue
            for r1 in _b1:
                _append((r1[0], (d[1] + r1[1]),))
        return _out

Bindings are indexed directly (``d[i]`` for the delta, ``r{k}[i]`` for
build rows — both the relation's or view's own tuples, indexed relative
to the binding's segment), so no combined row is ever constructed.  Sort-merge
terms are not fused (the paper's codegen experiments run shuffle-hash);
generation falls back to the interpreted pipeline for them.

By default the same rule is the whole Map side of the iteration
(Section 7.3's Reduce(i)+Map(i+1) in one function): the head is ``min``
over one group column, so the term folds each derivation into the view's
accumulator where the list variant appends a row.  In both, ``edge`` is
stored pruned to the columns read after the probe, ``(Dst, Cost)``::

    def _term(delta_rows, partition, runtime, combined):
        _tbl0 = runtime.base_partitions[0][partition]
        _get1 = _tbl0.get
        get = combined.get
        for d in delta_rows:
            _b1 = _get1(d[0])
            if _b1 is None:
                continue
            for r1 in _b1:
                key = r1[0]
                value = (d[1] + r1[1])
                old = get(key)
                if old is None or value < old:
                    combined[key] = value

A set view's term (no aggregates: its ``UNION`` is a ``DISTINCT``) is the
same function writing into a distinct sink, ``{head row: None}``: for
transitive closure the loop body is ``combined[(d[0], r1,)] = None``, so
a row derived twice is built twice but kept, routed and shipped once.  A
one-column set view's sink holds bare values — ``reach``'s body is
``combined[r1] = None`` — and a duplicate derivation builds nothing.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from repro.core import ast_nodes as ast
from repro.core.expressions import TOO_DEEP, Layout, expr_source
from repro.core.logical import RulePlan
from repro.core.physical import (
    CompiledTerm,
    FilterStep,
    GroupedDedupSpec,
    HashJoinStep,
    NestedLoopStep,
    SortMergeJoinStep,
    TotalizeStep,
    make_slots_key,
)
from repro.engine.aggregates import AggregateFunction
from repro.engine.joins import build_hash_table
from repro.engine.kernels import DISTINCT, fold_update, key_source
from repro.errors import PlanningError

class _SlotNamer:
    """Maps absolute layout slots to generated-code references.

    Every binding's variable (``d`` for the delta, ``r{k}`` for the
    ``k``-th joined input) holds the relation's or view's own row, so a
    slot is indexed relative to its binding's segment.
    """

    def __init__(self, delta_offset: int, delta_arity: int):
        #: (slot range, variable name, stored columns) per bound segment.
        self.segments: list[tuple[range, str, tuple | None]] = []
        self.add_segment(delta_offset, delta_arity, "d")

    def add_segment(self, offset: int, arity: int, var: str,
                    read_positions: tuple[int, ...] | None = None) -> None:
        """``read_positions``: the variable holds a pruned build side's
        value — those columns of the row, bare when there is one."""
        self.segments.append((range(offset, offset + arity), var,
                              read_positions))

    def ref(self, slot: int) -> str:
        for span, var, read in self.segments:
            if slot in span:
                if read is None:
                    return f"{var}[{slot - span.start}]"
                at = read.index(slot - span.start)
                return var if len(read) == 1 else f"{var}[{at}]"
        raise PlanningError(f"codegen: slot {slot} not bound yet")


def generate_term_function(term: CompiledTerm,
                           aggregates: tuple[AggregateFunction | None, ...],
                           fold: tuple | None = None) -> Callable | None:
    """Generate the fused function for one term, or ``None`` if not fusible.

    ``aggregates`` are the target view's effective aggregates (for
    contribution normalization in the projection).

    ``fold`` (the head's ``kernels.head_shape``) emits the fold variant:
    ``_term(delta_rows, partition, runtime, combined)`` folds every
    derivation into ``combined[group key]`` — a bare aggregate value —
    where the list variant appends a head row, with a negated term's sign
    flip inlined.  For a set view (``kernels.DISTINCT``) the sink is
    distinct: ``combined[head row] = None`` keeps each derived row once,
    at its first derivation — ``combined[value] = None`` for a view of
    one column.  It returns nothing; the view's ``emit``
    (:meth:`repro.core.iteration.CliqueStep._make_sink`) turns the sink
    into routed head rows once per view.
    """
    rule: RulePlan | None = term.rule
    if rule is None or rule.layout is None:
        return None
    layout = rule.layout
    namer = _SlotNamer(term.delta_offset, term.delta_arity)

    env: dict[str, object] = {}
    prologue: list[str] = []
    body: list[str] = []
    indent = 2  # inside ``for d in delta_rows:``

    def emit(line: str, level: int) -> None:
        body.append("    " * level + line)

    # Delta prefilter (the driving scan's pushed-down filter), inlined.
    prefilter_src = None
    if term.delta_prefilter is not None:
        if term.prefilter_expr is None:
            return None  # hand-built term without its AST: not fusible
        prefilter_src = expr_source(term.prefilter_expr, layout, namer.ref)

    join_var = 0
    has_totalize = False
    first_join_mark: tuple[int, int] | None = None
    for step in term.steps:
        if isinstance(step, SortMergeJoinStep):
            return None  # not fused; interpreted path handles it
        if isinstance(step, TotalizeStep):
            has_totalize = True
            # Inline total lookup: the group's stored row carries the
            # totals and is, column for column, the totalised delta row.
            group_refs = ", ".join(namer.ref(s) for s in step.group_slots)
            key = f"({group_refs},)" if len(step.group_slots) > 1 else group_refs
            emit(f"d = runtime.state_total({step.view!r}, partition, {key})",
                 indent)
            emit("if d is None:", indent)
            emit("    continue", indent)
            continue
        if isinstance(step, FilterStep):
            if step.expr is None:
                return None
            source = expr_source(step.expr, layout, namer.ref)
            emit(f"if not {source}:", indent)
            emit("    continue", indent)
            continue
        if isinstance(step, HashJoinStep):
            join_var += 1
            if first_join_mark is None:
                first_join_mark = (len(body), indent)
            var = f"r{join_var}"
            table = f"_tbl{step.step_id}"
            if step.source == "broadcast":
                prologue.append(
                    f"    {table} = runtime.broadcast_tables[{step.step_id}]")
            elif step.source == "base_partition":
                prologue.append(
                    f"    {table} = runtime.base_partitions"
                    f"[{step.step_id}][partition]")
            else:
                source_partition = "-1" if step.gather else "partition"
                positions = step.build_positions
                if step.source == "state":
                    # The step's version-validated cached table.
                    prologue.append(
                        f"    {table} = runtime.state_table("
                        f"{step.state_view!r}, {source_partition}, "
                        f"{positions!r})")
                else:
                    prologue.append(
                        f"    {table} = _build_state_table("
                        f"runtime.delta_rows({step.state_view!r}, "
                        f"{source_partition}), {positions!r})")
            key_refs = [namer.ref(s) for s in step.probe_slots]
            key = (f"({', '.join(key_refs)},)" if len(key_refs) > 1
                   else key_refs[0])
            bucket = f"_b{join_var}"
            prologue.append(f"    _get{join_var} = {table}.get")
            emit(f"{bucket} = _get{join_var}({key})", indent)
            emit(f"if {bucket} is None:", indent)
            emit("    continue", indent)
            emit(f"for {var} in {bucket}:", indent)
            namer.add_segment(*step.build_segment, var, step.read_positions)
            indent += 1
            continue
        if isinstance(step, NestedLoopStep):
            join_var += 1
            if first_join_mark is None:
                first_join_mark = (len(body), indent)
            var = f"r{join_var}"
            table = f"_tbl{step.step_id}"
            prologue.append(
                f"    {table} = runtime.broadcast_tables[{step.step_id}]")
            emit(f"for {var} in {table}:", indent)
            namer.add_segment(*step.segment, var)
            indent += 1
            if step.predicate is not None:
                if not step.conjuncts:
                    return None
                source = " and ".join(
                    expr_source(c, layout, namer.ref) for c in step.conjuncts)
                emit(f"if not ({source}):", indent)
                emit("    continue", indent)
            continue
        return None  # unknown step kind

    # Projection with normalization.  Parts that read only the delta row
    # are invariant across the join loops and are hoisted to just before
    # the first join (totalize rebinds ``d`` mid-body, so its presence
    # disables the hoist).  A hoisted part also runs for delta rows that
    # join nothing, so only arithmetic that cannot raise on numbers is
    # hoisted (see ``_is_hoistable`` for what still can).
    hoist = first_join_mark is not None and not has_totalize
    delta_lo = term.delta_offset
    delta_hi = delta_lo + term.delta_arity
    hoisted: list[str] = []
    projection_parts = []
    for i, expr in enumerate(rule.projections):
        source = expr_source(expr, layout, namer.ref)
        agg = aggregates[i] if i < len(aggregates) else None
        if agg is not None and agg.name == "count":
            env[f"_norm{i}"] = agg.normalize
            source = f"_norm{i}({source})"
        if (fold is not None and term.negate and agg is not None
                and agg.name in ("sum", "count")):
            source = f"-{source}"  # the δ⋈δ correction enters negated
        if hoist and _is_hoistable(expr, layout, delta_lo, delta_hi):
            name = f"_p{i}"
            hoisted.append("    " * first_join_mark[1] + f"{name} = {source}")
            source = name
        projection_parts.append(source)
    if hoisted:
        body[first_join_mark[0]:first_join_mark[0]] = hoisted
    row = f"({', '.join(projection_parts)},)"
    if fold is None:
        emit(f"_append({row})", indent)
        header = ["def _term(delta_rows, partition, runtime):"]
        header += prologue + ["    _out = []",
                              "    _append = _out.append"]
        footer = ["    return _out"]
    else:
        header = ["def _term(delta_rows, partition, runtime, combined):"]
        header += prologue
        footer = []
        if fold == DISTINCT:
            # A one-column set view's sink keeps bare values.
            key = projection_parts[0] if len(projection_parts) == 1 else row
            emit(f"combined[{key}] = None", indent)
        else:
            name, group, at = fold
            for line in fold_update(name, key_source(projection_parts, group),
                                    projection_parts[at]):
                emit(line, indent)
            header.append("    get = combined.get")
    header.append("    for d in delta_rows:")
    if prefilter_src is not None:
        header.append(f"        if not {prefilter_src}:")
        header.append("            continue")
    source_text = "\n".join(header + body + footer)

    env["_build_state_table"] = _build_state_table
    try:
        exec(compile_term(source_text, term.view), env)
    except TOO_DEEP:
        # The term wraps each expression in a few more brackets than
        # ``compile_expr`` does, so the interpreted path may still
        # compile it; past that, it raises an ``AnalysisError``.
        return None
    fn = env["_term"]
    fn._generated_source = source_text
    return fn


@lru_cache(maxsize=256)
def compile_term(source_text: str, view: str):
    """The code object of a generated term's source.  Kept per distinct
    text: ``compile()`` is most of a small query's planning time, every
    ``ctx.sql`` call re-plans its statement, statements that differ only
    in a constant generate the same terms, and a pool worker recompiles
    what the driver generated — none of which changes the text."""
    return compile(source_text, f"<rasql-codegen:{view}>", "exec")


def _build_state_table(rows: list[tuple], key_positions: tuple[int, ...]) -> dict:
    """Runtime helper: hash table over a view's own rows for generated code."""
    return build_hash_table(rows, make_slots_key(key_positions))


def _is_hoistable(expr: ast.Expr, layout: Layout, lo: int, hi: int) -> bool:
    """True when *expr* reads at least one delta slot and nothing else,
    through ``+``, ``-``, ``*`` and numeric literals only.

    Such a part cannot raise on numbers, so hoisting it above the first
    join does not make a division by zero, or a CASE yielding NULL into
    a sum, raise where the interpreted term does not.  One divergence
    remains: a delta column holding NULL or a string (a base head
    ``CASE WHEN … THEN 'x' ELSE Src END`` under a recursive ``r.B + 1``)
    raises ``TypeError`` in the hoisted part for a delta row that joins
    nothing, where the interpreted term derives nothing from that row.
    The plan knows no column types to rule that out, and the library's
    hoisted parts (``mlm_bonus``'s ``d[1] * 0.5``) run over numbers.
    """
    slots = []
    for node in expr.walk():
        if isinstance(node, ast.ColumnRef):
            slots.append(layout.slot_of(node))
        elif isinstance(node, ast.Literal):
            if type(node.value) not in (int, float):
                return False
        elif not (isinstance(node, (ast.BinaryOp, ast.UnaryOp))
                  and node.op in ("+", "-", "*")):
            return False
    return bool(slots) and all(lo <= s < hi for s in slots)


def grouped_dedup_spec(
        term: CompiledTerm,
        aggregates: tuple[AggregateFunction | None, ...],
) -> GroupedDedupSpec | None:
    """Recognize the column-decomposed fixpoint shape, if *term* has it.

    The shape is a single broadcast hash join probed by the delta row's
    last column, projecting the delta's other columns in order followed
    by exactly one build column (transitive closure's ``tc(x, z),
    edge(z, y) -> (x, y)`` is the canonical instance).  The decomposed
    driver exploits it by keeping both the members and the delta as
    ``prefix -> {last column}`` and deduplicating whole adjacency sets
    at C speed; duplicate-heavy fixpoints never build (or hash) the
    duplicate row tuples at all.  Any other shape runs on the clique's
    own step (``decomposed.run_local_fixpoint``).
    """
    rule = term.rule
    if rule is None or rule.layout is None:
        return None
    if term.negate or any(a is not None for a in aggregates):
        return None
    if term.delta_prefilter is not None:
        return None
    if len(term.steps) != 1:
        return None
    step = term.steps[0]
    if not isinstance(step, HashJoinStep) or step.source != "broadcast":
        return None
    layout = rule.layout
    lo = term.delta_offset
    arity = term.delta_arity
    if tuple(step.probe_slots) != (lo + arity - 1,):
        return None
    projections = rule.projections
    if len(projections) != arity:
        return None
    for position, expr in enumerate(projections[:-1]):
        if not (isinstance(expr, ast.ColumnRef)
                and layout.slot_of(expr) == lo + position):
            return None
    last = projections[-1]
    if not isinstance(last, ast.ColumnRef):
        return None
    last_slot = layout.slot_of(last)
    build_offset, build_arity = step.build_segment
    if not build_offset <= last_slot < build_offset + build_arity:
        return None
    # The shape reads exactly that one build column: a pruned side
    # stores it bare.
    pruned = step.read_positions is not None
    return GroupedDedupSpec(step_id=step.step_id,
                            probe=(arity - 1,),
                            prefix=tuple(range(arity - 1)),
                            build_index=(None if pruned
                                         else last_slot - build_offset))


def attach_generated_code(term: CompiledTerm,
                          aggregates: tuple[AggregateFunction | None, ...],
                          set_runners: bool = False,
                          fold: tuple | None = None) -> bool:
    """Try to attach a generated function to *term*; returns success.

    With ``fold`` the function is the fold variant and ``term.folds``
    says so.
    ``set_runners`` additionally recognizes the column-decomposed shape
    the decomposed set kernel consumes onto ``term.grouped_spec``
    (:func:`repro.core.decomposed.decomposed_runner`).
    """
    try:
        fn = generate_term_function(term, aggregates, fold=fold)
    except PlanningError:
        fn = None
    if fn is None:
        return False
    term.codegen_fn = fn
    term.folds = fold is not None
    if set_runners:
        term.grouped_spec = grouped_dedup_spec(term, aggregates)
    return True
