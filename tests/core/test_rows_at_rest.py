"""Rows at rest are the relation's own tuples (DESIGN.md §17, §20).

Three pins on the stored-row invariant:

- *identity*: after base setup every value reachable from a build side —
  ``runtime.base_partitions``, ``runtime.broadcast_tables`` — **is** (same
  object) a row of the resolved relation, or, for a hash side only
  generated code reads, ``make_extractor(plan.read_positions)`` of one, in
  the row's place (a bare value for one column); the operator's
  ``base_blocks`` always hold the rows themselves.  For every library
  query under every planning axis; likewise after
  ``IncrementalView.insert`` and inside ``check_prem``.  Sort-merge,
  nested-loop, ``codegen=False`` and ``check_prem`` sides stay whole
  rows;
- *differential*: codegen on/off × kernel templates on/off
  (``tests/conftest.generic_loops``) × both join strategies
  agree on rows and iteration counts where the invariant has teeth — a
  pushed-down filter on the non-driving scan over duplicate rows and
  ``NULL``s in non-key columns, a theta rule, a δ⋈δ rule;
- an ``IncrementalView`` over a filtered scan agrees with a from-scratch
  run after inserts.
"""

import itertools

import pytest

from repro import ExecutionConfig, RaSQLContext
from repro.core import prem
from repro.core.fixpoint import FixpointOperator
from repro.core.physical import TermRuntime
from repro.core.streaming import IncrementalView
from repro.engine.kernels import make_extractor
from repro.queries.library import get_query
from tests.conftest import generic_loops
from tests.integration.test_chaos import QUERY_SETUPS, make_context_factory

#: ``kernels_off`` runs the default config with the kernel templates off
#: (``tests/conftest.generic_loops``).
CONFIGS = {
    "default": ExecutionConfig(),
    "kernels_off": ExecutionConfig(),
    "codegen_off": ExecutionConfig(codegen=False),
    "sort_merge": ExecutionConfig(join_strategy="sort_merge"),
    "broadcast_bases": ExecutionConfig(broadcast_bases=True),
    "stacked": ExecutionConfig(decomposed_plans=False),
}


def stored_rows(side):
    """Every row held by one build side (hash table, run or row list)."""
    if isinstance(side, dict):
        return [row for bucket in side.values() for row in bucket]
    return list(side)


def _reader(planned, step_id):
    """The term whose pipeline probes base side ``step_id``."""
    terms = list(planned.terms)
    terms += [rule.term for rule in planned.base_rules if rule.term]
    for table_terms in (planned.maintenance_terms or {}).values():
        terms += table_terms
    (term,) = [t for t in terms
               if any(getattr(s, "step_id", None) == step_id
                      for s in t.steps)]
    return term


def assert_rows_at_rest(operator):
    """Every base side of ``operator`` holds exactly the relation's own
    (filtered) rows by identity — or, pruned, exactly their read columns,
    key by key and in order.  Returns how many sides were checked."""
    runtime = operator.runtime
    plans = operator.planned.base_plans
    assert (set(runtime.broadcast_tables) | set(runtime.base_partitions)
            == {plan.step_id for plan in plans})
    checked = 0
    for plan in plans:
        relation = operator.resolve(plan.relation)
        kept = [row for row in relation.rows
                if plan.filter is None or plan.filter(row)]
        own = {id(row) for row in kept}
        if plan.mode == "broadcast":
            holders = [[runtime.broadcast_tables[plan.step_id]]]
        else:
            holders = [runtime.base_partitions[plan.step_id],
                       [block.rows for block in
                        operator.base_blocks[plan.step_id]]]
        read = plan.read_positions
        if read is not None:
            # Only generated code may read a pruned side, and pruning
            # always drops something.
            assert _reader(operator.planned, plan.step_id).codegen_fn
            assert plan.equi and len(read) < len(relation.columns)
            extract = make_extractor(read)
            key_of = make_extractor(plan.build_key)
            expected = {}
            for row in kept:
                expected.setdefault(key_of(row), []).append(extract(row))
            stored = {}
            for side in holders.pop(0):
                assert not stored.keys() & side.keys()
                stored.update(side)
            assert stored == expected, (plan.relation, read)
            checked += 1
        for sides in holders:
            rows = [row for side in sides for row in stored_rows(side)]
            assert len(rows) == len(kept), (plan.relation, plan.mode)
            for row in rows:
                assert id(row) in own, (plan.relation, row)
                assert len(row) == len(relation.columns)
            checked += 1
    return checked


@pytest.fixture
def operators(monkeypatch):
    """Every FixpointOperator whose base setup ran, checked on the spot."""
    seen = []
    setup = FixpointOperator._setup_base_relations

    def checked_setup(self):
        setup(self)
        seen.append((self, assert_rows_at_rest(self)))

    monkeypatch.setattr(FixpointOperator, "_setup_base_relations",
                        checked_setup)
    return seen


def make_context(query_name, config):
    return (make_context_factory(query_name, num_workers=3)(config=config),
            QUERY_SETUPS[query_name][1]())


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("query_name", sorted(QUERY_SETUPS))
def test_base_sides_hold_the_relations_own_rows(query_name, config_name,
                                                operators, monkeypatch):
    if config_name == "kernels_off":
        generic_loops(monkeypatch)
    ctx, query = make_context(query_name, CONFIGS[config_name])
    ctx.sql(query)
    assert operators
    pruned = 0
    for operator, checked in operators:  # no plan is skipped silently
        assert checked >= len(operator.planned.base_plans)
        pruned += sum(plan.read_positions is not None
                      for plan in operator.planned.base_plans)
    if config_name == "codegen_off":
        assert not pruned  # the interpreted pipeline places whole rows
    elif config_name != "sort_merge" and query_name in ("cc", "sssp", "tc"):
        assert pruned  # edge.Dst / (Dst, Cost), not the edge row


@pytest.mark.parametrize("query_name, table, new_rows", [
    ("sssp", "edge", [(0, 23, 1), (23, 7, 2)]),
    ("tc", "edge", [(23, 0), (5, 5)]),
    ("cc", "edge", [(24, 25), (25, 0)]),
    ("same_generation", "rel", [(7, 8), (3, 9)]),
    ("party_attendance", "friend", [("eve", "fay"), ("dan", "fay"),
                                    ("cat", "fay")]),
])
def test_inserted_rows_enter_the_sides_as_themselves(query_name, table,
                                                     new_rows, operators):
    ctx, query = make_context(query_name, ExecutionConfig())
    view = IncrementalView(ctx, query)
    present = set(ctx.catalog.get(table).rows)
    view.insert(table, new_rows)
    # resolve() now ends with the inserted tuples — bar sssp's (0, 23, 1),
    # a fact the table already held — so this also proves they entered
    # every side as themselves, once
    facts = [row for row in new_rows if row not in present]
    assert view.operator.resolve(table).rows[-len(facts):] == facts
    assert assert_rows_at_rest(view.operator) > 0
    # the appended blocks are sized as the rows they now hold
    for blocks in view.operator.base_blocks.values():
        for block in blocks:
            assert block.size_bytes() == type(block)(
                block.index, list(block.rows)).size_bytes()


def test_check_prem_builds_over_the_tables_own_rows(monkeypatch):
    runtimes = []

    def recording_runtime():
        runtimes.append(TermRuntime())
        return runtimes[-1]

    monkeypatch.setattr(prem, "TermRuntime", recording_runtime)
    edges = [(1, 2, 4.0), (2, 3, 1.0), (1, 3, 9.0), (3, 1, 2.0)]
    report = prem.check_prem(get_query("sssp").formatted(source=1),
                             {"edge": (["Src", "Dst", "Cost"], edges)},
                             max_steps=6)
    assert report.holds
    (runtime,) = runtimes
    own = {id(row) for row in edges}
    sides = list(runtime.broadcast_tables.values())
    assert sides and not runtime.base_partitions
    for side in sides:  # whole rows: check_prem interprets its terms
        rows = stored_rows(side)
        assert len(rows) == len(edges)
        assert all(id(row) in own for row in rows)


# ----------------------------------------------------------------------
# differential: where a stored-row format bug would show
# ----------------------------------------------------------------------

#: The non-driving scan (``edge``) carries the pushed-down ``Cost < 10``.
FILTERED_HOP = """
WITH recursive hop(Dst, Via) AS
  (SELECT 1, 'start') UNION
  (SELECT edge.Dst, edge.Tag FROM hop, edge
   WHERE hop.Dst = edge.Src AND edge.Cost < 10)
SELECT Dst, Via FROM hop
"""

#: Duplicate rows, NULL tags (a non-key column), rows the filter drops.
TAGGED_EDGES = [
    (1, 2, 3, "a"), (1, 2, 3, "a"), (2, 3, 4, None), (2, 3, 4, None),
    (3, 4, 50, "dropped"), (3, 5, 9, None), (5, 6, 1, "b"), (5, 1, 2, None),
    (6, 7, 10, "edge-of-filter"), (6, 8, 0, "c"), (8, 2, 5, None),
]

#: ``(config, kernel templates off)``.
AXES = [(ExecutionConfig(codegen=codegen, join_strategy=strategy), generic)
        for codegen, generic, strategy in itertools.product(
            (True, False), (False, True), ("shuffle_hash", "sort_merge"))]


def run_all_axes(sql, tables):
    """``{(rows, iterations)}`` over the eight codegen/kernels/join axes."""
    outcomes = set()
    for config, generic in AXES:
        with pytest.MonkeyPatch.context() as patch:
            if generic:
                generic_loops(patch)
            ctx = RaSQLContext(num_workers=3, config=config)
            for name, (columns, rows) in tables.items():
                ctx.register_table(name, columns, rows)
            rows = ctx.sql(sql).rows
        outcomes.add((tuple(sorted(rows, key=repr)), ctx.last_run.iterations))
    return outcomes


def test_filtered_scan_with_duplicates_and_nulls_agrees_on_every_axis():
    ctx = RaSQLContext(num_workers=3)
    ctx.register_table("edge", ["Src", "Dst", "Cost", "Tag"], TAGGED_EDGES)
    assert "Scan edge AS edge [(edge.Cost < 10)]" in ctx.explain(FILTERED_HOP)

    (outcome,) = run_all_axes(
        FILTERED_HOP, {"edge": (["Src", "Dst", "Cost", "Tag"], TAGGED_EDGES)})
    rows, _ = outcome
    assert (3, None) in rows and (5, None) in rows    # NULLs travel intact
    assert not any(dst in (4, 7) for dst, _ in rows)  # the filter held


@pytest.mark.parametrize("query_name", ["interval_coalesce",
                                        "same_generation"])
def test_theta_and_delta_delta_rules_agree_on_every_axis(query_name):
    build_tables, make_query = QUERY_SETUPS[query_name]
    (outcome,) = run_all_axes(make_query(), build_tables())
    assert outcome[0]


def test_incremental_view_over_filtered_scan_matches_from_scratch():
    inserts = [[(4, 9, 2, None), (9, 3, 70, "dropped")],
               [(7, 10, 1, "late"), (7, 10, 1, "late")],
               [(3, 4, 8, None)]]
    ctx = RaSQLContext(num_workers=3)
    ctx.register_table("edge", ["Src", "Dst", "Cost", "Tag"], TAGGED_EDGES)
    view = IncrementalView(ctx, FILTERED_HOP)
    edges = list(TAGGED_EDGES)
    for batch in inserts:
        view.insert("edge", batch)
        edges += batch
        scratch = RaSQLContext(num_workers=3)
        scratch.register_table("edge", ["Src", "Dst", "Cost", "Tag"], edges)
        assert (sorted(view.result().rows, key=repr)
                == sorted(scratch.sql(FILTERED_HOP).rows, key=repr))
