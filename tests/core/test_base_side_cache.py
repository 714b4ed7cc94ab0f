"""The cross-query base-side cache (DESIGN.md §19).

One invariant: what a fixpoint builds from a *registered* base table —
its de-duplicated rows and each ``(buckets, sides)`` of a plan shape — is
built once per generation of the table (``Catalog.epoch``), absorbs the
rows appended since, and is shared by every query of the session;
everything the simulated cluster is charged stays per query.  These tests
pin the hit path (same objects, no builder call), the append path (an
insert into a table the query does not read is a hit; one into a table it
reads grows the cached rows, buckets and sides to exactly what a fresh
build holds, duplicates never entering twice), every invalidator for
every library query on six config axes, the key (distinct shapes, LRU
bound), the bypass (per-query materialized relations), incremental views
reading the very entries ad-hoc SQL does (across an eviction and a
cleared cache too), the simulated clock's independence from cache
history, and that no exit path leaves a half-built entry.

The table's canonical-value map, kept in its ``distinct`` entry, is
pinned here too: every int / str value a side holds in its keys or
stored columns is the map's one object for it, after a build and after
an absorb; columns that mix ``1``, ``1.0``, ``True``, ``0.0``, ``-0.0``
or NaN are left exactly as the table gave them; and the map is released
with its entry.

Also here, because the cache would otherwise hide it: a finished
fixpoint is freed by reference counting (no cycle through the terms'
runtime), checked with the collector disabled.  And the process
backend's one install cache downstream of the entry: a pool worker
decodes the heavy half of the digest it holds once, and the driver ships
those bytes exactly when the worker holds another digest.
"""

import gc
import itertools
import random
import time
import weakref
from types import SimpleNamespace

import pytest

from repro import ExecutionConfig, RaSQLContext
from repro.core import fixpoint
from repro.core.fixpoint import FixpointOperator
from repro.core.physical import BASE_SIDE_CACHE_SLOTS, BaseSideCache
from repro.core.streaming import IncrementalView
from repro.engine.cluster import Cluster
from repro.engine.memory import MemoryConfig
from repro.errors import (
    AnalysisError,
    MemoryBudgetExceededError,
    QueryDeadlineExceededError,
)
from repro.queries.library import get_query
from repro.relation import Relation
from tests.conftest import generic_loops
from tests.integration.test_chaos import QUERY_SETUPS

NUM_WORKERS = 3
#: ``kernels_off`` runs the default config with the kernel templates off
#: (``tests/conftest.generic_loops``).
AXES = {
    "default": ExecutionConfig(),
    "sort_merge": ExecutionConfig(join_strategy="sort_merge"),
    "broadcast": ExecutionConfig(broadcast_bases=True),
    "kernels_off": ExecutionConfig(),
    "magic_off": ExecutionConfig(magic_filters=False),
    "stacked": ExecutionConfig(decomposed_plans=False),
}
COUNTERS = ("base_side_cache_hits", "base_side_cache_appended",
            "base_side_cache_misses", "base_side_cache_bypassed")
SSSP = get_query("sssp").formatted(source=0)
EDGES = QUERY_SETUPS["sssp"][0]()["edge"][1]


def make_ctx(tables, config=None, **kwargs) -> RaSQLContext:
    ctx = RaSQLContext(num_workers=NUM_WORKERS, config=config, **kwargs)
    for name, (columns, rows) in tables.items():
        ctx.register_table(name, columns, rows)
    return ctx


def sssp_ctx(config=None, **kwargs) -> RaSQLContext:
    return make_ctx({"edge": (("Src", "Dst", "Cost"), EDGES)}, config,
                    **kwargs)


def run(ctx, sql, config=None):
    """``(sorted rows, (hits, appended, built, bypassed) of this run)``."""
    before = [ctx.metrics.get(name) for name in COUNTERS]
    rows = sorted(ctx.sql(sql, config=config).rows, key=repr)
    return rows, tuple(int(ctx.metrics.get(name) - was)
                       for name, was in zip(COUNTERS, before))


@pytest.fixture
def operators(monkeypatch):
    """Every operator that sets up base relations, in order."""
    seen = []
    original = FixpointOperator._setup_base_relations

    def recording(self):
        original(self)
        seen.append(self)

    monkeypatch.setattr(FixpointOperator, "_setup_base_relations", recording)
    return seen


@pytest.fixture
def builder_calls(monkeypatch):
    """Names of the base-setup builders, appended on every call."""
    calls = []
    for name in ("build_base_side", "_distinct"):
        def spy(*args, _original=getattr(fixpoint, name), _name=name,
                **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(fixpoint, name, spy)
    return calls


# ----------------------------------------------------------------------
# the hit path
# ----------------------------------------------------------------------


def test_second_query_gets_the_same_sides_and_builds_nothing(
        operators, builder_calls):
    ctx = sssp_ctx()
    first, outcome = run(ctx, SSSP)
    assert outcome == (0, 0, 1, 0)
    assert sorted(builder_calls) == ["_distinct", "build_base_side"]
    del builder_calls[:]

    second, outcome = run(ctx, SSSP)
    assert outcome == (1, 0, 0, 0) and second == first
    assert builder_calls == []
    cold, warm = operators
    (step_id,) = cold.runtime.base_partitions
    assert (warm.runtime.base_partitions[step_id]
            is cold.runtime.base_partitions[step_id])
    assert warm.resolve("edge") is cold.resolve("edge")
    # Partitions are wrapped per query over the cached buckets.
    for a, b in zip(cold.base_blocks[step_id], warm.base_blocks[step_id]):
        assert a is not b and a.rows is b.rows


def test_deduplicated_copy_holds_the_catalogs_own_tuples_in_order():
    rows = [(1, 2, 1.0), (2, 3, 1.0), (1, 2, 1.0), (3, 4, 2.0), (2, 3, 1.0)]
    ctx = make_ctx({"edge": (("Src", "Dst", "Cost"), rows)})
    registered = ctx.catalog.get("edge")
    operator = FixpointOperator.__new__(FixpointOperator)
    operator.base_sides = None
    operator._resolve_raw, operator._resolved = ctx.catalog.get, {}
    distinct = operator.resolve("edge")
    assert distinct is not registered and distinct.columns == registered.columns
    assert distinct.rows == [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 2.0)]
    for row, index in zip(distinct.rows, (0, 1, 3)):
        assert row is registered.rows[index]
    # Without a duplicate there is nothing to copy.
    ctx.register_table("edge", ("Src", "Dst", "Cost"), rows[:2])
    operator._resolved = {}
    assert operator.resolve("edge") is ctx.catalog.get("edge")


# ----------------------------------------------------------------------
# every invalidator, every library query, six config axes
# ----------------------------------------------------------------------


def has_side_over(ctx, name: str) -> bool:
    """Whether a cached side is built over table ``name`` (a table only a
    base rule scans has its distinct rows cached, nothing else)."""
    return any(key[0] == name.lower() for key in _side_keys(ctx))


def changing_table(tables: dict) -> str:
    """The table a differential grows or shrinks: the largest one (a
    subset of valid input stays valid — DAGs, forests)."""
    return max(tables, key=lambda table: len(tables[table][1]))


@pytest.mark.parametrize("axis", sorted(AXES))
@pytest.mark.parametrize("query_name", sorted(QUERY_SETUPS))
def test_every_invalidator_rebuilds_and_matches_a_fresh_context(
        query_name, axis, monkeypatch):
    if axis == "kernels_off":
        generic_loops(monkeypatch)
    build_tables, make_query = QUERY_SETUPS[query_name]
    config, sql = AXES[axis], make_query()
    full = build_tables()
    name = changing_table(full)
    columns, rows = full[name]
    short = {**full, name: (columns, rows[:-1])}
    expected = {id(tables): run(make_ctx(tables, config), sql)[0]
                for tables in (full, short)}

    # Two steps of one query that read a table in the same shape share
    # the entry, so even a cold run may count hits.
    ctx = make_ctx(short, config)
    answer, cold = run(ctx, sql)
    hits, appended, built, bypassed = cold
    assert answer == expected[id(short)]
    assert appended == 0 and (built or hits == 0)
    warm = (hits + built, 0, 0, bypassed)
    assert run(ctx, sql) == (answer, warm)

    # An append is not an invalidator: the sides over the table absorb
    # the row (a sorted run cannot, and rebuilds), the others hit.
    ctx.catalog.append_rows(name, [rows[-1]])
    answer, (hits, appended, built, _) = run(ctx, sql)
    assert answer == expected[id(full)]
    assert hits + appended + built == sum(warm[:3])
    assert (appended + built > 0) == has_side_over(ctx, name)
    assert built == 0 or axis == "sort_merge"
    assert run(ctx, sql) == (answer, warm)

    def invalidated_by(mutate, tables):
        # Exactly the sides over the table rebuild; another table's hit.
        over = {key for key in _side_keys(ctx) if key[0] == name.lower()}
        mutate()
        answer, (hits, appended, built, _) = run(ctx, sql)
        assert answer == expected[id(tables)]
        assert (appended, built) == (0, len(over))
        assert hits + built == sum(warm[:3])
        assert run(ctx, sql) == (expected[id(tables)], warm)

    invalidated_by(lambda: ctx.register_table(name, columns, rows[:-1]),
                   short)
    invalidated_by(lambda: ctx.catalog.register_relation(
        Relation(name, columns, rows)), full)

    def mutate_in_place():
        ctx.catalog.get(name).rows.pop()
        ctx.catalog.note_mutation(name)

    invalidated_by(mutate_in_place, short)
    # An unattributed mutation retires what was derived from any table.
    ctx.catalog.note_mutation()
    assert run(ctx, sql) == (expected[id(short)],
                             (warm[0] - cold[2], 0, cold[2], bypassed))


# ----------------------------------------------------------------------
# an insert appends to what is cached
# ----------------------------------------------------------------------


def cached(ctx) -> dict:
    """Every cached value by key, in a form ``==`` compares deeply *and*
    in order: distinct rows as a list, ``(buckets, sides)`` with each hash
    side as its item list (the recorded seconds are wall time, the sizes
    the wire-size model's estimates)."""
    out = {}
    for key, (value, _) in ctx.base_sides._entries.items():
        if key[-1] == "distinct":
            out[key] = value[0].rows
        elif key[0] != "install":
            buckets, sides, _, _ = value
            out[key] = buckets, [list(side.items())
                                 if isinstance(side, dict) else side
                                 for side in sides]
    return out


@pytest.mark.parametrize("axis", sorted(AXES))
@pytest.mark.parametrize("query_name", sorted(QUERY_SETUPS))
def test_insert_appends_to_what_is_cached(query_name, axis, builder_calls,
                                          monkeypatch):
    if axis == "kernels_off":
        generic_loops(monkeypatch)
    build_tables, make_query = QUERY_SETUPS[query_name]
    config, sql = AXES[axis], make_query()
    full = build_tables()
    name = changing_table(full)
    columns, rows = full[name]
    ctx = make_ctx({**full, name: (columns, rows[:-2]),
                    "bystander": (("A", "B"), [(1, 2)])}, config)
    _, (hits, _, built, bypassed) = run(ctx, sql)
    warm = (hits + built, 0, 0, bypassed)

    def builds():
        """Builder calls since the last look, bar the per-query ones of
        bypassed sides."""
        count = builder_calls.count("build_base_side") - bypassed
        del builder_calls[:]
        return count

    # Into a table the query does not read: every side is a hit.
    ctx.catalog.append_rows("bystander", [(3, 4)])
    builds()
    assert run(ctx, sql)[1] == warm and builds() == 0

    # Into one it reads, a duplicate riding along: the cached rows,
    # buckets and sides become exactly what a fresh context builds.
    ctx.catalog.append_rows(name, [rows[0], *rows[-2:], rows[-1]])
    answer, (_, appended, built, _) = run(ctx, sql)
    assert (appended + built > 0) == has_side_over(ctx, name)
    if axis != "sort_merge":
        assert built == 0 and builds() == 0
    fresh = make_ctx({**full, name: (columns, rows + [rows[0], rows[-1]])},
                     config)
    assert answer == run(fresh, sql)[0]
    grown = cached(ctx)
    assert grown and grown == cached(fresh)
    assert run(ctx, sql) == (answer, warm)


def _edge_batches(edges):
    """Insert batches over ``edges``' vertices that re-insert rows the
    table (or the batch itself) already holds."""
    from hypothesis import strategies as st

    vertices = sorted({v for edge in edges for v in edge[:2]})
    fresh = st.tuples(st.sampled_from(vertices),
                      st.integers(min(vertices), max(vertices) + 6))
    pad = edges[0][2:]  # sssp edges carry a cost
    row = st.one_of(st.sampled_from(edges), fresh.map(lambda e: e + pad))
    return st.lists(st.lists(row, min_size=1, max_size=6), min_size=1,
                    max_size=5)


@pytest.mark.parametrize("query_name", ["count_paths", "sssp"])
def test_a_stream_of_inserts_with_duplicates_is_absorbed(query_name):
    from hypothesis import given, settings

    build_tables, make_query = QUERY_SETUPS[query_name]
    sql, tables = make_query(), build_tables()
    (name, (columns, edges)), = tables.items()
    if query_name == "count_paths":
        # Paths are only countable in a DAG: keep inserted edges forward.
        order = {v: i for i, v in enumerate(sorted(
            {v for edge in edges for v in edge}))}
        forward = lambda batch: [e for e in batch
                                 if order.get(e[1], e[1]) > order[e[0]]]
    else:
        forward = lambda batch: batch

    @settings(max_examples=25, deadline=None)
    @given(_edge_batches(edges))
    def check(batches):
        ctx = make_ctx(tables)
        run(ctx, sql)
        so_far = list(edges)
        for batch in filter(None, map(forward, batches)):
            ctx.catalog.append_rows(name, batch)
            so_far += batch
            # (A batch of nothing but duplicates leaves the sides a hit.)
            answer, (hits, appended, built, _) = run(ctx, sql)
            assert hits + appended > 0 and built == 0
            fresh = make_ctx({name: (columns, so_far)})
            # A row that entered a side twice would double a count / sum.
            assert answer == run(fresh, sql)[0]
            assert cached(ctx) == cached(fresh)

    check()


def test_a_sorted_run_rebuilds_on_insert(builder_calls):
    sort_merge = ExecutionConfig(join_strategy="sort_merge")
    ctx = sssp_ctx(sort_merge)
    run(ctx, SSSP)
    del builder_calls[:]
    ctx.catalog.append_rows("edge", [(0, 99, 1.0)])
    answer, outcome = run(ctx, SSSP)
    # The distinct rows absorbed the insert; the run was sorted anew.
    assert outcome == (0, 0, 1, 0) and builder_calls == ["build_base_side"]
    fresh = make_ctx({"edge": (("Src", "Dst", "Cost"),
                               EDGES + [(0, 99, 1.0)])}, sort_merge)
    assert answer == run(fresh, SSSP)[0] and cached(ctx) == cached(fresh)


def test_appended_sides_are_the_same_objects_and_replay_more_seconds(
        operators):
    ctx = sssp_ctx()
    run(ctx, SSSP)
    before = ctx.last_run.time_breakdown["fixpoint-setup"]
    ctx.catalog.append_rows("edge", [(0, 99, 1.0), (0, 99, 1.0)])
    assert run(ctx, SSSP)[1] == (0, 1, 0, 0)
    assert ("base sides: 0 hit, 1 appended, 0 built, 0 bypassed"
            in ctx.last_run.explain_analyze())
    # Build + append seconds, replayed by every later hit.
    after = ctx.last_run.time_breakdown["fixpoint-setup"]
    assert after > before
    assert run(ctx, SSSP)[1] == (1, 0, 0, 0)
    assert ctx.last_run.time_breakdown["fixpoint-setup"] == after
    cold, grown, warm = operators
    (step_id,) = cold.runtime.base_partitions
    assert (cold.runtime.base_partitions[step_id]
            is grown.runtime.base_partitions[step_id]
            is warm.runtime.base_partitions[step_id])
    assert cold.resolve("edge") is warm.resolve("edge")
    assert cold.resolve("edge").rows[-1] == (0, 99, 1.0)
    assert len(cold.resolve("edge").rows) == len(set(EDGES)) + 1


def test_a_failing_absorb_leaves_no_entry_behind():
    ctx = sssp_ctx()
    filtered = SSSP.replace("WHERE path.Dst = edge.Src",
                            "WHERE path.Dst = edge.Src AND 10 / edge.Cost > 1")
    expected, _ = run(ctx, filtered)
    entries = len(ctx.base_sides)
    ctx.catalog.append_rows("edge", [(0, 99, 0)])
    with pytest.raises(ZeroDivisionError):
        ctx.sql(filtered)
    # The half-extended side is gone; the distinct rows absorbed fine.
    assert len(ctx.base_sides) == entries - 1
    ctx.catalog.get("edge").rows.pop()
    ctx.catalog.note_mutation("edge")
    assert run(ctx, filtered) == (expected, (0, 0, 1, 0))


# ----------------------------------------------------------------------
# the key: distinct shapes, LRU bound
# ----------------------------------------------------------------------


def _side_keys(ctx):
    return [key for key in ctx.base_sides._entries
            if key[-1] != "distinct" and key[0] != "install"]


def test_distinct_shapes_get_distinct_entries(operators):
    ctx = sssp_ctx()
    run(ctx, SSSP)
    assert run(ctx, SSSP, ExecutionConfig(join_strategy="sort_merge"))[1] \
        == (0, 0, 1, 0)
    hashed, sorted_run = (op.runtime.base_partitions for op in operators)
    assert all(isinstance(side, dict) for sides in hashed.values()
               for side in sides)
    assert all(isinstance(side, list) for sides in sorted_run.values()
               for side in sides)

    # A filtered scan of the same table on the same key is its own entry.
    filtered = SSSP.replace("WHERE path.Dst = edge.Src",
                            "WHERE path.Dst = edge.Src AND edge.Cost < 4")
    assert filtered != SSSP
    assert run(ctx, filtered)[1] == (0, 0, 1, 0)
    assert run(ctx, filtered)[1] == (1, 0, 0, 0)
    assert len(_side_keys(ctx)) == 3
    # A plan that reads the same columns of edge on the same key shares
    # sssp's entry ...
    assert run(ctx, get_query("sssp").formatted(source=3))[1] == (1, 0, 0, 0)
    # ... reach reads only Dst where sssp reads (Dst, Cost): the stored
    # columns are part of the shape, so it builds (once) its own.
    reach = get_query("reach").formatted(source=0)
    assert run(ctx, reach)[1] == (0, 0, 1, 0)
    assert run(ctx, reach)[1] == (1, 0, 0, 0)
    assert {key[5] for key in _side_keys(ctx)} == {(1, 2), (1,), None}

    # Another partition count (a second cluster on the same cache).
    from repro.core.analyzer import analyze
    from repro.core.optimizer import optimize
    from repro.core.parser import parse
    from repro.core.planner import plan_clique

    config = ExecutionConfig()
    clique, = optimize(analyze(parse(SSSP), ctx.catalog)).cliques()
    for partitions, outcome in ((5, "built"), (5, "hits"), (7, "built")):
        operator = FixpointOperator(
            plan_clique(clique, config),
            Cluster(num_workers=NUM_WORKERS, num_partitions=partitions),
            config, ctx.catalog.get, base_sides=ctx.base_sides)
        operator._setup_base_relations()
        assert operator.base_side_counts[outcome] == 1
        (sides,) = operator.runtime.base_partitions.values()
        assert len(sides) == partitions


def test_lru_evicts_at_the_constant():
    ctx = sssp_ctx()

    def shape(i):
        return SSSP.replace("WHERE path.Dst = edge.Src",
                            f"WHERE path.Dst = edge.Src AND edge.Cost < {i}")

    for i in range(BASE_SIDE_CACHE_SLOTS + 3):
        assert run(ctx, shape(i))[1] == (0, 0, 1, 0)
        assert len(ctx.base_sides) <= BASE_SIDE_CACHE_SLOTS
    assert len(ctx.base_sides) == BASE_SIDE_CACHE_SLOTS
    # The latest shape is resident, the first was evicted.
    assert run(ctx, shape(BASE_SIDE_CACHE_SLOTS + 2))[1] == (1, 0, 0, 0)
    assert run(ctx, shape(0))[1] == (0, 0, 1, 0)


def test_get_is_lru_and_a_failing_build_caches_nothing():
    ctx = RaSQLContext(num_workers=1)
    ctx.register_table("t", ("A",), [(1,)])
    cache = BaseSideCache(ctx.catalog)

    def at():
        return ctx.catalog.epoch("t")

    with pytest.raises(ZeroDivisionError):
        cache.get(("k",), at(), lambda: 1 / 0)
    assert len(cache) == 0
    assert cache.get(("k",), at(), lambda: "built") == ("built", "built")
    assert cache.get(("k",), at(), lambda: "again") == ("built", "hits")
    for i in range(BASE_SIDE_CACHE_SLOTS - 1):
        cache.get((i,), at(), lambda: i)
    cache.get(("k",), at(), None)            # touch: now the youngest
    cache.get(("one more",), at(), lambda: 0)
    assert cache.get(("k",), at(), None) == ("built", "hits")
    assert cache.get((0,), at(), lambda: "rebuilt") == ("rebuilt", "built")

    # The one rule: the same epochs hit; epochs that only grew let an
    # entry that can absorb do so (one that cannot rebuilds); a moved
    # generation rebuilds, in the entry's own slot.
    ctx.catalog.append_rows("t", [(2,), (3,)])
    seen = []

    def absorb(value, held):
        seen.append(held)
        return value + "+2"

    assert cache.get(("k",), at(), None, absorb) == ("built+2", "appended")
    assert seen == [1] and at() == (1, 3)
    assert cache.get(("k",), at(), None, absorb) == ("built+2", "hits")
    assert cache.get((1,), at(), lambda: "no absorb") \
        == ("no absorb", "built")
    ctx.catalog.append_rows("t", [(4,)])
    with pytest.raises(ZeroDivisionError):
        cache.get(("k",), at(), None, lambda value, held: 1 / 0)
    assert cache.get(("k",), at(), lambda: "anew") == ("anew", "built")
    size = len(cache)
    ctx.catalog.note_mutation("t")
    assert cache.get(("k",), at(), lambda: "new epoch", absorb) \
        == ("new epoch", "built")
    ctx.register_table("t", ("A",), [(1,)])
    assert at() == (3, 1)
    assert cache.get(("k",), at(), lambda: "replaced", absorb) \
        == ("replaced", "built")
    assert len(cache) == size and len(seen) == 1


def test_data_version_is_the_sum_of_the_epochs():
    ctx = RaSQLContext(num_workers=1)
    catalog = ctx.catalog
    assert catalog.data_version == 0
    catalog.register("a", ("X",), [(1,), (2,)])
    catalog.register("b", ("Y",))
    assert (catalog.epoch("A"), catalog.epoch("b")) == ((1, 2), (1, 0))
    assert catalog.data_version == 4
    assert catalog.append_rows("b", [(7,), (7,)]) == 2
    assert catalog.append_rows("b", []) == 0
    assert (catalog.epoch("a"), catalog.epoch("b")) == ((1, 2), (1, 2))
    catalog.note_mutation("a")
    assert (catalog.epoch("a"), catalog.epoch("b")) == ((2, 2), (1, 2))
    catalog.note_mutation()
    assert (catalog.epoch("a"), catalog.epoch("b")) == ((3, 2), (2, 2))
    assert catalog.data_version == 9
    # What a statement can read, from the words in it (any case).
    assert catalog.epochs(["select", "B", "from", "nowhere"]) \
        == (("b", 2, 2),)
    assert catalog.epochs(["a", "b", "a"]) == (("a", 3, 2), ("b", 2, 2))
    with pytest.raises(AnalysisError):
        catalog.epoch("nowhere")
    with pytest.raises(AnalysisError):
        catalog.note_mutation("nowhere")


# ----------------------------------------------------------------------
# bypasses: relations the catalog does not version
# ----------------------------------------------------------------------


def test_per_query_materialized_relation_bypasses_the_cache():
    script = """
    CREATE VIEW cheap(Src, Dst, Cost) AS
      (SELECT Src, Dst, Cost FROM edge WHERE Cost < 4);
    WITH recursive path(Dst, min() AS Cost) AS
      (SELECT 0, 0) UNION
      (SELECT cheap.Dst, path.Cost + cheap.Cost
       FROM path, cheap WHERE path.Dst = cheap.Src)
    SELECT Dst, Cost FROM path
    """
    ctx = sssp_ctx()
    first, outcome = run(ctx, script)
    assert outcome == (0, 0, 0, 1) and len(ctx.base_sides) == 0
    again, outcome = run(ctx, script)
    assert outcome == (0, 0, 0, 1) and again == first
    filtered = SSSP.replace("WHERE path.Dst = edge.Src",
                            "WHERE path.Dst = edge.Src AND edge.Cost < 4")
    assert first == run(ctx, filtered)[0]
    report = ctx.last_run.explain_analyze()
    assert "base sides: 0 hit, 0 appended, 1 built, 0 bypassed" in report
    ctx.sql(script)
    assert ("base sides: 0 hit, 0 appended, 0 built, 1 bypassed"
            in ctx.last_run.explain_analyze())


def test_incremental_view_shares_the_sessions_entries():
    """A view reads the session's tables through the cache: its sides are
    the entries ad-hoc SQL hits, an insert through either is absorbed
    once, by whichever reads first, and both answer as a fresh context."""
    ctx = sssp_ctx()
    run(ctx, SSSP)
    view = IncrementalView(ctx, SSSP)
    assert view.operator.base_side_counts == {
        "hits": 1, "appended": 0, "built": 0, "bypassed": 0}
    (key,) = _side_keys(ctx)

    def shared():
        (_, sides, _, _), _ = ctx.base_sides._entries[key]
        return all(sides is own
                   for own in view.operator.runtime.base_partitions.values())

    assert shared()
    inserted = []
    for i in range(20):
        row = (i % 7, 100 + i, 1.0)
        inserted.append(row)
        if i % 2:  # through the view: it absorbs, the next query hits
            view.insert("edge", [row])
            rows, outcome = run(ctx, SSSP)
            assert outcome == (1, 0, 0, 0)
        else:  # through the catalog: the query absorbs, the view hits
            ctx.catalog.append_rows("edge", [row])
            rows, outcome = run(ctx, SSSP)
            assert outcome == (0, 1, 0, 0)
        assert sorted(view.result().rows, key=repr) == rows
        assert shared()
    assert view.repairs == 20
    assert view.operator.base_side_counts["built"] == 0
    fresh = make_ctx({"edge": (("Src", "Dst", "Cost"), EDGES + inserted)})
    assert rows == run(fresh, SSSP)[0]
    # The one copy of the sides both grew deep-equals a fresh build.
    assert cached(ctx) == cached(fresh)


def test_incremental_view_outlives_eviction_and_a_cleared_cache():
    """The entries a view's sides came from may be evicted, or the cache
    cleared (``ctx.close()``): its next catch-up reads the rebuilt ones —
    the distinct list is prefix-stable, so the facts past the ones the
    state covers are still exactly the new ones."""
    ctx = sssp_ctx()
    view = IncrementalView(ctx, SSSP)
    inserted = [(0, 300, 1.0), (300, 301, 2.0), (0, 300, 1.0), (2, 302, 0.5)]
    ctx.base_sides.clear()
    view.insert("edge", inserted[:2])
    for i in range(BASE_SIDE_CACHE_SLOTS + 1):  # evicts every entry
        ctx.sql(SSSP.replace("WHERE path.Dst = edge.Src",
                             f"WHERE path.Dst = edge.Src AND edge.Cost < {i}"))
    ctx.catalog.append_rows("edge", inserted[2:])
    fresh = make_ctx({"edge": (("Src", "Dst", "Cost"), EDGES + inserted)})
    assert sorted(view.result().rows, key=repr) == run(fresh, SSSP)[0]
    # Built at creation, after the clear and after the eviction.
    assert view.operator.base_side_counts["built"] == 3
    assert view.repairs == 2


# ----------------------------------------------------------------------
# what stays per query: the simulated cluster's charges
# ----------------------------------------------------------------------


@pytest.mark.parametrize("query_name", ["sssp", "tc", "cc"])
def test_simulated_charges_do_not_depend_on_cache_history(query_name):
    build_tables, make_query = QUERY_SETUPS[query_name]
    sql = make_query()
    cold = make_ctx(build_tables())
    cold.sql(sql)
    warm = make_ctx(build_tables())
    warm.sql(sql)
    miss_setup = warm.last_run.time_breakdown["fixpoint-setup"]
    warm.reset_metrics()
    # The high-water counters are running maxima over the manager's life.
    warm.cluster.memory._hwm = [0] * NUM_WORKERS
    warm.sql(sql)
    assert warm.metrics.get("base_side_cache_hits") > 0
    # A hit replays the seconds the build took when it ran.
    assert warm.last_run.time_breakdown["fixpoint-setup"] == miss_setup

    def discrete(ctx):
        return {key: value for key, value in ctx.metrics.snapshot().items()
                if key in ("stages", "tasks", "iterations", "broadcast_bytes",
                           "broadcast_bytes_compressed")
                or key.startswith(("shuffle_", "memory_hwm_bytes_w"))}

    assert discrete(warm) == discrete(cold)
    assert discrete(cold)["stages"] > 0


# ----------------------------------------------------------------------
# no exit path leaves the cache unusable or half built
# ----------------------------------------------------------------------


def test_deadline_abort_leaves_the_cache_usable():
    ctx = sssp_ctx()
    expected, _ = run(sssp_ctx(), SSSP)
    with pytest.raises(QueryDeadlineExceededError):
        ctx.sql(SSSP, config=ExecutionConfig(deadline_seconds=1e-9))
    for key in _side_keys(ctx):
        assert len(ctx.base_sides._entries[key][0]) == 4
    assert run(ctx, SSSP)[0] == expected
    with pytest.raises(QueryDeadlineExceededError):
        ctx.sql(SSSP, config=ExecutionConfig(deadline_seconds=1e-9))
    rows, outcome = run(ctx, SSSP)
    assert rows == expected and outcome == (1, 0, 0, 0)


def test_memory_budget_abort_leaves_the_cache_usable():
    ctx = sssp_ctx(memory_config=MemoryConfig(worker_budget_bytes=8))
    with pytest.raises(MemoryBudgetExceededError):
        ctx.sql(SSSP)
    # The side was complete before the charge that overflowed.
    assert len(_side_keys(ctx)) == 1
    ctx.cluster.memory.config = MemoryConfig()
    ctx.cluster.memory.reset_budget()
    rows, outcome = run(ctx, SSSP)
    assert rows == run(sssp_ctx(), SSSP)[0] and outcome == (1, 0, 0, 0)


def test_checkpoint_resume_uses_and_keeps_the_cache(tmp_path):
    expected, _ = run(sssp_ctx(), SSSP)
    durable = ExecutionConfig(checkpoint_interval=1,
                              checkpoint_dir=str(tmp_path))
    ctx = sssp_ctx()
    with pytest.raises(QueryDeadlineExceededError):
        ctx.sql(SSSP, config=durable.but(deadline_seconds=0.05))
    resumed = ctx.resume(ctx.last_run.query_id, config=durable)
    assert ctx.last_run.resumed_from > 0
    assert sorted(resumed.rows, key=repr) == expected
    # The resumed operator re-set-up its base relations from the cache
    # (the counters themselves are restored from the checkpoint).
    assert ("base sides: 1 hit, 0 appended, 0 built, 0 bypassed"
            in ctx.last_run.explain_analyze())
    # Checkpointed runs plan stacked; the plain query shares the entry.
    rows, outcome = run(ctx, SSSP)
    assert rows == expected and outcome == (1, 0, 0, 0)


def test_close_drops_the_cache():
    ctx = sssp_ctx()
    ctx.sql(SSSP)
    assert len(ctx.base_sides) > 0
    ctx.close()
    assert len(ctx.base_sides) == 0
    # Closing is not terminal for a simulated context.
    assert run(ctx, SSSP)[1] == (0, 0, 1, 0)


# ----------------------------------------------------------------------
# one object per value: the table's canonical-value map
# ----------------------------------------------------------------------


def _fresh(value):
    """An equal value in a new object (ints past the small-int cache and
    runtime-built strings are never shared by CPython on their own)."""
    return int(str(value)) if type(value) is int else "".join(value)


def _canon(ctx, table="edge") -> dict:
    (_, _, canon), _ = ctx.base_sides._entries[(table, "distinct")]
    return canon


def _hash_sides(operator):
    """``(plan, side)`` of every hash side the operator's steps probe."""
    runtime = operator.runtime
    for plan in operator.planned.base_plans:
        sides = runtime.base_partitions.get(plan.step_id) \
            or [runtime.broadcast_tables.get(plan.step_id)]
        for side in sides:
            if isinstance(side, dict):
                yield plan, side


def _side_values(plan, side):
    """Every key column value of ``side``, and every stored column value
    when it stores columns rather than whole rows."""
    read = plan.read_positions
    for key, bucket in side.items():
        yield from key if len(plan.build_key) > 1 else (key,)
        if read is not None:
            for value in bucket:
                yield from value if len(read) != 1 else (value,)


def _assert_one_object_per_value(ctx, operator, relation):
    """Every int / str value the operator's sides hold is the canonical
    object for it, and the map holds nothing else."""
    canon, held = _canon(ctx), set()
    rows = {id(row) for row in relation.rows}
    for plan, side in _hash_sides(operator):
        for value in _side_values(plan, side):
            if type(value) in (int, str):
                assert canon[value] is value, (plan.describe_side(
                    relation.columns), value)
                held.add(value)
        if plan.read_positions is None:  # whole rows are the table's own
            assert all(id(row) in rows
                       for bucket in side.values() for row in bucket)
    assert held and set(canon) == held


ONE_OBJECT_CONFIGS = {
    "pruned": None,
    "whole_rows": ExecutionConfig(codegen=False),
    "broadcast": ExecutionConfig(broadcast_bases=True),
}


@pytest.mark.parametrize("config", sorted(ONE_OBJECT_CONFIGS))
@pytest.mark.parametrize("query_name", ["sssp", "cc", "tc"])
def test_equal_values_are_one_object_after_build_and_absorb(
        query_name, config, operators):
    """Every int / str value a side holds in its keys or stored columns
    is the table's canonical object for it — across partitions, sides
    and appended rows; whole rows stay the relation's own tuples."""
    config = ONE_OBJECT_CONFIGS[config]
    vertices = [1000 + i for i in range(12)]
    rng = random.Random(query_name)
    edges = [(_fresh(rng.choice(vertices)), _fresh(rng.choice(vertices)),
              float(rng.randint(1, 5))) for _ in range(60)]
    if query_name != "sssp":
        edges = [edge[:2] for edge in edges]
    sql = (get_query(query_name).formatted(source=vertices[0])
           if query_name == "sssp" else get_query(query_name).sql)
    columns = ("Src", "Dst", "Cost")[:len(edges[0])]
    ctx = make_ctx({"edge": (columns, edges)}, config)
    answer, (_, _, built, _) = run(ctx, sql)
    assert built > 0
    _assert_one_object_per_value(ctx, operators[-1], ctx.catalog.get("edge"))
    held = len(_canon(ctx))

    # New objects for old values, and a new vertex in two objects.
    pad = edges[0][2:]
    new = [(_fresh(vertices[1]), _fresh(vertices[0])) + pad,
           (_fresh(vertices[2]), _fresh(2000)) + pad,
           (_fresh(2000), _fresh(vertices[3])) + pad]
    ctx.catalog.append_rows("edge", new)
    answer, (_, appended, built, _) = run(ctx, sql)
    assert appended > 0 and built == 0
    _assert_one_object_per_value(ctx, operators[-1], ctx.catalog.get("edge"))
    assert len(_canon(ctx)) == held + 1 and 2000 in _canon(ctx)
    fresh = make_ctx({"edge": (columns, edges + new)}, config)
    assert answer == run(fresh, sql)[0]


def test_string_values_are_one_object():
    edges = [(_fresh(a), _fresh(b)) for a, b in
             [("ab", "cd"), ("cd", "ef"), ("ef", "ab"), ("cd", "gh")]]
    ctx = make_ctx({"edge": (("Src", "Dst"), edges)})
    rows = ctx.sql(get_query("reach").formatted(source="'ab'")).rows
    assert sorted(rows) == [("ab",), ("cd",), ("ef",), ("gh",)]
    canon = _canon(ctx)
    assert sorted(canon) == ["ab", "cd", "ef", "gh"]
    (_, sides, _, _), _ = [entry for key, entry in ctx.base_sides._entries.items()
                        if key[-1] != "distinct"][0]
    for side in sides:
        for key, bucket in side.items():
            assert canon[key] is key
            assert all(canon[value] is value for value in bucket)


#: Values that compare equal across types, or not even to themselves.
NAN = float("nan")
TRICKY = [1, 1.0, True, 0, 0.0, -0.0, False, NAN, 2, 2.0, "1", 1001]


def _typed(value):
    """A value as a comparable, type-exact form: ``1``, ``1.0`` and
    ``True`` differ, and so do ``0.0`` and ``-0.0``; NaN equals NaN."""
    if isinstance(value, tuple):
        return tuple(map(_typed, value))
    return type(value).__name__, repr(value)


def _typed_side(side) -> list:
    return [(_typed(key), [_typed(value) for value in bucket])
            for key, bucket in side.items()]


@pytest.mark.parametrize("config", [
    None, ExecutionConfig(codegen=False), ExecutionConfig(broadcast_bases=True),
    ExecutionConfig(join_strategy="sort_merge")])
def test_mixed_types_keep_their_type_and_repr(config, operators, monkeypatch):
    """``1 == 1.0 == True`` and ``0.0 == -0.0``: a column holding any
    of them is never canonicalized, so every side holds every value as
    the table gave it — exactly what a build with no canonical map at
    all holds — and the answers match the sqlite lowering."""
    from repro.compile.differential import diff_query
    from repro.core import physical

    edges = [(0, 1, 1), (1, 1.0, 2.0), (1.0, True, 0.5), (True, 2, 0.0),
             (2, 2.0, -0.0), (2.0, 0.0, 3), (-0.0, 1001, True),
             (1001, 3, 1.5), (NAN, 3, 1), (5, 4, NAN), (4, 1001, 2)]
    sssp = get_query("sssp").formatted(source=0)
    reach = get_query("reach").formatted(source=0)

    def sides_and_answers():
        ctx = make_ctx({"edge": (("Src", "Dst", "Cost"), edges)}, config)
        answers = [ctx.sql(sssp).rows, ctx.sql(reach).rows]
        sides = [_typed_side(side) for operator in operators[-2:]
                 for _, side in _hash_sides(operator)]
        # Sorted runs and nested-loop lists hold the table's rows as-is.
        assert sides or config.join_strategy == "sort_merge"
        return ctx, sides, [sorted(map(_typed, rows)) for rows in answers]

    ctx, sides, answers = sides_and_answers()
    for sql in (sssp, reach):
        report = diff_query(ctx, sql, config=config)
        assert report.equal, report.summary()
    monkeypatch.setattr(physical, "_canonical", lambda values: False)
    _, reference_sides, reference_answers = sides_and_answers()
    assert sides == reference_sides
    assert answers == reference_answers


def _reference_sides(plan, rows, n):
    """The hash sides over ``rows``, built row by row with no canonical
    map: the definition the interning build must equal."""
    from repro.engine.kernels import make_extractor, make_router

    buckets = make_router(plan.build_key, n)(rows) if n else [rows]
    key = make_extractor(plan.build_key)
    stored = ((lambda row: row) if plan.read_positions is None
              else make_extractor(plan.read_positions))
    sides = []
    for bucket in buckets:
        side = {}
        for row in bucket:
            side.setdefault(key(row), []).append(stored(row))
        sides.append(side)
    return sides


def test_build_and_append_equal_an_uninterned_build():
    """A stream of mixed-type, duplicate-laden batches through
    ``build_base_side`` + ``append_base_side``, for every stored shape:
    the sides equal a reference build with no canonical map, entry for
    entry, in order and type for type."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from repro.core.physical import (
        BaseRelationPlan,
        append_base_side,
        build_base_side,
    )
    from repro.engine.kernels import make_router

    value = st.one_of(st.sampled_from(TRICKY),
                      st.integers(998, 1003).map(_fresh),
                      st.sampled_from(["a", "b"]).map(_fresh),
                      st.floats(allow_nan=True, allow_infinity=False))
    int_or_str = st.one_of(st.integers(998, 1003).map(_fresh),
                           st.sampled_from(["a", "ab"]).map(_fresh))
    # Some batches are all int / str (interned), some mix in the rest.
    row = st.tuples(st.one_of(int_or_str, value), st.one_of(int_or_str, value),
                    value)
    batch = st.one_of(st.lists(st.tuples(int_or_str, int_or_str, int_or_str),
                               max_size=8),
                      st.lists(row, max_size=8))
    shapes = st.tuples(st.sampled_from([(0,), (1,), (0, 1)]),
                       st.sampled_from([None, (), (1,), (2,), (1, 2),
                                        (2, 0)]),
                       st.sampled_from([0, 1, 3]))

    @settings(max_examples=150, deadline=None)
    @given(shapes, st.lists(batch, min_size=1, max_size=5))
    def check(shape, batches):
        build_key, read, n = shape
        plan = BaseRelationPlan(
            step_id=0, relation="t", binding="t",
            mode="copartition" if n else "broadcast", offset=0, arity=3,
            build_slots=build_key, filter=None, filter_sql="", equi=True,
            read_positions=read)
        route = make_router(build_key, n) if n else None
        canon, so_far = {}, list(batches[0])
        _, sides = build_base_side(plan, list(batches[0]), route,
                                   canon=canon)
        for more in batches[1:]:
            append_base_side(plan, list(more), sides, route, canon)
            so_far += more
        expected = _reference_sides(plan, so_far, n)
        assert list(map(_typed_side, sides)) \
            == list(map(_typed_side, expected))
        assert {type(v) for v in canon} <= {int, str}
        assert all(canon[v] is v for v in canon)

    check()


def test_the_map_is_released_with_its_entry():
    """The canonical map lives in the table's ``distinct`` entry: an
    eviction, a new generation of the table and ``ctx.close()`` each
    release it (a token only the map holds is freed)."""

    class Token:
        pass

    def plant(ctx):
        token = Token()
        _canon(ctx)["only the map holds this"] = token
        return weakref.ref(token)

    ctx = sssp_ctx()
    ctx.register_table("other", ("Src", "Dst", "Cost"), EDGES)
    run(ctx, SSSP)
    token = plant(ctx)
    run(ctx, SSSP)
    assert token() is not None  # a hit keeps it
    ctx.catalog.append_rows("edge", [(0, 99, 1.0)])
    run(ctx, SSSP)
    assert token() is not None  # so does an append
    for i in range(BASE_SIDE_CACHE_SLOTS):
        run(ctx, SSSP.replace("edge", "other").replace(
            "other.Src", f"other.Src AND other.Cost < {i}"))
    assert ("edge", "distinct") not in ctx.base_sides._entries
    assert token() is None

    run(ctx, SSSP)
    token = plant(ctx)
    ctx.register_table("edge", ("Src", "Dst", "Cost"), EDGES)
    run(ctx, SSSP)
    assert token() is None and "only the map holds this" not in _canon(ctx)

    token = plant(ctx)
    ctx.close()
    assert token() is None


# ----------------------------------------------------------------------
# a finished fixpoint is freed by reference counting
# ----------------------------------------------------------------------


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_finished_step_is_freed_without_the_cycle_collector(
        collector_off, monkeypatch):
    steps = []
    original = FixpointOperator.execute

    def execute(self, *args, **kwargs):
        steps.append(weakref.ref(self.step))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(FixpointOperator, "execute", execute)
    ctx = sssp_ctx()
    for config in (None, ExecutionConfig(codegen=False),
                   ExecutionConfig(stage_combination=False)):
        result = ctx.sql(SSSP, config=config)
        assert steps.pop()() is None
        assert len(result.rows) > 1  # the rows outlive the state


def test_live_incremental_view_keeps_its_step(collector_off):
    ctx = sssp_ctx()
    view = IncrementalView(ctx, SSSP)
    step = weakref.ref(view.operator.step)
    size = len(view.result().rows)
    ctx.sql(SSSP)
    view.insert("edge", [(0, 500, 1.0)])
    assert step() is view.operator.step
    assert len(view.result().rows) == size + 1


def _install_message(ctx, sid: str, req_id: int = 1) -> tuple:
    """The ``install`` control message a pool worker would receive for
    sssp over ``ctx``'s tables."""
    from repro.core.analyzer import analyze
    from repro.core.optimizer import optimize
    from repro.core.parser import parse
    from repro.core.planner import plan_clique
    from repro.engine.backend.payloads import (build_install_spec,
                                               split_install_spec)

    config = ExecutionConfig(decomposed_plans=False)
    clique, = optimize(analyze(parse(SSSP), ctx.catalog)).cliques()
    operator = FixpointOperator(plan_clique(clique, config), ctx.cluster,
                                config, ctx.catalog.get)
    operator._setup_base_relations()
    light, heavy, digest = split_install_spec(
        build_install_spec(operator, sid))
    return (req_id, "install", light, digest, heavy)


def test_released_worker_session_is_freed_without_the_cycle_collector(
        collector_off):
    from repro.engine.backend.worker import WorkerState

    state = WorkerState(0)
    state.control(_install_message(sssp_ctx(), "s1"))
    session = weakref.ref(state.sessions["s1"])
    step = weakref.ref(state.sessions["s1"].step)
    state.sessions["s1"].step.merge(0, {"path": [(0, 0)]})
    state.control((2, "release", "s1"))
    assert session() is None and step() is None


def _iterate_blob(sid: str, partition: int) -> bytes:
    """An ``iterate`` task payload merging one ``path`` row."""
    from repro.engine.serialization import dump_payload

    return dump_payload(("iterate", sid, partition, {"path": [(0, 0)]}))


def test_worker_decodes_a_heavy_half_once_per_digest(monkeypatch):
    from repro.engine.backend import payloads
    from repro.engine.backend.worker import WorkerState

    decodes = []

    def load_payload(blob, _original=payloads.load_payload):
        decodes.append(len(blob))
        return _original(blob)

    monkeypatch.setattr(payloads, "load_payload", load_payload)
    ctx = sssp_ctx()
    state = WorkerState(0)
    _, _, light, digest, heavy = _install_message(ctx, "s1")
    state.control((1, "install", light, digest, heavy))
    assert decodes == [len(heavy)]  # the broadcast tables and the pickles
    sizes = [len(blob) for blob in state.decoded[digest].pickled]
    assert len(sizes) == NUM_WORKERS
    # A partition's sides are decoded by the first task for it, once.
    for partition in (2, 0, 2, 0, 2):
        state.run_task(_iterate_blob("s1", partition))
    assert decodes == [len(heavy), sizes[2], sizes[0]]
    # The driver knows the worker holds this digest: no bytes, no decode.
    _, _, again, same_digest, _ = _install_message(ctx, "s2")
    assert same_digest == digest
    state.control((2, "install", again, digest, None))
    for partition in (0, 2):
        state.run_task(_iterate_blob("s2", partition))
    assert decodes == [len(heavy), sizes[2], sizes[0]]
    first, second = state.sessions["s1"], state.sessions["s2"]
    assert first.step.base_partitions is second.step.base_partitions
    assert first.step is not second.step
    # Another table version replaces the held one; the worker holds one
    # digest, so going back to the older one needs its bytes, and each
    # served partition its decode, again.
    ctx.catalog.append_rows("edge", [(0, 99, 1.0)])
    _, _, grown, other_digest, other_heavy = _install_message(ctx, "s3")
    assert other_digest != digest
    state.control((3, "install", grown, other_digest, other_heavy))
    assert decodes == [len(heavy), sizes[2], sizes[0], len(other_heavy)]
    assert list(state.decoded) == [other_digest]
    state.control((4, "install", again, digest, heavy))
    state.run_task(_iterate_blob("s2", 0))
    assert decodes == [len(heavy), sizes[2], sizes[0], len(other_heavy),
                       len(heavy), sizes[0]]
    assert list(state.decoded) == [digest]


#: What the slowed decode sleeps: ≫ one merge-and-derive of sssp's
#: fixture graph, so the task clock would show it.
DECODE_S = 0.25


def test_a_task_decodes_its_partition_alone_and_off_its_clock(monkeypatch):
    """Only the partition a task runs for is decoded, exactly once, and
    the decode is install work: the reply's CPU seconds leave it out."""
    import threading

    from repro.engine.backend import payloads, worker
    from repro.engine.backend.worker import WorkerState

    decoded = []
    original = payloads.HeavyHalf.decode

    def slow_decode(self, partition):
        if self.pickled[partition] is not None:
            decoded.append(partition)
            time.sleep(DECODE_S)
        original(self, partition)

    monkeypatch.setattr(payloads.HeavyHalf, "decode", slow_decode)
    state = WorkerState(0)
    state.control(_install_message(sssp_ctx(), "s1"))
    half, = state.decoded.values()
    replies = []
    conn = SimpleNamespace(send=replies.append)
    started = time.perf_counter()
    worker._reply(conn, threading.Lock(), 7,
                  lambda: state.run_task(_iterate_blob("s1", 0)))
    took = time.perf_counter() - started
    (tag, req_id, cpu_seconds, (d_by_view, _)), = replies
    assert (tag, req_id, d_by_view) == ("ok", 7, {"path": 1})
    assert decoded == [0] and took >= DECODE_S
    assert cpu_seconds < DECODE_S / 2
    for step, sides in half.base_partitions.items():
        assert sides[0] is not None, step
        assert all(side is None for side in sides[1:]), step
    assert half.pickled[0] is None
    assert all(type(blob) is bytes for blob in half.pickled[1:])


def test_driver_ships_a_heavy_half_exactly_when_the_worker_holds_another():
    from repro.engine.backend.process import ProcessClusterBackend
    from repro.engine.metrics import MetricsRegistry

    sent = []
    handle = SimpleNamespace(installed_digest=None, send=sent.append)
    metrics = MetricsRegistry()
    backend = SimpleNamespace(cluster=SimpleNamespace(metrics=metrics),
                              _next_req=itertools.count(1).__next__)
    for digest, heavy in [("a", b"AAA"), ("a", b"AAA"), ("b", b"BBBBB"),
                          ("a", b"AAA")]:
        ProcessClusterBackend._send_install(backend, handle, "light", heavy,
                                            digest)
    assert [(message[3], message[4]) for message in sent] == [
        ("a", b"AAA"), ("a", None), ("b", b"BBBBB"), ("a", b"AAA")]
    assert handle.installed_digest == "a"
    assert metrics.get("process_install_bytes") == 11
    assert metrics.get("process_payload_bytes_saved") == 3
