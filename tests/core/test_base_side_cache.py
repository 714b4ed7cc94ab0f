"""The cross-query base-side cache (DESIGN.md §19).

One invariant: what a fixpoint builds from a *registered* base table —
its de-duplicated rows and each ``(buckets, sides)`` of a plan shape — is
built once per ``Catalog.data_version`` and shared, read-only, by every
query of the session; everything the simulated cluster is charged stays
per query.  These tests pin the hit path (same objects, no builder call),
every invalidator for every library query on six config axes, the key
(distinct shapes, LRU bound), the bypasses (per-query materialized
relations, incremental views), the simulated clock's independence from
cache history, and that no exit path leaves a half-built entry.

Also here, because the cache would otherwise hide it: a finished
fixpoint is freed by reference counting (no cycle through the terms'
runtime), checked with the collector disabled.
"""

import copy
import gc
import weakref

import pytest

from repro import ExecutionConfig, RaSQLContext
from repro.core import fixpoint
from repro.core.fixpoint import FixpointOperator
from repro.core.physical import BASE_SIDE_CACHE_SLOTS, BaseSideCache
from repro.core.streaming import IncrementalView
from repro.engine.cluster import Cluster
from repro.engine.memory import MemoryConfig
from repro.errors import (
    MemoryBudgetExceededError,
    QueryDeadlineExceededError,
)
from repro.queries.library import get_query
from repro.relation import Relation
from tests.integration.test_chaos import QUERY_SETUPS

pytestmark = pytest.mark.usefixtures("ungated_kernels")

NUM_WORKERS = 3
AXES = {
    "default": ExecutionConfig(),
    "sort_merge": ExecutionConfig(join_strategy="sort_merge"),
    "broadcast": ExecutionConfig(broadcast_bases=True),
    "kernels_off": ExecutionConfig(kernels=False),
    "magic_off": ExecutionConfig(magic_filters=False),
    "stacked": ExecutionConfig(decomposed_plans=False),
}
COUNTERS = ("base_side_cache_hits", "base_side_cache_misses",
            "base_side_cache_bypassed")
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
    """``(sorted rows, (hits, misses, bypassed) of this run)``."""
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
    assert outcome == (0, 1, 0)
    assert sorted(builder_calls) == ["_distinct", "build_base_side"]
    del builder_calls[:]

    second, outcome = run(ctx, SSSP)
    assert outcome == (1, 0, 0) and second == first
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


@pytest.mark.parametrize("axis", sorted(AXES))
@pytest.mark.parametrize("query_name", sorted(QUERY_SETUPS))
def test_every_invalidator_rebuilds_and_matches_a_fresh_context(
        query_name, axis):
    build_tables, make_query = QUERY_SETUPS[query_name]
    config, sql = AXES[axis], make_query()
    full = build_tables()
    # The table that changes: the largest one, with and without its last
    # row (a subset of valid input stays valid — DAGs, forests).
    name = max(full, key=lambda table: len(full[table][1]))
    columns, rows = full[name]
    short = {**full, name: (columns, rows[:-1])}
    expected = {id(tables): run(make_ctx(tables, config), sql)[0]
                for tables in (full, short)}

    # Two steps of one query that read a table in the same shape share
    # the entry, so even a cold run may count hits.
    ctx = make_ctx(short, config)
    answer, cold = run(ctx, sql)
    hits, built, bypassed = cold
    assert answer == expected[id(short)]
    assert built or hits == 0
    warm = (hits + built, 0, bypassed)
    assert run(ctx, sql) == (answer, warm)

    def invalidated_by(mutate, tables):
        mutate()
        assert run(ctx, sql) == (expected[id(tables)], cold)
        assert run(ctx, sql) == (expected[id(tables)], warm)

    invalidated_by(lambda: ctx.catalog.append_rows(name, [rows[-1]]), full)
    invalidated_by(lambda: ctx.register_table(name, columns, rows[:-1]),
                   short)
    invalidated_by(lambda: ctx.catalog.register_relation(
        Relation(name, columns, rows)), full)

    def mutate_in_place():
        ctx.catalog.get(name).rows.pop()
        ctx.catalog.note_mutation()

    invalidated_by(mutate_in_place, short)


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
        == (0, 1, 0)
    hashed, sorted_run = (op.runtime.base_partitions for op in operators)
    assert all(isinstance(side, dict) for sides in hashed.values()
               for side in sides)
    assert all(isinstance(side, list) for sides in sorted_run.values()
               for side in sides)

    # A filtered scan of the same table on the same key is its own entry.
    filtered = SSSP.replace("WHERE path.Dst = edge.Src",
                            "WHERE path.Dst = edge.Src AND edge.Cost < 4")
    assert filtered != SSSP
    assert run(ctx, filtered)[1] == (0, 1, 0)
    assert run(ctx, filtered)[1] == (1, 0, 0)
    # The reference router and the kernel router do not share buckets.
    assert run(ctx, SSSP, ExecutionConfig(kernels=False))[1] == (0, 1, 0)
    assert run(ctx, SSSP)[1] == (1, 0, 0)
    assert len(_side_keys(ctx)) == 4
    # A plan that reads the same columns of edge on the same key shares
    # sssp's entry ...
    assert run(ctx, get_query("sssp").formatted(source=3))[1] == (1, 0, 0)
    # ... reach reads only Dst where sssp reads (Dst, Cost): the stored
    # columns are part of the shape, so it builds (once) its own.
    reach = get_query("reach").formatted(source=0)
    assert run(ctx, reach)[1] == (0, 1, 0)
    assert run(ctx, reach)[1] == (1, 0, 0)
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
        assert run(ctx, shape(i))[1] == (0, 1, 0)
        assert len(ctx.base_sides) <= BASE_SIDE_CACHE_SLOTS
    assert len(ctx.base_sides) == BASE_SIDE_CACHE_SLOTS
    # The latest shape is resident, the first was evicted.
    assert run(ctx, shape(BASE_SIDE_CACHE_SLOTS + 2))[1] == (1, 0, 0)
    assert run(ctx, shape(0))[1] == (0, 1, 0)


def test_get_is_lru_and_a_failing_build_caches_nothing():
    ctx = RaSQLContext(num_workers=1)
    cache = BaseSideCache(ctx.catalog)
    with pytest.raises(ZeroDivisionError):
        cache.get(("k",), lambda: 1 / 0)
    assert len(cache) == 0
    assert cache.get(("k",), lambda: "built") == ("built", False)
    assert cache.get(("k",), lambda: "again") == ("built", True)
    for i in range(BASE_SIDE_CACHE_SLOTS - 1):
        cache.get((i,), lambda: i)
    cache.get(("k",), None)            # touch: now the youngest
    cache.get(("one more",), lambda: 0)
    assert cache.get(("k",), None) == ("built", True)
    assert cache.get((0,), lambda: "rebuilt") == ("rebuilt", False)
    ctx.catalog.note_mutation()
    assert cache.get(("k",), lambda: "new epoch") == ("new epoch", False)
    assert len(cache) == 1


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
    assert outcome == (0, 0, 1) and len(ctx.base_sides) == 0
    again, outcome = run(ctx, script)
    assert outcome == (0, 0, 1) and again == first
    filtered = SSSP.replace("WHERE path.Dst = edge.Src",
                            "WHERE path.Dst = edge.Src AND edge.Cost < 4")
    assert first == run(ctx, filtered)[0]
    report = ctx.last_run.explain_analyze()
    assert "base sides: 0 hit, 1 built, 0 bypassed" in report
    ctx.sql(script)
    assert ("base sides: 0 hit, 0 built, 1 bypassed"
            in ctx.last_run.explain_analyze())


def test_incremental_view_never_shares_an_entry():
    ctx = sssp_ctx()
    baseline, _ = run(ctx, SSSP)
    cached = copy.deepcopy(list(ctx.base_sides._entries.values()))
    bypassed = ctx.metrics.get("base_side_cache_bypassed")
    view = IncrementalView(ctx, SSSP)
    assert ctx.metrics.get("base_side_cache_bypassed") == bypassed + 1
    assert view.operator.base_sides is None
    view_sides = view.operator.runtime.base_partitions
    for i in range(20):
        view.insert("edge", [(i % 7, 100 + i, 1.0)])
        rows, outcome = run(ctx, SSSP)
        # The catalog's table did not change: still a hit, same answer.
        assert outcome == (1, 0, 0) and rows == baseline
    assert len(view.result().rows) == len(baseline) + 20
    # The (pruned) sides the 20 appends grew deep-equal a fresh build.
    assert all(plan.read_positions == (1, 2)
               for plan in view.planned.base_plans)
    inserted = [(i % 7, 100 + i, 1.0) for i in range(20)]
    fresh = IncrementalView(make_ctx(
        {"edge": (("Src", "Dst", "Cost"), EDGES + inserted)}), SSSP)
    assert view_sides == fresh.operator.runtime.base_partitions
    assert (view.operator.runtime.broadcast_tables
            == fresh.operator.runtime.broadcast_tables)
    for entry in ctx.base_sides._entries.values():
        if isinstance(entry, tuple):
            assert all(sides is not entry[1]
                       for sides in view_sides.values())
    # Deep-equal before and after the view's 20 in-place appends.
    after = list(ctx.base_sides._entries.values())
    assert len(after) == len(cached)
    for was, now in zip(cached, after):
        if isinstance(was, Relation):
            assert was.rows == now.rows
        else:
            assert was[:2] == now[:2]


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
    for entry in ctx.base_sides._entries.values():
        assert isinstance(entry, Relation) or len(entry) == 3
    assert run(ctx, SSSP)[0] == expected
    with pytest.raises(QueryDeadlineExceededError):
        ctx.sql(SSSP, config=ExecutionConfig(deadline_seconds=1e-9))
    rows, outcome = run(ctx, SSSP)
    assert rows == expected and outcome == (1, 0, 0)


def test_memory_budget_abort_leaves_the_cache_usable():
    ctx = sssp_ctx(memory_config=MemoryConfig(worker_budget_bytes=8))
    with pytest.raises(MemoryBudgetExceededError):
        ctx.sql(SSSP)
    # The side was complete before the charge that overflowed.
    assert len(_side_keys(ctx)) == 1
    ctx.cluster.memory.config = MemoryConfig()
    ctx.cluster.memory.reset_budget()
    rows, outcome = run(ctx, SSSP)
    assert rows == run(sssp_ctx(), SSSP)[0] and outcome == (1, 0, 0)


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
    assert ("base sides: 1 hit, 0 built, 0 bypassed"
            in ctx.last_run.explain_analyze())
    # Checkpointed runs plan stacked; the plain query shares the entry.
    rows, outcome = run(ctx, SSSP)
    assert rows == expected and outcome == (1, 0, 0)


def test_close_drops_the_cache():
    ctx = sssp_ctx()
    ctx.sql(SSSP)
    assert len(ctx.base_sides) > 0
    ctx.close()
    assert len(ctx.base_sides) == 0
    # Closing is not terminal for a simulated context.
    assert run(ctx, SSSP)[1] == (0, 1, 0)


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
    for config in (None, ExecutionConfig(kernels=False),
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
    assert decodes == [len(heavy)]
    # The driver predicted a blob-cache hit: no bytes, and no decode.
    _, _, again, same_digest, _ = _install_message(ctx, "s2")
    assert same_digest == digest
    state.control((2, "install", again, digest, None))
    assert decodes == [len(heavy)]
    first, second = state.sessions["s1"], state.sessions["s2"]
    assert first.step.base_partitions is second.step.base_partitions
    assert first.step is not second.step
    # Another table version replaces the decoded one; going back decodes
    # the cached bytes, as an install always did.
    ctx.catalog.append_rows("edge", [(0, 99, 1.0)])
    _, _, grown, other_digest, other_heavy = _install_message(ctx, "s3")
    assert other_digest != digest
    state.control((3, "install", grown, other_digest, other_heavy))
    assert decodes == [len(heavy), len(other_heavy)]
    assert list(state.decoded) == [other_digest]
    state.control((4, "install", again, digest, None))
    assert decodes == [len(heavy), len(other_heavy), len(heavy)]
    assert sorted(state.blob_cache) == sorted([digest, other_digest])
