"""Each row is sized once, where it is exchanged (DESIGN.md §9).

The wire-size model (``serialization.rows_size``) is the one sizing
function behind the shuffle counters, the memory governor and admission.
A served query pays for it per exchanged bucket and nowhere else:

- a gathered partition carries its buckets' summed size, so placing it
  (``Cluster.restore_exchange``) and merging it sizes nothing;
- a state partition's size grows by what each merge added, from the
  incoming partition's size, without re-sampling the partition;
- a base input's block and broadcast sizes live in its ``BaseSideCache``
  entry (computed at build, grown at absorb), so a query that hits the
  cache sizes no base row;
- admission samples a table once per table epoch.

And the sizes stay the model's: after an insert the next query's base
charge and admission estimate are those of a fresh context over the grown
table, and the states' memoized sizes are what sampling them gives.
"""

import random
from collections import Counter

import pytest

from repro import ExecutionConfig, RaSQLContext
from repro.engine import serialization
from repro.engine.dataset import Partition
from repro.queries.library import get_query

REACH = get_query("reach").formatted(source=0)
SSSP = get_query("sssp").formatted(source=0)


def edges(seed: int = 7, vertices: int = 60, count: int = 400):
    rng = random.Random(seed)
    return sorted({(rng.randrange(vertices), rng.randrange(vertices),
                    float(rng.randint(1, 9))) for _ in range(count)})


def make_ctx(rows, **kwargs) -> RaSQLContext:
    ctx = RaSQLContext(num_workers=2, **kwargs)
    ctx.register_table("edge", ["Src", "Dst", "Cost"], rows)
    return ctx


@pytest.fixture
def sized(monkeypatch) -> Counter:
    """Every ``rows_size`` call, tallied by the module that made it: each
    module imports the function by name, so each binding is wrapped."""
    import sys

    original = serialization.rows_size
    calls: Counter = Counter()
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") \
                and getattr(module, "rows_size", None) is original:
            def counting(rows, _module=name.rsplit(".", 1)[-1]):
                calls[_module] += 1
                return original(rows)
            monkeypatch.setattr(module, "rows_size", counting)
    return calls


@pytest.fixture
def buckets(monkeypatch) -> Counter:
    """The non-empty buckets every ``Cluster.exchange`` receives."""
    from repro.engine.cluster import Cluster

    seen: Counter = Counter()
    original = Cluster.exchange

    def exchange(self, map_outputs, *args, **kwargs):
        seen["buckets"] += sum(1 for _, out in map_outputs
                               for rows in out.values() if rows)
        return original(self, map_outputs, *args, **kwargs)

    monkeypatch.setattr(Cluster, "exchange", exchange)
    return seen


@pytest.mark.parametrize("query", [REACH, SSSP], ids=["reach", "sssp"])
def test_a_warm_query_sizes_each_exchanged_bucket_once(query, sized,
                                                       buckets):
    ctx = make_ctx(edges())
    expected = ctx.sql(query).rows
    sized.clear()
    buckets.clear()
    assert ctx.sql(query).rows == expected
    assert ctx.last_run.metrics["base_side_cache_hits"] >= 1
    assert buckets["buckets"] > 0
    # no call from restore_exchange / Partition, a state merge, base
    # binding on a cache hit or admission over an unchanged table
    assert sized == {"cluster": buckets["buckets"]}


def _charged(ctx, kind: str) -> dict:
    """What the query left charged to worker memory, by segment."""
    return {key: segment.nbytes
            for key, segment in ctx.cluster.memory._segments.items()
            if key[0] == kind}


@pytest.mark.parametrize("query", [REACH, SSSP], ids=["reach", "sssp"])
def test_a_warm_query_charges_what_a_cold_context_charges(query):
    warm = make_ctx(edges())
    warm.sql(query)
    rows = warm.sql(query).rows
    cold = make_ctx(edges())
    assert cold.sql(query).rows == rows
    for name in ("iterations", "stages", "tasks", "shuffle_records",
                 "shuffle_bytes", "shuffle_remote_bytes"):
        assert warm.last_run.metrics[name] == cold.last_run.metrics[name]
    for kind in ("base", "state", "broadcast"):
        assert _charged(warm, kind) == _charged(cold, kind), kind


def broadcast_bytes(ctx) -> int:
    return ctx.last_run.metrics.get("broadcast_bytes", 0)


@pytest.mark.parametrize("mode", ["copartition", "broadcast"])
def test_after_an_insert_the_base_charge_and_admission_see_the_grown_table(
        mode, sized):
    config = ExecutionConfig(broadcast_bases=mode == "broadcast")
    rows = edges()
    ctx = make_ctx(rows, config=config)
    ctx.sql(SSSP)
    before = _charged(ctx, "base"), broadcast_bytes(ctx)
    estimate = ctx._estimate_query_bytes(SSSP)

    grown = edges(seed=8)
    ctx.catalog.append_rows("edge", grown)
    sized.clear()
    ctx.sql(SSSP)
    assert ctx.last_run.metrics["base_side_cache_appended"] >= 1
    # one admission sample of the grown table, and the absorbed rows
    assert sized["context"] == 1 and sized["fixpoint"] >= 1

    fresh = make_ctx(rows + grown, config=config)
    fresh.sql(SSSP)
    assert ctx._estimate_query_bytes(SSSP) \
        == fresh._estimate_query_bytes(SSSP) > estimate
    after = _charged(ctx, "base"), broadcast_bytes(ctx)
    assert after == (_charged(fresh, "base"), broadcast_bytes(fresh))
    if mode == "copartition":
        assert sum(after[0].values()) > sum(before[0].values())
    else:
        assert after[1] > before[1]


def test_admission_samples_a_table_once_per_epoch(sized):
    ctx = make_ctx(edges())
    first = ctx._estimate_query_bytes(REACH)
    assert ctx._estimate_query_bytes(REACH) == first
    assert sized["context"] == 1
    ctx.catalog.append_rows("edge", [(1000, 1001, 1.0)])
    assert ctx._estimate_query_bytes(REACH) > first
    ctx.register_table("edge", ["Src", "Dst", "Cost"], edges(seed=3))
    ctx._estimate_query_bytes(REACH)
    assert sized["context"] == 3


@pytest.mark.parametrize("query", [REACH, SSSP], ids=["reach", "sssp"])
@pytest.mark.parametrize("stage_combination", [True, False])
def test_state_sizes_grown_by_merges_are_the_sampled_sizes(
        query, stage_combination, monkeypatch):
    """Every charge of a state partition equals sampling it afresh: the
    rows are numbers, for which the model is exact."""
    from repro.core import schedulers

    checked = Counter()
    original = schedulers._merge

    def merge(operator, partition, incoming):
        out = original(operator, partition, incoming)
        for state in operator.states.values():
            rows = state.partitions[partition]
            rows = rows.values() if isinstance(rows, dict) \
                and not state.append_only else rows
            assert state.partition_size_bytes(partition) \
                == serialization.rows_size(rows)
            checked["merges"] += 1
        return out

    monkeypatch.setattr(schedulers, "_merge", merge)
    config = ExecutionConfig(stage_combination=stage_combination)
    make_ctx(edges(vertices=300, count=3000), config=config).sql(query)
    assert checked["merges"] > 0


def test_a_partition_sized_by_its_maker_is_not_sampled(sized):
    assert Partition(0, [(1, 2)], 0, 99).size_bytes() == 99
    assert Partition(0, [(1, 2)], 0).size_bytes() == 24
    assert sized == {"dataset": 1}
