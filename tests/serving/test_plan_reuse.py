"""A plan-cache hit reuses its planned clique (DESIGN.md §19).

``RaSQLContext._run_clique`` keeps ``plan_clique(unit, planning config)``
on the clique of the analyzed script it ran, so the service's plan cache
holds — and evicts — the physical plan with the analyzed one.  Pins: the
same cached plan run before and after an insert plans once and answers,
row for row and counter for counter, as a fresh context does; a different
planning config (checkpointing forces the stacked plan) plans afresh; and
a run leaves the planned clique as it found it.
"""

import random

import pytest

from repro import ExecutionConfig, RaSQLContext
from repro.core import context as context_module
from repro.queries import get_query
from repro.serving import QueryService

pytestmark = pytest.mark.serving

REACH = get_query("reach").formatted(source=0)
SSSP = get_query("sssp").formatted(source=0)
TC = get_query("tc").sql
COUNTERS = ("iterations", "stages", "tasks", "shuffle_records",
            "shuffle_bytes", "broadcast_bytes")


def edges(seed: int, count: int = 150):
    rng = random.Random(seed)
    return sorted({(rng.randrange(40), rng.randrange(40),
                    float(rng.randint(1, 9))) for _ in range(count)})


def make_ctx(rows) -> RaSQLContext:
    ctx = RaSQLContext(num_workers=2)
    ctx.register_table("edge", ["Src", "Dst", "Cost"], rows)
    return ctx


@pytest.fixture
def plans(monkeypatch) -> list:
    """The config of every ``plan_clique`` call the context makes."""
    calls = []
    original = context_module.plan_clique

    def counting(unit, config, *args, **kwargs):
        calls.append(config)
        return original(unit, config, *args, **kwargs)

    monkeypatch.setattr(context_module, "plan_clique", counting)
    return calls


def outcome(ctx, relation) -> dict:
    run = ctx.last_run
    return {"rows": relation.rows, "delta_history": run.delta_history,
            "counters": {name: run.metrics.get(name, 0)
                         for name in COUNTERS}}


def snapshot(planned) -> tuple:
    """Everything a run could change about a planned clique."""
    terms = list(planned.terms) + [rule.term for rule in planned.base_rules
                                   if rule.term is not None]
    return (planned.explain(), [repr(plan) for plan in planned.base_plans],
            [(term.describe(), term.folds,
              getattr(term.codegen_fn, "_generated_source", None))
             for term in terms])


@pytest.mark.parametrize("query", [REACH, SSSP], ids=["reach", "sssp"])
def test_a_cached_plan_plans_once_and_answers_as_a_fresh_context(query,
                                                                 plans):
    first, more = edges(1), edges(2)
    service = QueryService(make_ctx(list(first)))
    session = service.session("client")
    before = session.sql(query)
    service.drain()
    session.insert("edge", more)
    service.drain()
    after = session.sql(query)
    service.drain()
    assert service.plan_cache.hits == 1 and service.plan_cache.misses == 1
    assert before.source == after.source == "executed"
    assert len(plans) == 1

    (analyzed,) = service.plan_cache._entries.values()
    (unit,) = analyzed.cliques()
    assert unit.planned[0] == service.ctx.config

    reference = make_ctx(list(first))
    expected_before = outcome(reference, reference.sql(query))
    reference = make_ctx(first + more)
    expected_after = outcome(reference, reference.sql(query))
    assert outcome(service.ctx, after.result()) == expected_after
    assert before.result().rows == expected_before["rows"]


def test_each_run_of_the_cached_plan_counts_as_a_fresh_one(plans):
    ctx = make_ctx(edges(3))
    analyzed = ctx.analyze_query(REACH)
    runs = [outcome(ctx, ctx.execute_admitted(REACH, analyzed=analyzed))
            for _ in range(3)]
    assert len(plans) == 1
    assert runs[0] == runs[1] == runs[2]


def test_a_run_leaves_the_planned_clique_as_it_found_it():
    ctx = make_ctx(edges(4))
    analyzed = ctx.analyze_query(SSSP)
    ctx.execute_admitted(SSSP, analyzed=analyzed)
    (unit,) = analyzed.cliques()
    planned = unit.planned[1]
    taken = snapshot(planned)
    ctx.catalog.append_rows("edge", edges(5))
    ctx.execute_admitted(SSSP, analyzed=analyzed)
    assert unit.planned[1] is planned
    assert snapshot(planned) == taken


def test_another_planning_config_plans_afresh(plans, tmp_path):
    ctx = make_ctx(edges(6))
    analyzed = ctx.analyze_query(TC)
    default = sorted(ctx.execute_admitted(TC, analyzed=analyzed).rows)
    assert [config.decomposed_plans for config in plans] == [True]
    (unit,) = analyzed.cliques()
    assert unit.planned[1].decomposable

    durable = ExecutionConfig(checkpoint_interval=1,
                              checkpoint_dir=str(tmp_path))
    assert sorted(ctx.execute_admitted(TC, durable,
                                       analyzed=analyzed).rows) == default
    assert [config.decomposed_plans for config in plans] == [True, False]
    assert not unit.planned[1].decomposable
    (fixpoint,) = [child for child in ctx.last_run.trace["children"]
                   if child["kind"] == "fixpoint"]
    assert fixpoint["attrs"]["decomposed_ineligible"] == "checkpointing"

    ctx.execute_admitted(TC, analyzed=analyzed)
    assert len(plans) == 3 and unit.planned[1].decomposable
