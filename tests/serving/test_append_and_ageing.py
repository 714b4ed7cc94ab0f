"""A served stream over growing tables: appended caches answer exactly as
rebuilt ones, and the service does not age.

Two long seeded streams of the benchmark's ``serve_mix`` shape (view
reads, hot / pooled / cold SQL, single-row inserts — DESIGN.md §19):

- every reply of a 4,000-op stream equals, row for row and source for
  source, the reply of a twin service whose context rebuilds every base
  side for every query (what the cross-query cache did on each insert
  before inserts appended);
- over a 5,000-request soak nothing that should be bounded grows between
  the first and the last decile: tracer roots, the registry's event log,
  the entries of every cache, the finished futures (and their results)
  and execution-order ids the service holds, the circuit breaker's
  shapes.
"""

import pytest

from repro.core.physical import BASE_SIDE_CACHE_SLOTS, BaseSideCache
from repro.serving.cache import PlanCache, ResultCache
from repro.serving.service import COMPLETED_WINDOW
from repro.serving.workload import build_service, generate_ops, submit_op

pytestmark = pytest.mark.serving

#: The benchmark's ``serve_mix`` shares (benchmarks/e2e/workloads.py).
SERVE_MIX = {"view_read": 0.65, "hot_sql": 0.12, "pooled_sql": 0.08,
             "cold_sql": 0.10, "insert": 0.05}


class _RebuildsEveryTime(BaseSideCache):
    def get(self, key, epoch, build, absorb=None):
        return build(), "built"


def serve(service, op):
    """One closed-loop request: ``(source, value)`` of its reply."""
    future = submit_op(service, op)
    service.drain()
    assert future.ok, future.error
    value = future.result()
    return future.source, getattr(value, "rows", value)


def test_every_reply_of_a_4000_op_stream_equals_a_rebuilding_twin():
    service = build_service(num_workers=2, seed=7, quick=True)
    twin = build_service(num_workers=2, seed=7, quick=True)
    twin.ctx.base_sides = _RebuildsEveryTime(twin.ctx.catalog)
    inserts = 0
    for number, op in enumerate(generate_ops(1, 4_000, seed=7,
                                             mix=SERVE_MIX)):
        got, expected = serve(service, op), serve(twin, op)
        assert got == expected, f"request #{number} {op[1:]} differs"
        inserts += op[1] == "insert"
    metrics = service.ctx.metrics
    # After the first build of each side every insert was absorbed: the
    # builder ran for new plan shapes only, never because a table grew.
    assert inserts > 100
    assert metrics.get("base_side_cache_appended") > 100
    assert metrics.get("base_side_cache_misses") <= 2
    assert (twin.ctx.metrics.get("base_side_cache_misses")
            > metrics.get("base_side_cache_appended"))
    assert service.result_cache.hits == twin.result_cache.hits > 0


def test_a_5000_request_soak_does_not_age():
    service = build_service(num_workers=2, seed=11, quick=True)
    ctx = service.ctx
    # Reduced scale: caches the first decile's ~50 cold statements fill.
    service.plan_cache = PlanCache(16, metrics=ctx.metrics)
    service.result_cache = ResultCache(32, metrics=ctx.metrics)
    ops = generate_ops(1, 5_000, seed=11, mix=SERVE_MIX)
    decile = len(ops) // 10

    def sizes():
        return {"tracer roots": len(ctx.cluster.tracer.roots),
                "event log": len(ctx.metrics._events),
                "base sides": len(ctx.base_sides),
                "plan cache": len(service.plan_cache),
                "result cache": len(service.result_cache),
                "attribution windows": len(ctx.metrics.windows),
                "completed futures": len(service.completed),
                "execution order": len(service.execution_order),
                "breaker shapes": len(service.breaker._shapes)}

    for op in ops[:decile]:
        serve(service, op)
    early = sizes()
    for op in ops[decile:-decile]:
        serve(service, op)
    before_last = sizes()
    for op in ops[-decile:]:
        serve(service, op)
    assert sizes() == before_last == early
    assert early["tracer roots"] == early["attribution windows"] == 0
    assert early["event log"] == ctx.metrics.EVENT_LOG_DEPTH
    assert early["base sides"] <= BASE_SIDE_CACHE_SLOTS
    assert early["plan cache"] == service.plan_cache.capacity
    assert early["result cache"] == service.result_cache.capacity
    assert (early["completed futures"] == early["execution order"]
            == COMPLETED_WINDOW)
    assert early["breaker shapes"] == 0
    # The windows hold the recent past; the totals count everything.
    assert service.report()["completed"] == len(ops)
    assert service.execution_order == [f.request_id
                                       for f in service.completed]
    assert service.completed[-1].request_id == len(ops)
    assert ctx.metrics.event_count() > 10 * ctx.metrics.EVENT_LOG_DEPTH
    # The log kept the recent past: the tail still reads through.
    mark = ctx.metrics.event_count() - 5
    assert len(ctx.metrics.events_since(mark)) == 5
    assert ctx.metrics.events_since(0) == ctx.metrics.events()
