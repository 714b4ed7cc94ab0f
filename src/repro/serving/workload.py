"""Seeded mixed read/insert workloads against a :class:`QueryService`.

The generator behind the CLI's ``python -m repro workload``: a
population of named client sessions issues a seeded mix of

- **view reads** of a served incremental SSSP view (the hot path a
  serving deployment exists for — most answered from the memoized
  snapshot),
- **hot SQL** drawn from a small set of repeated statements (exercises
  the result cache; re-executes only after an insert bumps the
  catalog's data epoch),
- **pooled SQL** drawn from a larger statement pool shared across
  sessions (exercises the plan cache at a lower result-cache hit rate),
- **cold SQL** (absent from the default mix) drawn from more distinct
  statements than the plan and result caches hold, so both evict,
- **inserts** of fresh edges (invalidate results; the served view
  repairs itself incrementally at its next read) — or, with
  ``generate_ops(reinsert=p)``, of an edge the stream already inserted.

Submission happens in bursts sized to the governor's capacity
(slots + queue), each burst drained before the next, so the admission
machinery is exercised — tickets queue and promote — without the
generator itself being rejected wholesale.  Everything is derived from
one seed: the op sequence, the scheduler's interleaving, and the
simulated clock are all deterministic, so p50/p99 latencies are
reproducible numbers, not noise.
"""

from __future__ import annotations

import math
import random

from repro.core.context import RaSQLContext
from repro.datagen import rmat_graph
from repro.queries.library import get_query
from repro.serving.service import QueryService

#: Request mix (fractions of the op stream, in this priority order).
DEFAULT_MIX = {
    "view_read": 0.70,
    "hot_sql": 0.15,
    "pooled_sql": 0.10,
    "insert": 0.05,
}

VIEW_NAME = "dist"


def build_service(num_workers: int = 4, seed: int = 7,
                  quick: bool = False, scheduler: str = "seeded",
                  max_concurrent: int = 4, max_queue: int = 8) -> QueryService:
    """A context with an RMAT edge table, a served SSSP view, governance."""
    from repro.core.governor import QueryGovernor

    edges = rmat_graph(180 if quick else 360, seed=seed, weighted=True)
    ctx = RaSQLContext(num_workers=num_workers)
    ctx.governor = QueryGovernor(max_concurrent=max_concurrent,
                                 max_queue=max_queue,
                                 metrics=ctx.metrics)
    ctx.register_table("edge", ["Src", "Dst", "Cost"], edges)
    service = QueryService(ctx, scheduler=scheduler, seed=seed)
    service.create_view(VIEW_NAME, get_query("sssp").formatted(source=0))
    return service


def _statement_pools() -> tuple[list[str], list[str], list[str]]:
    hot = [
        "SELECT count(*) FROM edge",
        get_query("reach").formatted(source=0),
        get_query("sssp").formatted(source=0),
    ]
    pooled = [get_query("reach").formatted(source=s) for s in range(1, 9)]
    cold = [get_query("reach").formatted(source=s) for s in range(512)]
    return hot, pooled, cold


def generate_ops(clients: int, requests: int, seed: int,
                 mix: dict | None = None,
                 reinsert: float = 0.0) -> list[tuple]:
    """The op stream: ``(client_name, kind, payload)`` tuples.

    With probability ``reinsert`` an insert re-submits a row an earlier
    insert of the stream already added (a duplicate *fact*: served views
    and ad-hoc SQL must keep agreeing) instead of a fresh edge.  At the
    default 0 no draw is made, so the stream of a seed is what it always
    was."""
    mix = mix or DEFAULT_MIX
    rng = random.Random(seed)
    hot, pooled, cold = _statement_pools()
    kinds = list(mix)
    weights = [mix[k] for k in kinds]
    ops: list[tuple] = []
    next_node = 10_000  # fresh edges come from fresh node ids
    inserted: list[tuple] = []
    for i in range(requests):
        client = f"c{i % clients}"  # every client gets traffic
        kind = rng.choices(kinds, weights=weights)[0]
        if kind == "view_read":
            ops.append((client, "view_read", VIEW_NAME))
        elif kind == "hot_sql":
            ops.append((client, "sql", rng.choice(hot)))
        elif kind == "pooled_sql":
            ops.append((client, "sql", rng.choice(pooled)))
        elif kind == "cold_sql":
            ops.append((client, "sql", rng.choice(cold)))
        elif reinsert and inserted and rng.random() < reinsert:
            ops.append((client, "insert", ("edge", [rng.choice(inserted)])))
        else:
            row = (rng.randrange(0, 64), next_node,
                   float(rng.randint(1, 10)))
            next_node += 1
            inserted.append(row)
            ops.append((client, "insert", ("edge", [row])))
    return ops


def submit_op(service: QueryService, op: tuple, config=None):
    """Submit one op tuple; ``config`` overrides the SQL ops' config."""
    client, kind, payload = op
    session = service.session(client)
    if kind == "view_read":
        return session.read_view(payload)
    if kind == "sql":
        return session.sql(payload, config=config)
    table, rows = payload
    return session.insert(table, rows)


def run_ops(service: QueryService, ops: list[tuple],
            burst: int | None = None) -> list:
    """Submit in governor-capacity bursts, draining between them."""
    governor = service.ctx.governor
    burst = burst or (governor.max_concurrent + governor.max_queue)
    futures = []
    for start in range(0, len(ops), burst):
        futures.extend(submit_op(service, op)
                       for op in ops[start:start + burst])
        service.drain()
    return futures


def percentile(values: list[float], pct: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)
    return ordered[rank]


def _latency_stats(futures) -> dict:
    latencies = [f.latency_s for f in futures if f.ok]
    return {
        "count": len(latencies),
        "p50_s": round(percentile(latencies, 50), 6),
        "p99_s": round(percentile(latencies, 99), 6),
        "mean_s": round(sum(latencies) / len(latencies), 6)
                  if latencies else 0.0,
    }


def summarize(service: QueryService, futures: list) -> dict:
    """The workload's scorecard: latency percentiles + cache hit rates."""
    by_kind = {}
    for kind in ("sql", "view_read", "insert"):
        subset = [f for f in futures if f.kind == kind]
        if subset:
            by_kind[kind] = _latency_stats(subset)
    snapshot_reads = service.metrics.get("serving_view_snapshot_hits")
    view_reads = service.metrics.get("serving_view_reads")
    return {
        "clients": len(service._sessions),
        "requests": len(futures),
        "completed": sum(1 for f in futures if f.ok),
        "failed": sum(1 for f in futures if f.done and not f.ok),
        "rejected": int(service.metrics.get("serving_rejected")),
        "queued": sum(1 for f in futures if f.queued),
        "latency": {"overall": _latency_stats(futures), **by_kind},
        "cache": {
            "plan": service.plan_cache.report(),
            "result": service.result_cache.report(),
            "view_snapshot_hit_rate":
                round(snapshot_reads / view_reads, 4) if view_reads else 0.0,
        },
        "sim_time_s": round(service.metrics.sim_time, 4),
        "governor": service.ctx.governor.report(),
    }


def run_workload(clients: int, requests: int, seed: int = 7,
                 quick: bool = False, num_workers: int = 4,
                 scheduler: str = "seeded") -> dict:
    """Build the demo service, run the seeded mix, return the summary."""
    service = build_service(num_workers=num_workers, seed=seed, quick=quick,
                            scheduler=scheduler)
    ops = generate_ops(clients, requests, seed)
    futures = run_ops(service, ops)
    summary = summarize(service, futures)
    summary["seed"] = seed
    summary["scheduler"] = scheduler
    return summary
