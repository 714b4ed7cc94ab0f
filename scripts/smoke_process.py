"""Manual smoke: process vs simulated, rows must match.

    python scripts/smoke_process.py            # one TC query on each backend
    python scripts/smoke_process.py --repeat   # 40 sssp runs on one context

``--repeat`` drives the cross-query base-side cache end to end (DESIGN.md
section 19): one process-backend context answers the same sssp query
``RUNS`` times over a ~25k-edge RMAT graph, with one ``append_rows``
midway.  Every run must equal the simulated twin over the same table
epoch; the driver's base sides must be built once and *appended* once
(the insert rebuilds nothing), the heavy install half pickled and
shipped once per table epoch (not once per query); and no pool worker's
resident set may grow by more than 10% between the 5th run and the last
— a released session is freed by reference counting, not left to a cycle
collector that rarely runs once large structures are resident.
"""
import random
import sys
import time

from repro import RaSQLContext
from repro.core.config import ExecutionConfig
from repro.datagen import rmat_graph
from repro.queries.library import get_query

RUNS = 40
VERTICES = 2_500
RSS_GROWTH_LIMIT = 0.10


def random_graph(n, m, seed):
    rng = random.Random(seed)
    edges = set()
    while len(edges) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((a, b))
    return sorted(edges)


def run(backend):
    cfg = ExecutionConfig(backend=backend)
    ctx = RaSQLContext(num_workers=4, config=cfg)
    ctx.register_table("edge", ("Src", "Dst"), random_graph(24, 60, seed=5))
    t0 = time.perf_counter()
    result = ctx.sql(get_query("tc").sql)
    wall = time.perf_counter() - t0
    rows = sorted(result.rows)
    info = ctx.last_run
    ctx.close()
    return rows, info, wall


def single() -> int:
    sim_rows, sim_info, sim_wall = run("simulated")
    proc_rows, proc_info, proc_wall = run("process")
    print(f"simulated: {len(sim_rows)} rows, iters={sim_info.iterations}, "
          f"wall={sim_wall:.2f}s")
    print(f"process:   {len(proc_rows)} rows, iters={proc_info.iterations}, "
          f"wall={proc_wall:.2f}s")
    print("supervision:", {k: v for k, v in
                           proc_info.supervision_summary().items() if v})
    if sim_rows != proc_rows:
        print("MISMATCH")
        only_sim = set(sim_rows) - set(proc_rows)
        only_proc = set(proc_rows) - set(sim_rows)
        print("only sim:", sorted(only_sim)[:10])
        print("only proc:", sorted(only_proc)[:10])
        return 1
    if sim_info.iterations != proc_info.iterations:
        print("ITERATION MISMATCH")
        return 1
    print("MATCH")
    return 0


def worker_rss_kb(ctx) -> dict[int, int]:
    """VmRSS of every live pool worker, from /proc (empty elsewhere)."""
    out = {}
    for handle in ctx.cluster.backend._live_handles():
        try:
            with open(f"/proc/{handle.proc.pid}/status") as status:
                for line in status:
                    if line.startswith("VmRSS:"):
                        out[handle.worker_id] = int(line.split()[1])
        except OSError:
            pass
    return out


def repeated() -> int:
    sql = get_query("sssp").formatted(source=0)
    edges = rmat_graph(VERTICES, seed=11, weighted=True)
    extra = [(0, VERTICES + i, 1.0) for i in range(8)]
    contexts = {}
    for backend in ("simulated", "process"):
        ctx = contexts[backend] = RaSQLContext(
            num_workers=2, config=ExecutionConfig(backend=backend))
        ctx.register_table("edge", ("Src", "Dst", "Cost"), edges)
    twin, ctx = contexts["simulated"], contexts["process"]
    failures = []
    try:
        expected = sorted(twin.sql(sql).rows)
        rss_at_5 = rss = {}
        walls = []
        for number in range(1, RUNS + 1):
            if number == RUNS // 2 + 1:
                for context in contexts.values():
                    context.catalog.append_rows("edge", extra)
                expected = sorted(twin.sql(sql).rows)
            t0 = time.perf_counter()
            rows = sorted(ctx.sql(sql).rows)
            walls.append(time.perf_counter() - t0)
            if rows != expected:
                failures.append(f"run {number} differs from the simulated "
                                f"twin ({len(rows)} vs {len(expected)} rows)")
            rss = worker_rss_kb(ctx)
            if number == 5:
                rss_at_5 = rss
        counters = ctx.last_run.metrics
    finally:
        for context in contexts.values():
            context.close()

    def counter(name):
        return int(counters.get(name, 0))

    print(f"{RUNS} sssp runs over {len(edges)}+{len(extra)} edges: first "
          f"{walls[0]:.3f}s, median {sorted(walls)[RUNS // 2]:.3f}s")
    print("base sides:", {name: counter("base_side_cache_" + name)
                          for name in ("hits", "appended", "misses",
                                       "bypassed")})
    print("install: reused", counter("process_install_blob_reused"),
          "shipped bytes", counter("process_install_bytes"),
          "saved bytes", counter("process_payload_bytes_saved"))
    print("worker VmRSS kB after run 5:", rss_at_5, "after the last:", rss)
    if counter("process_tasks_shipped") == 0:
        failures.append("no task was shipped to the pool")
    if (counter("base_side_cache_hits"), counter("base_side_cache_appended"),
            counter("base_side_cache_misses")) != (RUNS - 2, 1, 1):
        failures.append("base sides were not built exactly once and "
                        "appended exactly once by the insert")
    if counter("process_install_blob_reused") != RUNS - 2:
        failures.append("the heavy install half was not pickled exactly "
                        "once per table epoch")
    if counter("process_payload_bytes_saved") == 0:
        failures.append("the heavy install half was re-shipped to a worker "
                        "that already held it")
    for worker, after in rss.items():
        limit = rss_at_5.get(worker, after) * (1 + RSS_GROWTH_LIMIT)
        if after > limit:
            failures.append(f"worker {worker} VmRSS grew from "
                            f"{rss_at_5[worker]} to {after} kB")
    for failure in failures:
        print("FAILED:", failure)
    print("MATCH" if not failures else "MISMATCH")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(repeated() if "--repeat" in sys.argv[1:] else single())
