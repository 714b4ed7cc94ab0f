"""Manual smoke: process vs simulated, rows must match.

    python scripts/smoke_process.py            # one TC query on each backend
    python scripts/smoke_process.py --repeat   # 40 sssp runs on one context

``--repeat`` drives the cross-query base-side cache end to end (DESIGN.md
section 19): one process-backend context answers the same sssp query
``RUNS`` times over a ~25k-edge RMAT graph, with one ``append_rows``
midway.  Every run must equal the simulated twin over the same table
epoch; the driver's base sides must be built once and *appended* once
(the insert rebuilds nothing), the heavy install half pickled and
shipped once per table epoch (not once per query); no pool worker's
resident set may grow by more than 10% between the 5th run and the last
— a released session is freed by reference counting, not left to a
cycle collector that rarely runs once large structures are resident.
The driver's resident set (it also holds the twin) is held to the same
10% within each table epoch, from its 5th run to its last: the insert
allocates the grown table's membership set once, by design (DESIGN.md
section 19).  Within each epoch it must also not climb run over run: the
least-squares slope of its VmRSS over those runs stays under
``DRIVER_RSS_SLOPE_LIMIT_KB`` per run, which a leak of one query's replay
log (about 0.1 MB a run here) exceeds long before it reaches 10%.  And
the driver must decode no shuffle block: the workers' reply buckets cross
it as opaque bytes.
"""
import random
import sys
import time

from repro import RaSQLContext
from repro.core.config import ExecutionConfig
from repro.datagen import rmat_graph
from repro.engine.serialization import ShuffleBlock
from repro.queries.library import get_query

RUNS = 40
VERTICES = 2_500
RSS_GROWTH_LIMIT = 0.10
#: kB per run: the steepest driver VmRSS trend tolerated within an epoch.
DRIVER_RSS_SLOPE_LIMIT_KB = 40


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


def rss_kb(pid) -> int | None:
    """VmRSS of a process, from /proc (``None`` elsewhere)."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def process_rss_kb(ctx) -> dict[str, int]:
    """VmRSS of the driver and of every live pool worker."""
    pids = {"driver": "self"}
    for handle in ctx.cluster.backend._live_handles():
        pids[f"worker {handle.worker_id}"] = handle.proc.pid
    return {name: kb for name, pid in pids.items()
            if (kb := rss_kb(pid)) is not None}


def slope(points: dict[int, int]) -> float:
    """Least-squares slope of ``{run: kB}``, in kB per run."""
    mean_x = sum(points) / len(points)
    mean_y = sum(points.values()) / len(points)
    spread = sum((x - mean_x) ** 2 for x in points)
    return sum((x - mean_x) * (y - mean_y)
               for x, y in points.items()) / spread


def count_driver_decodes() -> list:
    """Record every ShuffleBlock this process (the driver) decodes."""
    decoded = []
    original = ShuffleBlock.decode

    def decode(block):
        decoded.append(block.records)
        return original(block)

    ShuffleBlock.decode = decode
    return decoded


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
    decoded = count_driver_decodes()
    try:
        expected = sorted(twin.sql(sql).rows)
        rss = {}
        driver_rss = {}
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
            if number in (5, RUNS // 2, RUNS // 2 + 5, RUNS):
                rss[number] = process_rss_kb(ctx)
            driver_rss[number] = rss_kb("self")
        # Totals over every run: the registry's, not the last run's record.
        counters = ctx.metrics.snapshot()
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
    print("VmRSS kB after runs", ", ".join(f"{n}: {kb}"
                                            for n, kb in rss.items()))
    print("shuffle blocks decoded by the driver:", len(decoded))
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
    if decoded:
        failures.append(f"the driver decoded {len(decoded)} shuffle blocks "
                        f"({sum(decoded)} rows)")
    epochs = {"driver": [(5, RUNS // 2), (RUNS // 2 + 5, RUNS)]}
    for first, last in epochs["driver"]:
        trend = {n: driver_rss[n] for n in range(first, last + 1)
                 if driver_rss[n] is not None}
        if len(trend) < 2:
            continue
        per_run = slope(trend)
        print(f"driver VmRSS trend over runs {first}-{last}: "
              f"{per_run:+.1f} kB per run")
        if per_run > DRIVER_RSS_SLOPE_LIMIT_KB:
            failures.append(f"driver VmRSS climbed {per_run:.1f} kB per run "
                            f"over runs {first}-{last} (limit "
                            f"{DRIVER_RSS_SLOPE_LIMIT_KB} kB)")
    for name in rss.get(RUNS, {}):
        for first, last in epochs.get(name, [(5, RUNS)]):
            before, after = rss[first].get(name), rss[last].get(name)
            if before and after and after > before * (1 + RSS_GROWTH_LIMIT):
                failures.append(f"{name} VmRSS grew from {before} kB after "
                                f"run {first} to {after} kB after run {last}")
    for failure in failures:
        print("FAILED:", failure)
    print("MATCH" if not failures else "MISMATCH")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(repeated() if "--repeat" in sys.argv[1:] else single())
