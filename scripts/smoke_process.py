"""Manual smoke: one TC query, process vs simulated, rows must match."""
import random
import sys
import time

from repro import RaSQLContext
from repro.core import planner
from repro.core.config import ExecutionConfig
from repro.queries.library import get_query


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


if __name__ == "__main__":
    # 60 edges sit under the kernel size gate, which would keep the query
    # off the remote-eligible kernel paths; the gate is evaluated
    # driver-side, so lifting it here covers the worker pool too.
    planner.KERNEL_MIN_ROWS = 0
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
        sys.exit(1)
    if sim_info.iterations != proc_info.iterations:
        print("ITERATION MISMATCH")
        sys.exit(1)
    print("MATCH")
