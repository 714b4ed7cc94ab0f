"""Does a request cost more because the service has seen more sessions?

    python scripts/session_scaling.py              # 1 / 200 / 1,000 / 3,000
    python scripts/session_scaling.py 1 500        # any session counts

For each session count N: build the demo service (``serving.workload.
build_service``, quick graph, 2 workers), let N named sessions each make
one view read — so the one flat ``MetricsRegistry`` holds every
session's counters — then time, closed loop and on the wall clock,

- ``REPEATS`` cold SQL requests (distinct ``reach`` statements: each
  plans and runs a fixpoint),
- ``REPEATS`` single-row inserts (each repairs the served view),
- one ``service.report()`` (one ``ScopedCounters.snapshot()`` per
  session),

and print the p50 of each.  The table in DESIGN.md section 7 is this
script's output before and after spans stopped copying and diffing the
registry (ISSUE 23); the acceptance bar is the 3,000-session row within
1.5x of the 1-session row and ``report()`` under 0.1 s.
"""
import gc
import statistics
import sys
import time

from repro.queries.library import get_query
from repro.serving.workload import VIEW_NAME, build_service

REPEATS = 40
DEFAULT_SESSIONS = (1, 200, 1_000, 3_000)


def timed(service, submit) -> float:
    start = time.perf_counter()
    future = submit()
    service.drain()
    elapsed = time.perf_counter() - start
    assert future.ok, future.error
    return elapsed


def measure(sessions: int) -> dict:
    service = build_service(num_workers=2, seed=7, quick=True)
    for i in range(sessions):
        service.session(f"c{i}").read_view(VIEW_NAME)
        service.drain()
    client = service.session("c0")
    gc.collect()
    cold = [timed(service, lambda s=s: client.sql(
                get_query("reach").formatted(source=s)))
            for s in range(1, REPEATS + 1)]
    inserts = [timed(service, lambda i=i: client.insert(
                   "edge", [(i % 64, 50_000 + i, 1.0)]))
               for i in range(REPEATS)]
    start = time.perf_counter()
    report = service.report()
    report_s = time.perf_counter() - start
    assert len(report["sessions"]) == sessions
    return {"sessions": sessions,
            "counters": len(service.metrics.counters),
            "cold_sql_p50_ms": statistics.median(cold) * 1e3,
            "insert_p50_ms": statistics.median(inserts) * 1e3,
            "report_s": report_s}


def main(argv: list[str]) -> int:
    counts = [int(arg) for arg in argv] or DEFAULT_SESSIONS
    print(f"{'sessions':>8}  {'counters':>8}  {'cold SQL p50':>12}  "
          f"{'insert p50':>10}  {'report()':>9}")
    for sessions in counts:
        row = measure(sessions)
        print(f"{row['sessions']:>8}  {row['counters']:>8}  "
              f"{row['cold_sql_p50_ms']:>9.2f} ms  "
              f"{row['insert_p50_ms']:>7.2f} ms  {row['report_s']:>7.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
