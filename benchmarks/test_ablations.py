"""Ablations for the design choices DESIGN.md calls out.

Not figures from the paper, but direct measurements of the individual
mechanisms Sections 6-7 motivate:

- partition-aware scheduling vs Spark's default hybrid policy (remote
  fetches and their cost) — Section 6.1;
- SetRDD vs immutable copy-on-union state — Section 6.1;
- map-side partial aggregation, a set view's DISTINCT included (shuffle
  volume) — Section 6.2.
"""

from repro import ExecutionConfig
from repro.baselines.systems import RaSQLSystem, Workload

from harness import once, report, rmat_tables

SIZE = 8_000


def test_ablation_partition_aware_scheduling(benchmark):
    tables = rmat_tables(SIZE)

    def experiment():
        results = {}
        for scheduler in ("partition_aware", "default"):
            system = RaSQLSystem(num_workers=4, scheduler=scheduler,
                                 config=ExecutionConfig(decomposed_plans=False))
            result = system.run(Workload("sssp", tables, source=0))
            results[scheduler] = result
        return results

    results = once(benchmark, experiment)
    rows = [[name, r.sim_seconds, r.metrics.get("remote_fetches", 0),
             r.metrics.get("remote_fetch_bytes", 0)]
            for name, r in results.items()]
    report("ablation_scheduling",
           "Ablation: partition-aware vs default scheduling (SSSP, RMAT-8K)",
           ["policy", "time_s", "remote_fetches", "remote_bytes"], rows,
           notes="Section 6.1: the default policy loses inter-iteration "
                 "locality; every miss re-fetches cached blocks remotely")

    aware, default = results["partition_aware"], results["default"]
    assert aware.metrics.get("remote_fetches", 0) == 0
    assert default.metrics.get("remote_fetches", 0) > 0
    assert default.sim_seconds > aware.sim_seconds


def test_ablation_setrdd(benchmark):
    # TC is the workload where the all-relation dwarfs the deltas, which
    # is exactly where rebuilding it each iteration (union().distinct()
    # over an immutable RDD) hurts.
    from repro.datagen import grid_graph

    tables = {"edge": (["Src", "Dst"], grid_graph(25))}

    def experiment():
        results = {}
        for mutable in (True, False):
            config = ExecutionConfig(use_setrdd=mutable,
                                     decomposed_plans=False)
            system = RaSQLSystem(num_workers=4, config=config)
            samples = [system.run(Workload("tc", tables)).sim_seconds
                       for _ in range(2)]
            results[mutable] = min(samples)
        return results

    results = once(benchmark, experiment)
    report("ablation_setrdd",
           "Ablation: SetRDD vs immutable copy-on-union state (TC, Grid25)",
           ["state", "time_s"],
           [["SetRDD (mutable)", results[True]],
            ["immutable union().distinct()", results[False]]],
           notes="Section 6.1: without SetRDD each iteration rebuilds and "
                 "repartitions the whole all-relation")

    assert results[False] > 1.1 * results[True]


def test_ablation_partial_aggregation(benchmark):
    tables = rmat_tables(SIZE)

    def experiment():
        results = {}
        for query in ("sssp", "reach"):
            for enabled in (True, False):
                config = ExecutionConfig(partial_aggregation=enabled,
                                         decomposed_plans=False)
                system = RaSQLSystem(num_workers=4, config=config)
                results[query, enabled] = system.run(
                    Workload(query, tables, source=0))
        return results

    results = once(benchmark, experiment)
    rows = [[query.upper(), ("on" if enabled else "off"), r.sim_seconds,
             int(r.metrics.get("shuffle_records", 0))]
            for (query, enabled), r in results.items()]
    report("ablation_partial_agg",
           "Ablation: map-side partial aggregation (SSSP, REACH, RMAT-8K)",
           ["query", "combine", "time_s", "shuffle_records"], rows,
           notes="Section 6.2: partial aggregation shrinks the shuffle; "
                 "for a set view it is the map-side DISTINCT")

    for query in ("sssp", "reach"):
        assert (results[query, True].metrics["shuffle_records"]
                < results[query, False].metrics["shuffle_records"]), query
