"""The benchmark's vocabulary: workload names, metric names, units, bounds.

``BENCHMARK.json`` at the repository root is the committed copy of this
table; ``test_smoke.py`` asserts that the two agree and that every run
prints exactly these names.
"""

from __future__ import annotations

SCHEMA = "rasql-e2e/1"

#: name -> why the workload exists (one line; the long form is in README.md).
WORKLOADS = {
    "cc_sim_1m": "1M-edge RMAT connected components on the simulated "
                 "backend: shuffle-heavy stacked DSN with a min aggregate "
                 "and a 1-row result; route/probe/merge kernels dominate",
    "sssp_proc_300k": "300k-edge RMAT shortest paths on 2 real worker "
                      "processes: 18 iterations each paying a driver-worker "
                      "round trip; encode/pipe/decode/driver merge dominate",
    "tc_sim_1k": "10k-edge RMAT transitive closure (~860k result rows): the "
                 "decomposed broadcast plan with SetRDD union and a large "
                 "final select; almost no shuffle",
    "serve_mix": "closed-loop QueryService mix (65% view reads, 30% SQL over "
                 "cache-fitting and cache-exceeding statement sets, 5% "
                 "inserts): front end, caches, governor, view maintenance",
}

#: (name, unit, better, bound).  Every workload reports every metric; the
#: per-workload reading of each is spelled out in README.md.
END_TO_END = (
    ("query_wall_s", "s", "lower", 0.25),
    ("query_tail_s", "s", "lower", 0.25),
    ("query_cpu_s", "s", "lower", 0.25),
    ("requests_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
)

#: (name, unit, better).  Names are ``<module>.<metric>``; a layer a
#: workload does not exercise reports 0.
PER_LAYER = (
    # front end (sum over the traced unit)
    ("core.parser.parse_ms", "ms", "lower"),
    ("core.analyzer.analyze_ms", "ms", "lower"),
    ("core.optimizer.optimize_ms", "ms", "lower"),
    ("core.planner.plan_ms", "ms", "lower"),
    # fixpoint operator
    ("core.fixpoint.execute_s", "s", "lower"),
    ("core.fixpoint.self_s", "s", "lower"),
    ("core.fixpoint.iterations", "count", "lower"),
    ("core.fixpoint.delta_rows", "count", "lower"),
    # cluster: stages, shuffle, broadcast
    ("engine.cluster.stage_base_s", "s", "lower"),
    ("engine.cluster.stage_shufflemap_s", "s", "lower"),
    ("engine.cluster.stage_decomposed_s", "s", "lower"),
    ("engine.cluster.exchange_s", "s", "lower"),
    ("engine.cluster.broadcast_s", "s", "lower"),
    ("engine.cluster.stages", "count", "lower"),
    ("engine.cluster.tasks", "count", "lower"),
    ("engine.cluster.shuffle_records", "count", "lower"),
    ("engine.cluster.shuffle_bytes", "bytes", "lower"),
    # process backend (zero on simulated workloads)
    ("engine.backend.run_batch_s", "s", "lower"),
    ("engine.backend.task_messages", "count", "lower"),
    ("engine.backend.tasks_shipped", "count", "higher"),
    ("engine.backend.tasks_driver_local", "count", "lower"),
    ("engine.backend.payload_bytes", "bytes", "lower"),
    ("engine.backend.install_bytes", "bytes", "lower"),
    ("engine.backend.driver_cpu_s", "s", "lower"),
    ("engine.backend.worker_cpu_s", "s", "lower"),
    ("engine.backend.cpu_per_wall", "ratio", "higher"),
    ("engine.backend.driver_wait_frac", "ratio", "lower"),
    ("engine.backend.sim_wall_s", "s", "lower"),
    ("engine.backend.speedup_vs_sim", "ratio", "higher"),
    # final stratum
    ("core.executor.final_select_s", "s", "lower"),
    ("core.executor.result_rows", "count", "lower"),
    # hot-path primitives, rows vs columnar
    ("engine.kernels.route_mrows_s", "Mrows/s", "higher"),
    ("engine.columnar.route_mrows_s", "Mrows/s", "higher"),
    ("engine.columnar.from_rows_mrows_s", "Mrows/s", "higher"),
    ("engine.joins.build_mrows_s", "Mrows/s", "higher"),
    ("engine.joins.build_columns_mrows_s", "Mrows/s", "higher"),
    ("engine.kernels.probe_mrows_s", "Mrows/s", "higher"),
    ("engine.kernels.batch_probe_mrows_s", "Mrows/s", "higher"),
    ("engine.setrdd.merge_rows_mrows_s", "Mrows/s", "higher"),
    ("engine.setrdd.merge_batch_mrows_s", "Mrows/s", "higher"),
    ("engine.setrdd.union_mrows_s", "Mrows/s", "higher"),
    ("engine.columnar.encode_mrows_s", "Mrows/s", "higher"),
    ("engine.columnar.decode_mrows_s", "Mrows/s", "higher"),
    ("engine.columnar.wire_bytes_per_row", "bytes/row", "lower"),
    ("engine.serialization.dump_mrows_s", "Mrows/s", "higher"),
    ("engine.serialization.load_mrows_s", "Mrows/s", "higher"),
    ("engine.serialization.pickle_bytes_per_row", "bytes/row", "lower"),
    # serving (zero on batch workloads)
    ("serving.service.sql_p50_ms", "ms", "lower"),
    ("serving.service.sql_p99_ms", "ms", "lower"),
    ("serving.service.insert_p50_ms", "ms", "lower"),
    ("serving.service.view_read_p50_us", "us", "lower"),
    ("serving.service.analyze_ms_per_miss", "ms", "lower"),
    ("serving.service.execute_ms_per_miss", "ms", "lower"),
    ("serving.service.self_ms", "ms", "lower"),
    ("serving.cache.plan_hit_rate", "ratio", "higher"),
    ("serving.cache.result_hit_rate", "ratio", "higher"),
    ("serving.cache.result_evictions", "count", "lower"),
    ("serving.views.snapshot_hit_rate", "ratio", "higher"),
    ("core.governor.admit_release_us", "us", "lower"),
    ("core.streaming.maintain_ms_per_insert", "ms", "lower"),
    # bookkeeping
    ("bench.layers_sum_frac", "ratio", "higher"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
    ("bench.box_slowdown", "ratio", "lower"),
)

END_TO_END_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}

#: Counters that must repeat exactly between two runs of one commit on one
#: seed; ``--compare`` lists any that moved.
EXACT_REPEAT = (
    "core.fixpoint.iterations", "core.fixpoint.delta_rows",
    "engine.cluster.stages", "engine.cluster.tasks",
    "engine.cluster.shuffle_records", "engine.cluster.shuffle_bytes",
    "core.executor.result_rows", "serving.cache.plan_hit_rate",
    "serving.cache.result_hit_rate", "serving.cache.result_evictions",
    "serving.views.snapshot_hit_rate",
)

#: ``bench.layers_sum_frac`` outside this range fails a batch workload's
#: traced run: the layers no longer account for the whole.
LAYERS_SUM_RANGE = (0.95, 1.05)
