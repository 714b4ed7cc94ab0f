"""Command-line front end: run RaSQL queries against files.

    python -m repro --table edge=graph.tsv query.sql
    python -m repro --table edge=graph.tsv -q "SELECT count(*) FROM edge"
    python -m repro --table edge=graph.tsv --explain query.sql
    echo "SELECT ..." | python -m repro --table edge=graph.tsv -
    python -m repro workload --clients 50 --requests 300 --quick

Tables load from CSV (header row) or whitespace edge lists; results print
as an aligned table, with the fixpoint statistics on stderr.  The
``workload`` subcommand (alias ``serve``) drives the multi-tenant query
service (``repro.serving``) with a seeded mix of concurrent sessions and
prints the latency/cache scorecard.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro import ExecutionConfig, RaSQLContext
from repro.io import load_table, write_csv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run a RaSQL (recursive-aggregate SQL) query.")
    parser.add_argument("query", nargs="?",
                        help="path to a .sql file, '-' for stdin, or omit "
                             "when using -q")
    parser.add_argument("-q", "--query-text", help="inline query text")
    parser.add_argument("--table", action="append", default=[],
                        metavar="NAME=PATH",
                        help="register a base table from a CSV or edge-list "
                             "file (repeatable)")
    parser.add_argument("--workers", type=int, default=4,
                        help="simulated worker count (default 4)")
    parser.add_argument("--backend", default="simulated",
                        choices=["simulated", "process"],
                        help="execution backend: 'simulated' runs every "
                             "task in-process on the deterministic oracle; "
                             "'process' ships eligible fixpoint stages to "
                             "a supervised pool of real worker processes "
                             "(heartbeats, hung-task reaping, crash "
                             "recovery) and falls back to simulated for "
                             "everything else")
    parser.add_argument("--liveness-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="process backend: reap a worker that has been "
                             "silent for this many wall-clock seconds "
                             "(default 5)")
    parser.add_argument("--task-deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="process backend: reap a worker whose current "
                             "task has run for this many wall-clock "
                             "seconds (default 30)")
    parser.add_argument("--explain", action="store_true",
                        help="print the plan instead of executing")
    parser.add_argument("--explain-analyze", action="store_true",
                        help="execute, then print the per-iteration trace "
                             "timeline (delta sizes, stage time, bytes)")
    parser.add_argument("--trace", metavar="PATH",
                        help="write the query's span-tree trace as JSON")
    parser.add_argument("--check-prem", action="store_true",
                        help="run the PreM validator (Appendix G) on the "
                             "query instead of executing it")
    parser.add_argument("--chaos", type=int, metavar="SEED",
                        help="run the query twice — clean, then under a "
                             "seeded random fault schedule (task deaths + "
                             "worker loss + a memory-pressure squeeze) — "
                             "and verify the results match bit-exactly")
    parser.add_argument("--faults", action="append", default=[],
                        metavar="SPEC",
                        help="arm a fault injector for the run, e.g. "
                             "'task:fixpoint:task_index=1:point=after' or "
                             "'worker-loss:fixpoint:worker=2:at_task=1' "
                             "(repeatable)")
    parser.add_argument("--no-codegen", action="store_true")
    parser.add_argument("--no-stage-combination", action="store_true")
    parser.add_argument("--profile", metavar="PATH",
                        help="profile the query's execution with cProfile "
                             "and write pstats output here (inspect with "
                             "python -m pstats PATH)")
    parser.add_argument("--checkpoint", metavar="DIR",
                        help="persist the fixpoint working set under DIR "
                             "every --checkpoint-interval iterations; a "
                             "killed run continues bit-exactly with "
                             "--resume QUERY_ID (the id prints after a "
                             "checkpointed run)")
    parser.add_argument("--checkpoint-interval", type=int, default=None,
                        metavar="N",
                        help="iterations between durable checkpoints "
                             "(default 4; only meaningful with "
                             "--checkpoint)")
    parser.add_argument("--resume", metavar="QUERY_ID",
                        help="resume a crashed or timed-out checkpointed "
                             "query from its last durable iteration "
                             "(requires --checkpoint DIR and the same "
                             "--table data; the query text is read from "
                             "the checkpoint manifest)")
    parser.add_argument("--evaluation", default="dsn",
                        choices=["dsn", "naive", "stratified"])
    parser.add_argument("--timeout", type=float, metavar="SECONDS",
                        help="abort the query once it exceeds this many "
                             "*simulated* seconds (checked at stage "
                             "boundaries); exit code 3")
    parser.add_argument("--memory-budget", type=int, metavar="BYTES",
                        help="per-worker memory budget; colder cached "
                             "partitions spill to a simulated disk tier "
                             "under pressure, and a working set that "
                             "cannot fit even after spilling aborts with "
                             "exit code 4")
    parser.add_argument("--output", help="write the result as CSV here")
    parser.add_argument("--limit", type=int, default=50,
                        help="max rows to print (default 50)")
    return parser


def read_query(args) -> str:
    if args.query_text:
        return args.query_text
    if args.query == "-":
        return sys.stdin.read()
    if args.query:
        return pathlib.Path(args.query).read_text()
    raise SystemExit("error: provide a query file, '-', or -q TEXT")


def cluster_options(args) -> dict:
    """The ``Cluster`` keywords the CLI's flags set; the configs validate
    here, so a bad value raises ``ValueError`` before any worker starts."""
    cluster_kwargs = {}
    if args.memory_budget is not None:
        from repro.engine.memory import MemoryConfig

        cluster_kwargs["memory_config"] = MemoryConfig(
            worker_budget_bytes=args.memory_budget)
    supervision = {key: value for key, value in (
        ("liveness_timeout", args.liveness_timeout),
        ("task_deadline_s", args.task_deadline)) if value is not None}
    if supervision:
        from repro.engine.backend import ProcessConfig

        cluster_kwargs["process_config"] = ProcessConfig(**supervision)
    return cluster_kwargs


def make_context(args, config: ExecutionConfig,
                 cluster_kwargs: dict) -> RaSQLContext:
    """A fresh session with the CLI's tables registered (chaos runs need
    two of these, so the clean and faulted clusters share no state)."""
    ctx = RaSQLContext(num_workers=args.workers, config=config,
                       **cluster_kwargs)
    for spec in args.table:
        name, _, path = spec.partition("=")
        if not path:
            raise SystemExit(f"error: --table expects NAME=PATH, got {spec!r}")
        relation = load_table(path, name)
        ctx.catalog.register_relation(
            type(relation)(name, relation.columns, relation.rows))
    return ctx


def run_chaos(args, query: str, config: ExecutionConfig,
              cluster_kwargs: dict) -> int:
    from repro.chaos import make_schedule, run_differential
    from repro.engine.tracing import format_explain_analyze

    schedule = make_schedule(args.chaos, num_workers=args.workers)
    report = run_differential(
        query, lambda: make_context(args, config, cluster_kwargs),
        faults=schedule.injectors)
    print(f"chaos[seed={schedule.seed}] {report.summary()}")
    if args.explain_analyze:
        print()
        print(format_explain_analyze(report.trace))
    if not report.exact:
        print("error: chaos run diverged from the clean run",
              file=sys.stderr)
        return 1
    return 0


def _iter_spans(span: dict, kind: str):
    if span.get("kind") == kind:
        yield span
    for child in span.get("children", ()):
        yield from _iter_spans(child, kind)


def run_workload_command(argv: list[str]) -> int:
    """``python -m repro workload``: the multi-tenant serving demo."""
    parser = argparse.ArgumentParser(
        prog="python -m repro workload",
        description="Drive the query service with a seeded mix of "
                    "concurrent sessions (view reads, repeated SQL, "
                    "inserts) and print the latency/cache scorecard.")
    parser.add_argument("--clients", type=int, default=50,
                        help="named client sessions (default 50)")
    parser.add_argument("--requests", type=int, default=300,
                        help="total requests across all clients "
                             "(default 300)")
    parser.add_argument("--seed", type=int, default=7,
                        help="workload + scheduler seed (default 7)")
    parser.add_argument("--scheduler", choices=["fifo", "seeded"],
                        default="seeded",
                        help="interleaving policy of the cooperative "
                             "driver (default seeded)")
    parser.add_argument("--workers", type=int, default=4,
                        help="simulated worker count (default 4)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller base graph (CI smoke)")
    parser.add_argument("--json", action="store_true",
                        help="print the full summary as JSON")
    args = parser.parse_args(argv)

    from repro.serving import run_workload

    summary = run_workload(clients=args.clients, requests=args.requests,
                           seed=args.seed, quick=args.quick,
                           num_workers=args.workers,
                           scheduler=args.scheduler)
    if args.json:
        import json

        print(json.dumps(summary, indent=2))
        return 0
    overall = summary["latency"]["overall"]
    cache = summary["cache"]
    print(f"workload: {summary['requests']} requests from "
          f"{summary['clients']} sessions "
          f"({summary['completed']} ok, {summary['failed']} failed, "
          f"{summary['rejected']} rejected, {summary['queued']} queued)")
    print(f"latency (simulated): p50={overall['p50_s']:.4f}s "
          f"p99={overall['p99_s']:.4f}s mean={overall['mean_s']:.4f}s")
    for kind in ("sql", "view_read", "insert"):
        if kind in summary["latency"]:
            stats = summary["latency"][kind]
            print(f"  {kind:10s} n={stats['count']:<5d} "
                  f"p50={stats['p50_s']:.4f}s p99={stats['p99_s']:.4f}s")
    print(f"caches: plan hit rate {cache['plan']['hit_rate']:.1%}, "
          f"result hit rate {cache['result']['hit_rate']:.1%}, "
          f"view snapshot hit rate {cache['view_snapshot_hit_rate']:.1%}")
    print(f"simulated cluster time: {summary['sim_time_s']:.4f}s")
    return 0


def _compile_parser(mode: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=f"python -m repro {mode}",
        description=("Lower a RaSQL query to standard WITH RECURSIVE SQL"
                     if mode == "compile" else
                     "Run a RaSQL query on the engine AND on an external "
                     "SQL backend, then diff the results row-for-row."))
    parser.add_argument("query", nargs="?",
                        help="path to a .sql file, '-' for stdin, or omit "
                             "when using -q / --library")
    parser.add_argument("-q", "--query-text", help="inline query text")
    parser.add_argument("--library", metavar="NAME",
                        help="use a library query by name (see "
                             "repro.queries.library); its base tables are "
                             "registered empty unless --table supplies data")
    parser.add_argument("--source", type=int, default=0,
                        help="value for the {source} parameter of "
                             "sssp/reach/count_paths (default 0)")
    parser.add_argument("--table", action="append", default=[],
                        metavar="NAME=PATH",
                        help="register a base table from a CSV or edge-list "
                             "file (repeatable)")
    parser.add_argument("--workers", type=int, default=4,
                        help="simulated worker count (default 4)")
    parser.add_argument("--no-magic-filters", action="store_true",
                        help="disable magic-filter pushdown before lowering "
                             "(the one config knob that changes the "
                             "analyzed plan)")
    if mode == "compile":
        parser.add_argument("--dialect", default="sqlite",
                            choices=["sqlite", "duckdb", "bigquery"],
                            help="target dialect (bigquery is emit-only)")
        parser.add_argument("--depth-bound", type=int, default=None,
                            metavar="N",
                            help="derivation-depth guard for aggregate twin "
                                 "CTEs (default 64; `diff` instead derives "
                                 "it from the engine's iteration count)")
    else:
        parser.add_argument("--backend", default="sqlite",
                            choices=["sqlite", "duckdb"],
                            help="executing oracle backend (default sqlite; "
                                 "duckdb requires the optional package)")
        parser.add_argument("--show-sql", action="store_true",
                            help="print the emitted SQL even when the "
                                 "results match")
    return parser


def run_compile_command(argv: list[str], mode: str) -> int:
    """``python -m repro compile`` / ``python -m repro diff``.

    Exit codes for ``diff``: 0 results match, 1 divergence (or twin
    depth bound failed to converge), 2 the query has no standard
    WITH RECURSIVE form (mutual recursion, non-linear accumulators).
    """
    args = _compile_parser(mode).parse_args(argv)

    from repro.compile import compile_sql, diff_query, get_dialect
    from repro.compile.backends import make_backend
    from repro.errors import InexpressibleQueryError, RaSQLError

    if args.library:
        from repro.queries.library import get_query

        try:
            spec = get_query(args.library)
        except KeyError as exc:
            raise SystemExit(f"error: {exc}")
        query = (spec.formatted(source=args.source)
                 if "{source}" in spec.sql else spec.sql)
    else:
        query = read_query(args)

    config = ExecutionConfig(magic_filters=not args.no_magic_filters)
    ctx = RaSQLContext(num_workers=args.workers, config=config)
    provided = set()
    for table_spec in args.table:
        name, _, path = table_spec.partition("=")
        if not path:
            raise SystemExit(f"error: --table expects NAME=PATH, "
                             f"got {table_spec!r}")
        relation = load_table(path, name)
        ctx.register_table(name, relation.columns, relation.rows)
        provided.add(name.lower())
    if args.library:
        from repro.queries.library import get_query

        for name, columns in get_query(args.library).tables.items():
            if name.lower() not in provided:
                ctx.register_table(name, columns, [])

    try:
        if mode == "compile":
            compile_kwargs = {"dialect": get_dialect(args.dialect),
                              "config": config}
            if args.depth_bound is not None:
                compile_kwargs["depth_bound"] = args.depth_bound
            compiled = compile_sql(ctx, query, **compile_kwargs)
            print(f"-- dialect: {compiled.dialect.name}")
            print(f"-- columns: {', '.join(compiled.columns)}")
            for view, twin, kind in compiled.twins:
                print(f"-- twin: {view} -> {twin} ({kind}, depth bound "
                      f"{compiled.depth_bound})")
            for note in compiled.notes:
                print(f"-- note: {note}")
            print(compiled.sql)
            return 0

        try:
            backend = make_backend(args.backend)
        except RuntimeError as exc:
            raise SystemExit(f"error: {exc}")
        with backend:
            report = diff_query(ctx, query, backend=backend,
                                dialect=get_dialect(args.backend),
                                config=config,
                                label=args.library or "query")
        print(report.summary())
        if args.show_sql and report.equal:
            print(report.sql)
        return 0 if report.equal and report.converged is not False else 1
    except InexpressibleQueryError as exc:
        print(f"inexpressible ({exc.reason}): {exc}", file=sys.stderr)
        return 2
    except RaSQLError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in ("workload", "serve"):
        return run_workload_command(argv[1:])
    if argv and argv[0] in ("compile", "diff"):
        return run_compile_command(argv[1:], argv[0])
    args = build_parser().parse_args(argv)
    # --resume reads the statement from the checkpoint manifest.
    query = "" if args.resume else read_query(args)

    try:
        config_kwargs = {}
        if args.checkpoint is not None:
            from repro.core.config import DEFAULT_CHECKPOINT_INTERVAL

            config_kwargs["checkpoint_dir"] = args.checkpoint
            config_kwargs["checkpoint_interval"] = (
                args.checkpoint_interval
                if args.checkpoint_interval is not None
                else DEFAULT_CHECKPOINT_INTERVAL)
        elif args.resume is not None:
            raise SystemExit(
                "error: --resume needs --checkpoint DIR (the directory "
                "the crashed run checkpointed into)")
        config = ExecutionConfig(
            codegen=not args.no_codegen,
            stage_combination=not args.no_stage_combination,
            evaluation=args.evaluation,
            deadline_seconds=args.timeout,
            backend=args.backend,
            **config_kwargs,
        )
        cluster_kwargs = cluster_options(args)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")

    if args.chaos is not None:
        return run_chaos(args, query, config, cluster_kwargs)

    ctx = make_context(args, config, cluster_kwargs)
    if args.faults:
        from repro.engine.faults import parse_fault_spec

        try:
            ctx.inject_faults(*(parse_fault_spec(s) for s in args.faults))
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")

    from repro.errors import (
        AdmissionRejectedError,
        CheckpointError,
        MemoryBudgetExceededError,
        QueryDeadlineExceededError,
        RaSQLError,
    )

    try:
        if args.explain:
            print(ctx.explain(query))
            return 0
        if args.check_prem:
            from repro.core.prem import check_prem

            tables = {name: (list(ctx.catalog.get(name).columns),
                             ctx.catalog.get(name).rows)
                      for name in ctx.catalog.names()}
            prem_report = check_prem(query, tables)
            print(prem_report)
            print(prem_report.format_trace())
            return 0 if prem_report.holds else 1
        if args.resume:
            # Forward the CLI-built config: flags on the resume command
            # line win over the manifest's replayed ones, so a run that
            # died on its deadline resumes with the raised --timeout.
            result = ctx.resume(args.resume, checkpoint_dir=args.checkpoint,
                                config=config)
        else:
            result = ctx.sql(query, profile_path=args.profile)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6
    except QueryDeadlineExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.partial_trace is not None:
            stages = sum(1 for _ in _iter_spans(exc.partial_trace, "stage"))
            iters = sum(1 for _ in _iter_spans(exc.partial_trace,
                                               "iteration"))
            print(f"-- partial trace: {iters} fixpoint iterations, "
                  f"{stages} completed stages before the deadline "
                  f"(re-run with --trace PATH to save it)",
                  file=sys.stderr)
        if args.checkpoint is not None and ctx.last_run.query_id:
            print(f"-- continue from the last durable iteration with "
                  f"--checkpoint {args.checkpoint} --resume "
                  f"{ctx.last_run.query_id} (raise --timeout for a "
                  f"fresh window)", file=sys.stderr)
        return 3
    except MemoryBudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except AdmissionRejectedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except RaSQLError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(result.sorted().show(limit=args.limit))
    stats = ctx.last_run
    print(f"-- {len(result)} rows; {stats.iterations} fixpoint iterations; "
          f"{stats.sim_time:.4f} simulated cluster seconds",
          file=sys.stderr)
    if args.checkpoint is not None and stats.query_id:
        ckpt = stats.checkpoint_summary()
        resumed = (f"; resumed from iteration {stats.resumed_from}"
                   if stats.resumed_from else "")
        print(f"-- checkpoint: query_id={stats.query_id} "
              f"writes={ckpt['checkpoint_writes']:.0f} "
              f"({ckpt['checkpoint_bytes']:.0f} bytes){resumed}",
              file=sys.stderr)
    if args.memory_budget is not None:
        mem = stats.memory_summary()
        hwm = max((v for k, v in mem.items()
                   if k.startswith("memory_hwm_bytes_w")), default=0)
        print(f"-- memory: peak worker high-water {hwm:.0f} bytes; "
              f"spills={mem['spill_events']:.0f} "
              f"({mem['spill_bytes']:.0f} bytes)", file=sys.stderr)
    if args.faults:
        fault_stats = stats.fault_summary()
        print(f"-- recovery: attempts={fault_stats['task_attempts']:.0f} "
              f"failures={fault_stats['task_failures']:.0f} "
              f"workers_lost={fault_stats['workers_lost']:.0f} "
              f"recovery_time={fault_stats['recovery_seconds']:.4f}s",
              file=sys.stderr)
    if args.explain_analyze:
        print()
        print(stats.explain_analyze())
    if args.trace:
        import json

        pathlib.Path(args.trace).write_text(
            json.dumps(stats.trace, indent=2) + "\n")
        print(f"-- wrote trace {args.trace}", file=sys.stderr)
    if args.profile:
        print(f"-- wrote profile {stats.profile_path}", file=sys.stderr)
    if args.output:
        write_csv(result, args.output)
        print(f"-- wrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
