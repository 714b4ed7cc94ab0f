"""The end-to-end benchmark: one command, four workloads, every metric.

    python3 benchmarks/e2e/run.py --seed 7                 # all workloads
    python3 benchmarks/e2e/run.py --seed 7 --runs 10 --trace 1 --out A.json
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --workload tc_sim_1k --seed 7 \
        --seconds 15 --trace 0                             # one run

With ``--workload`` this process *is* the run: it measures that workload
and prints, as the last line of its output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Without it every workload runs in a fresh subprocess of
its own, ``--runs`` times on consecutive seeds, and the results are
gathered into one report.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
CHILD_TIMEOUT_S = 900


def _environment() -> dict:
    import measure

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # not a git checkout
    return {"cores": measure.cores(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit}


def _detail_path(workload: str, seed: int, trace: int) -> pathlib.Path:
    return OUT / f"run.{workload}.seed{seed}.trace{trace}.json"


def _stop_resource_tracker() -> None:
    """Spawning the worker pool also starts the stdlib's resource
    tracker; stop and reap it here rather than leave it to notice that
    this process has gone."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_one(args) -> int:
    """Measure one workload in this process (the driver's contract)."""
    import spec
    import workloads

    OUT.mkdir(exist_ok=True)
    trace = bool(args.trace)
    outcome = workloads.run(
        args.workload, args.seed, args.seconds, trace, args.scale,
        OUT / f"trace.{args.workload}.json")
    _stop_resource_tracker()
    tally = outcome["tally"]
    units = spec.PER_LAYER_UNITS if trace else spec.END_TO_END_UNITS
    metrics = {name: {"value": outcome["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    detail = {"schema": spec.SCHEMA, "workload": args.workload,
              "seed": args.seed, "seconds": args.seconds,
              "scale": args.scale, "trace": args.trace,
              "env": _environment(), "params": outcome["params"],
              "counts": outcome["counts"], "failures": tally.failures,
              **result}
    _detail_path(args.workload, args.seed, args.trace).write_text(
        json.dumps(detail, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds:g}  scale {args.scale:g}")
    for name, entry in metrics.items():
        print(f"{name:44s} {entry['value']:.6g} {entry['unit']}")
    for failure in tally.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _child(workload: str, seed: int, trace: int, args) -> dict:
    """One run in a fresh subprocess; returns its detail record."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--scale", str(args.scale)]
    print(f"  {workload} seed={seed} trace={trace} ...", end=" ", flush=True)
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        print("crashed")
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} (seed {seed}, trace {trace}) exited "
                         f"with code {done.returncode}")
    detail = json.loads(_detail_path(workload, seed, trace).read_text())
    print("ok" if detail["correct"] else "FAILED VERIFICATION")
    return detail


def run_all(args) -> int:
    import report
    import spec

    env = _environment()
    gathered = {"schema": spec.SCHEMA, "env": env, "seed": args.seed,
                "runs": args.runs, "seconds": args.seconds,
                "scale": args.scale, "workloads": {}}
    print(f"running {len(spec.WORKLOADS)} workloads x {args.runs} run(s), "
          f"{args.seconds:g} s each, on {env['cores']} core(s)")
    for workload in spec.WORKLOADS:
        runs = [_child(workload, args.seed + index, 0, args)
                for index in range(args.runs)]
        traced = _child(workload, args.seed, 1, args) if args.trace else None
        gathered["workloads"][workload] = {"runs": runs, "traced": traced}
    out = args.out or OUT / "report.json"
    pathlib.Path(out).write_text(json.dumps(gathered, indent=1) + "\n")
    print()
    print(report.render(gathered))
    print(f"\nwrote {out}")
    return 0 if report.all_correct(gathered) else 1


def main(argv=None) -> int:
    run_seconds = json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    import spec

    parser = argparse.ArgumentParser(
        description="RaSQL end-to-end benchmark (see README.md)")
    parser.add_argument("--workload", choices=list(spec.WORKLOADS),
                        help="measure this one workload in this process")
    parser.add_argument("--seed", type=int, default=7,
                        help="seed of the input generators (default 7)")
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="length of the timed phase of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the inputs (the smoke test uses 0.02)")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, on seeds SEED..SEED+RUNS-1")
    parser.add_argument("--out", type=pathlib.Path,
                        help="where to write the gathered report")
    parser.add_argument("--compare", nargs=2, type=pathlib.Path,
                        metavar=("A.json", "B.json"),
                        help="compare two gathered reports; exit 1 when B "
                             "is worse than A beyond a metric's bound")
    args = parser.parse_args(argv)
    if args.compare:
        import report

        return report.compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is "
              f"missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
