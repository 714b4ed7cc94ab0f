"""Human-readable rendering of a gathered report, and ``--compare``.

A gathered report (``run.py`` without ``--workload``) holds, per
workload, the detail record of every run plus at most one traced run.
Nothing is reported for a workload unless every one of its runs passed
verification.
"""

from __future__ import annotations

import json

import measure
import spec


def _values(runs: list[dict], metric: str) -> list[float]:
    return [run["metrics"][metric]["value"] for run in runs]


def _all_runs(entry: dict) -> list[dict]:
    return entry["runs"] + ([entry["traced"]] if entry["traced"] else [])


def _failed_runs(entry: dict) -> list[dict]:
    return [run for run in _all_runs(entry) if not run["correct"]]


def all_correct(report: dict) -> bool:
    return not any(_failed_runs(entry)
                   for entry in report["workloads"].values())


def _table(header: list[str], rows: list[list]) -> str:
    cells = [header] + [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = [" | ".join(cell.ljust(width) for cell, width in zip(row, widths))
             for row in cells]
    lines.insert(1, "-|-".join("-" * width for width in widths))
    return "\n".join("| " + line + " |" for line in lines)


def _num(value: float) -> str:
    return f"{value:.4g}"


#: Layer shares of the traced whole: label -> metric(s) summed.
_SHARES = (
    ("front end", ("core.parser.parse_ms", "core.analyzer.analyze_ms",
                   "core.optimizer.optimize_ms", "core.planner.plan_ms")),
    ("fixpoint self", ("core.fixpoint.self_s",)),
    ("base stage", ("engine.cluster.stage_base_s",)),
    ("shufflemap stages", ("engine.cluster.stage_shufflemap_s",)),
    ("decomposed stage", ("engine.cluster.stage_decomposed_s",)),
    ("exchange+broadcast", ("engine.cluster.exchange_s",
                            "engine.cluster.broadcast_s")),
    ("final select", ("core.executor.final_select_s",)),
)


def _seconds(traced: dict, names) -> float:
    total = 0.0
    for name in names:
        entry = traced["metrics"][name]
        total += entry["value"] / 1e3 if entry["unit"] == "ms" else entry["value"]
    return total


def render(report: dict) -> str:
    env = report["env"]
    parts = ["# RaSQL end-to-end benchmark report", "", "## Setup", ""]
    parts.append(_table(
        ["cores", "python", "commit", "first seed", "runs/workload",
         "seconds/run", "scale"],
        [[env["cores"], env["python"], (env["commit"] or "n/a")[:12],
          report["seed"], report["runs"], _num(report["seconds"]),
          _num(report["scale"])]]))

    parts += ["", "## Workloads", ""]
    rows = []
    for name, entry in report["workloads"].items():
        first = entry["runs"][0]
        params = first["params"]
        everything = _all_runs(entry)
        rows.append([
            name, params["edges"], params["backend"], params["num_workers"],
            sum(run["attempted"] for run in everything),
            sum(run["failed"] for run in everything),
            "yes" if not _failed_runs(entry) else "NO"])
    parts.append(_table(["workload", "edges", "backend", "workers",
                         "operations", "failed", "verified"], rows))

    parts += ["", "## End-to-end metrics "
              "(median [q1, q3] over the runs, no wrapper installed)", ""]
    rows = []
    for name, entry in report["workloads"].items():
        failed = _failed_runs(entry)
        if failed:
            rows.append([name, "withheld", f"{len(failed)} run(s) failed "
                         f"verification: {failed[0]['failures'][:1]}",
                         "", "", "", ""])
            continue
        for metric, unit, _, bound in spec.END_TO_END:
            q1, median, q3 = measure.quartiles(_values(entry["runs"], metric))
            rows.append([name, metric, _num(median),
                         f"[{_num(q1)}, {_num(q3)}]", len(entry["runs"]),
                         unit, f"{bound:.0%}"])
    parts.append(_table(["workload", "metric", "median", "quartiles", "n",
                         "unit", "bound"], rows))

    traced = {name: entry["traced"]
              for name, entry in report["workloads"].items()
              if entry["traced"] and not _failed_runs(entry)}
    if traced:
        parts += ["", "## Per-layer shares of the traced whole "
                  "(one traced run per workload)", ""]
        rows = []
        for name, run in traced.items():
            layers = [_seconds(run, names) for _, names in _SHARES]
            whole = (sum(layers)
                     / run["metrics"]["bench.layers_sum_frac"]["value"])
            rows.append([name, f"{whole:.3f} s"]
                        + [f"{layer / whole:.1%}" for layer in layers]
                        + [f"{run['metrics']['bench.layers_sum_frac']['value']:.3f}",
                           f"{run['metrics']['bench.trace_overhead_frac']['value']:+.1%}"])
        parts.append(_table(
            ["workload", "traced whole"] + [label for label, _ in _SHARES]
            + ["layers sum", "trace overhead"], rows))
        parts += ["", "## Per-layer metrics", ""]
        names = list(traced)
        rows = [[metric, unit] + [_num(traced[name]["metrics"][metric]["value"])
                                  for name in names]
                for metric, unit, _ in spec.PER_LAYER]
        parts.append(_table(["metric", "unit"] + names, rows))
    return "\n".join(parts)


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------


def _verdict(a: list[float], b: list[float], better: str,
             bound: float) -> str:
    """``worse``: B's median is worse than A's by more than the bound.
    ``unresolved``: it is not, but the run-to-run spread is wider than
    the bound and the two sets of runs overlap.  Else ``within-bound``."""
    a_q1, a_median, a_q3 = measure.quartiles(a)
    b_q1, b_median, b_q3 = measure.quartiles(b)
    change = (b_median - a_median) / a_median
    if (change if better == "lower" else -change) > bound:
        return "worse"
    spread = max((a_q3 - a_q1) / a_median, (b_q3 - b_q1) / b_median)
    if spread > bound:
        all_better = (max(b) < min(a) if better == "lower"
                      else min(b) > max(a))
        if not all_better:
            return "unresolved"
    return "within-bound"


def compare(path_a, path_b) -> int:
    """Print one row per (workload, end-to-end metric); 1 on any ``worse``."""
    a = json.loads(path_a.read_text())
    b = json.loads(path_b.read_text())
    rows, worse, moved = [], 0, []
    for name in spec.WORKLOADS:
        entry_a, entry_b = a["workloads"].get(name), b["workloads"].get(name)
        if entry_a is None or entry_b is None:
            rows.append([name, "missing from one report", "", "", "", "", ""])
            worse += 1
            continue
        if _failed_runs(entry_a) or _failed_runs(entry_b):
            rows.append([name, "failed verification", "", "", "", "", "worse"])
            worse += 1
            continue
        for metric, unit, better, bound in spec.END_TO_END:
            values_a = _values(entry_a["runs"], metric)
            values_b = _values(entry_b["runs"], metric)
            verdict = _verdict(values_a, values_b, better, bound)
            worse += verdict == "worse"
            cells = []
            for values in (values_a, values_b):
                q1, median, q3 = measure.quartiles(values)
                cells.append(f"{_num(median)} [{_num(q1)}, {_num(q3)}]")
            rows.append([name, metric, unit, *cells, f"{bound:.0%}", verdict])
        traced_a, traced_b = entry_a["traced"], entry_b["traced"]
        if traced_a and traced_b and traced_a["seed"] == traced_b["seed"]:
            for metric in spec.EXACT_REPEAT:
                before = traced_a["metrics"][metric]["value"]
                after = traced_b["metrics"][metric]["value"]
                if before != after:
                    moved.append([name, metric, before, after])
    print(_table(["workload", "metric", "unit", "A median [q1, q3]",
                  "B median [q1, q3]", "bound", "verdict"], rows))
    print()
    if moved:
        print("exact-repeat counters that moved between A and B:")
        print(_table(["workload", "counter", "A", "B"], moved))
    else:
        print("exact-repeat counters: identical wherever both reports "
              "hold a traced run on the same seed")
    return 1 if worse else 0
