"""A CPU stack sampler around one end-to-end benchmark workload.

    PYTHONPATH=src python scripts/sample_profile.py serve_mix --seed 7 \
        --seconds 12 [--scale 1.0] [--under _run_sql_request] [--top 25]

Runs ``benchmarks/e2e/workloads.run(W, seed, seconds, False, scale, None)``
in this process under a 1 kHz ``ITIMER_PROF`` timer (process CPU time, so
idle waits are not sampled).  Each tick records the Python stack; only
stacks that pass through a frame named ``--under`` are kept.  It prints
the functions with the most self (leaf) and inclusive samples, then the
share of kept samples by where the leaf frame was (``category:`` lines).
The bench modules are imported and read, never changed.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: (category, markers): a sample belongs to the first category with a
#: marker inside its leaf frame's ``"<file>:<function>"``.
CATEGORIES = [
    ("dataclass __init__", ("<string>:__init__",)),
    ("derivation kernels", ("<rasql-", "engine/kernels.py:", "setrdd.py:",
                            "aggregates.py:", "engine/joins.py:")),
    ("stage, task and exchange wrappers", (
        "engine/cluster.py:", "engine/scheduler.py:", "core/schedulers.py:",
        "engine/dataset.py:", "engine/backend/")),
    ("fixpoint and step glue", ("core/fixpoint.py:", "core/iteration.py:",
                                "core/decomposed.py:")),
    ("spans", ("engine/tracing.py:", "contextlib.py:")),
    ("metrics inc / advance", ("engine/metrics.py:",)),
    ("bucket sizing", ("engine/serialization.py:",)),
    ("memory governor", ("engine/memory.py:",)),
    ("service and caches", ("repro/serving/",)),
    ("front end and executor", ("/repro/",)),
    ("other (stdlib, bench)", ("",)),
]


def category(path: str, name: str) -> str:
    where = f"{path}:{name}"
    return next(label for label, markers in CATEGORIES
                if any(marker in where for marker in markers))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--under", default="_run_sql_request")
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"),
                    os.path.join(ROOT, "benchmarks", "e2e")]
    import workloads

    self_counts: Counter = Counter()
    inclusive: Counter = Counter()
    categories: Counter = Counter()
    kept = [0, 0]  # kept, seen

    def sample(_signum, frame):
        kept[1] += 1
        stack = []
        while frame is not None:
            code = frame.f_code
            if code.co_name == args.under:
                break
            stack.append((code.co_filename, frame.f_lineno, code.co_name))
            frame = frame.f_back
        if frame is None or not stack:
            return
        kept[0] += 1
        path, line, name = stack[0]
        self_counts[f"{os.path.basename(path)}:{line} {name}"] += 1
        categories[category(path, name)] += 1
        for key in {f"{os.path.basename(p)} {n}" for p, _, n in stack}:
            inclusive[key] += 1

    signal.signal(signal.SIGPROF, sample)
    signal.setitimer(signal.ITIMER_PROF, 0.001, 0.001)
    try:
        workloads.run(args.workload, args.seed, args.seconds, False,
                      args.scale, None)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
    total = max(kept[0], 1)
    print(f"samples: {kept[0]} under {args.under} of {kept[1]}")
    for title, counts in (("self", self_counts), ("inclusive", inclusive)):
        print(f"\ntop {args.top} by {title} samples:")
        for key, count in counts.most_common(args.top):
            print(f"  {100 * count / total:5.1f}%  {count:6d}  {key}")
    print()
    for label, _ in CATEGORIES:
        print(f"category: {100 * categories[label] / total:5.1f}%  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
