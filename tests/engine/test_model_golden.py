"""What the simulated model reports, pinned (DESIGN.md §7, §8).

The per-iteration scaffolding around the derivation kernels — stage and
task wrappers, spans, counter fan-out, sizing, memory charges — may be
made cheaper, but what it reports may not move.  This golden holds, for
each of the 15 library queries on its small fixture graph under the
default config and ``codegen=False``:

- the ``RunInfo.trace`` tree: every span's kind, name, attrs and
  integer metrics, in order;
- every integer counter of the run (``RunInfo.metrics``), compared as a
  dict, the order-insensitive way ``fused_stage_parent.json`` is;
- ``RunInfo.sim_time``, read under ``fake_clock`` (a fixed-step task
  clock), so only the modelled charges count.

Regenerate it only when the engine's accounting is meant to change::

    PYTHONPATH=src:. python tests/engine/test_model_golden.py
"""

import json
from pathlib import Path

import pytest

from repro import ExecutionConfig
from repro.engine import metrics as engine_metrics

GOLDEN = Path(__file__).parent / "fixtures" / "model_golden.json"

CONFIGS = {
    "default": ExecutionConfig(),
    "codegen_off": ExecutionConfig(codegen=False),
}


def _integral(value) -> bool:
    return isinstance(value, (int, float)) and float(value).is_integer()


def integer_metrics(metrics: dict) -> dict:
    """The counters of a span or run that count things (seconds never
    do, whatever their value)."""
    return {name: value for name, value in sorted(metrics.items())
            if _integral(value) and "seconds" not in name}


def span_shape(span: dict) -> dict:
    return {"kind": span["kind"], "name": span["name"],
            "attrs": span["attrs"],
            "metrics": integer_metrics(span["metrics"]),
            "children": [span_shape(child) for child in span["children"]]}


def reported(query_name: str, config: ExecutionConfig) -> dict:
    from tests.integration.test_chaos import (
        QUERY_SETUPS,
        make_context_factory,
    )

    ctx = make_context_factory(query_name, num_workers=3)(config=config)
    ctx.sql(QUERY_SETUPS[query_name][1]())
    run = ctx.last_run
    ctx.close()
    # json round trip: tuples as lists, the dump's keys and floats
    return json.loads(json.dumps({
        "sim_time": run.sim_time,
        "counters": integer_metrics(run.metrics),
        "trace": span_shape(run.trace),
    }))


def _library_queries() -> list[str]:
    from repro.queries.library import ALL_QUERIES

    return sorted(spec.name for spec in ALL_QUERIES)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("query_name", _library_queries())
def test_the_model_reports_what_the_golden_holds(query_name, config_name,
                                                 golden, fake_clock):
    got = reported(query_name, CONFIGS[config_name])
    want = golden[f"{query_name}/{config_name}"]
    assert got["counters"] == want["counters"]
    assert got["trace"] == want["trace"]
    assert got["sim_time"] == want["sim_time"]


def test_the_golden_covers_every_library_query_and_config(golden):
    assert sorted(golden) == sorted(f"{q}/{c}" for q in _library_queries()
                                    for c in CONFIGS)


if __name__ == "__main__":
    from tests.conftest import StepClock

    dump = {}
    for query in _library_queries():
        for name, config in CONFIGS.items():
            engine_metrics.task_clock = StepClock()
            dump[f"{query}/{name}"] = reported(query, config)
    GOLDEN.parent.mkdir(exist_ok=True)
    # One entry a line, so a diff names the query that moved.
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
        for key, value in sorted(dump.items())) + "\n}\n")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size:,} bytes)")
