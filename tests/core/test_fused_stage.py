"""One generated stage per iteration (DESIGN.md §20).

A recursive term of a template-eligible head folds its derivations into
the view's accumulator from inside its probe loop, and one emit pass turns
the accumulator into routed head rows.  Three pins:

- *property*: the fused sink + emit is, bucket for bucket and in order,
  the list body → reference fold → router it replaced — for every builtin
  aggregate, head layout and partition count, over duplicate-heavy rows
  with ``None``, negative, float and string keys, with two terms sharing
  one accumulator and with a negated ``sum`` term;
- *differential*: the 15 library queries on seven config axes agree on
  rows and iteration counts, and every discrete counter the simulated
  cluster keeps (iterations, per-iteration delta sizes, stages, tasks,
  shuffle records and bytes, broadcast bytes, per-worker memory high-water
  marks) is JSON-identical to a dump cut at the commit *before* the stage
  was fused (``fixtures/fused_stage_parent.json``);
- a generated recursive term of a foldable view builds no ``_out`` list.

Regenerate the dump (only when the engine's accounting is meant to
change)::

    PYTHONPATH=src python tests/core/test_fused_stage.py
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionConfig, RaSQLContext
from repro.core import planner
from repro.core.iteration import CliqueStep, _reference_router
from repro.engine.aggregates import BY_NAME, partial_aggregate
from repro.engine.backend.payloads import WireView
from repro.engine.kernels import make_extractor, make_router
from repro.engine.partitioner import HashPartitioner
from repro.errors import PlanningError

PARENT_DUMP = Path(__file__).parent / "fixtures" / "fused_stage_parent.json"

CONFIGS = {
    "default": ExecutionConfig(),
    "kernels_off": ExecutionConfig(kernels=False),
    "codegen_off": ExecutionConfig(codegen=False),
    "partial_aggregation_off": ExecutionConfig(partial_aggregation=False),
    "two_stage": ExecutionConfig(stage_combination=False),
    "stacked": ExecutionConfig(decomposed_plans=False),
    "broadcast_bases": ExecutionConfig(broadcast_bases=True),
}
COUNTERS = ("iterations", "stages", "tasks", "shuffle_records",
            "shuffle_bytes", "broadcast_bytes")


def run_library_query(query_name: str, config: ExecutionConfig) -> dict:
    from tests.integration.test_chaos import (
        QUERY_SETUPS,
        make_context_factory,
    )

    ctx = make_context_factory(query_name, num_workers=3)(config=config)
    rows = ctx.sql(QUERY_SETUPS[query_name][1]()).rows
    run = ctx.last_run
    return {
        "rows": sorted(map(repr, rows)),
        "iterations": run.iterations,
        "delta_rows": run.delta_history,
        "counters": {name: value for name, value in sorted(run.metrics.items())
                     if name in COUNTERS
                     or name.startswith("memory_hwm_bytes_w")},
    }


def collect() -> dict[str, dict]:
    from tests.integration.test_chaos import QUERY_SETUPS

    planner.KERNEL_MIN_ROWS = 0  # tiny inputs must reach the kernel layer
    return {f"{query_name}/{config_name}":
            run_library_query(query_name, config)
            for query_name in sorted(QUERY_SETUPS)
            for config_name, config in CONFIGS.items()}


# ----------------------------------------------------------------------
# differential against the commit before the stage was fused
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def parent_dump():
    return json.loads(PARENT_DUMP.read_text())


def _library_queries():
    from repro.queries.library import ALL_QUERIES

    return sorted(spec.name for spec in ALL_QUERIES)


@pytest.mark.parametrize("query_name", _library_queries())
def test_rows_iterations_and_counters_match_the_unfused_parent(
        query_name, parent_dump, ungated_kernels):
    outcomes = {name: run_library_query(query_name, config)
                for name, config in CONFIGS.items()}
    for name, outcome in outcomes.items():
        # json round trip: the dump's dict keys and floats, as stored
        assert json.loads(json.dumps(outcome)) \
            == parent_dump[f"{query_name}/{name}"], name
    # every axis agrees with the default on the answer
    assert len({json.dumps(o["rows"]) for o in outcomes.values()}) == 1


def test_the_default_axis_fuses_and_the_ablations_do_not(ungated_kernels):
    fused = {}
    for name, config in CONFIGS.items():
        ctx = RaSQLContext(num_workers=3, config=config)
        ctx.register_table("edge", ["Src", "Dst"],
                           [(i, (i * 7 + 3) % 40) for i in range(40)])
        from repro.queries.library import get_query
        ctx.sql(get_query("cc").sql)
        fused[name] = ctx.last_run.kernels_summary()["kernel_fused_fold_terms"]
    assert fused == {"default": 1, "kernels_off": 0, "codegen_off": 0,
                     "partial_aggregation_off": 0, "two_stage": 1,
                     "stacked": 1, "broadcast_bases": 1}


def test_a_foldable_recursive_term_builds_no_row_list():
    from repro.core.analyzer import analyze
    from repro.core.catalog import Catalog
    from repro.core.optimizer import optimize
    from repro.core.parser import parse
    from repro.queries.library import ALL_QUERIES

    folding = 0
    for spec in ALL_QUERIES:
        catalog = Catalog()
        for table, columns in spec.tables.items():
            catalog.register(table, columns)
        script = optimize(analyze(parse(spec.formatted(source=1)), catalog))
        for clique in script.cliques():
            try:
                plan = planner.plan_clique(clique, ExecutionConfig(),
                                           maintenance=True)
            except PlanningError:  # a theta rule has no maintenance plan
                plan = planner.plan_clique(clique, ExecutionConfig())
            for term in plan.terms:
                view = plan.views[term.view]
                foldable = (len(view.aggregate_functions) == 1
                            and view.has_aggregates)
                assert term.folds == foldable, (spec.name, term.describe())
                source = term.codegen_fn._generated_source
                assert ("_out" in source) != foldable
                folding += foldable
            one_shot = [rule.term for rule in plan.base_rules if rule.term]
            for terms in plan.maintenance_terms.values():
                one_shot += terms
            # base rules and maintenance terms keep the list sink
            assert not any(term.folds for term in one_shot)
    assert folding >= 10


# ----------------------------------------------------------------------
# property: fused sink + emit == list body -> fold -> router
# ----------------------------------------------------------------------

#: (group positions, aggregate position) of the head shapes.
LAYOUTS = [((0,), 1), ((0, 1), 2), ((1,), 0), ((), 0)]
KEYS = st.sampled_from([0, 1, -1, -7, 2**40, 1.0, -1.0, 2.5, "a", "", "b",
                        None, True])
VALUES = st.sampled_from([-3, -1, 0, 0, 1, 2, 2, 5, 1.5])


@st.composite
def derived_rows(draw, group, at):
    """Head rows over few groups: duplicates are the common case."""
    keys = draw(st.lists(KEYS, min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        row = [draw(st.sampled_from(keys)) for _ in range(len(group) + 1)]
        row[at] = draw(VALUES)
        rows.append(tuple(row))
    return rows


def wire_view(name, group, at):
    return WireView(group_positions=group, aggregate_positions=(at,),
                    aggregate_names=(name,),
                    partition_key_positions=group or (0,),
                    has_aggregates=True)


def list_term(rows):
    return lambda delta, partition, runtime: list(rows)


def fold_by_hand(combined, rows, name, group, at, flip=False):
    """The fold, spelled out: bare values under the first-seen key."""
    key_of = make_extractor(group)
    for row in rows:
        key, value = key_of(row), -row[at] if flip else row[at]
        old = combined.get(key)
        if name == "min":
            if old is None or value < old:
                combined[key] = value
        elif name == "max":
            if old is None or value > old:
                combined[key] = value
        else:
            combined[key] = value if old is None else old + value
    return combined


def fold_term(rows, name, group, at, negate=False):
    """What codegen emits, by hand: the probe loop folding in place."""
    flip = negate and name in ("sum", "count")
    return lambda delta, partition, runtime, combined: fold_by_hand(
        combined, rows, name, group, at, flip)


def fold_then_rows(rows, name, group, at):
    """The separate fold pass this replaced: head rows out."""
    out = []
    for key, value in fold_by_hand({}, rows, name, group, at).items():
        row = [key] if len(group) == 1 else list(key)
        row.insert(at, value)
        out.append(tuple(row))
    return out


def derive_once(view, terms, n):
    step = CliqueStep({"v": view}, terms, n, True, True)
    step.fresh["v"][0] = [("delta",)]  # non-empty: every term runs
    return step.derive(0)


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("group, at", LAYOUTS)
@pytest.mark.parametrize("name", ["min", "max", "sum", "count"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fused_sink_and_emit_match_fold_then_route(name, group, at, n, data):
    first = data.draw(derived_rows(group, at))
    second = data.draw(derived_rows(group, at))
    negate = name == "sum" and data.draw(st.booleans())
    view = wire_view(name, group, at)

    fused = derive_once(view, [
        ("v", "v", False, fold_term(first, name, group, at), True),
        ("v", "v", negate, fold_term(second, name, group, at, negate), True),
    ], n)
    # ... and a term that returns rows meets the same accumulator.
    mixed = derive_once(view, [
        ("v", "v", False, fold_term(first, name, group, at), True),
        ("v", "v", negate, list_term(second), False),
    ], n)

    # The path this replaced: one row list, the reference fold, the router.
    flipped = [row[:at] + (-row[at],) + row[at + 1:] for row in second] \
        if negate else second
    folded = fold_then_rows(first + flipped, name, group, at)
    # (the generic fold agrees up to which of two dict-equal keys — 1 or
    # 1.0 — a group's row shows: it keeps the last, a dict the first)
    assert folded == partial_aggregate(
        first + flipped, make_extractor(group), (at,), (BY_NAME[name],))
    for route in (make_router(group or (0,), n),
                  _reference_router(group or (0,), HashPartitioner(n))):
        expected = {"v": {pid: bucket for pid, bucket
                          in enumerate(route(folded)) if bucket}}
        assert fused == expected
        assert repr(fused) == repr(expected)  # 1 vs 1.0 vs True, and order
        assert repr(mixed) == repr(expected)


if __name__ == "__main__":
    PARENT_DUMP.parent.mkdir(exist_ok=True)
    PARENT_DUMP.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(entry, sort_keys=True)}"
        for key, entry in sorted(collect().items())) + "\n}\n")
    print(f"wrote {PARENT_DUMP}")
