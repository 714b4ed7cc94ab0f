"""One generated stage per iteration (DESIGN.md §20).

A recursive or base term of a template-eligible head folds its
derivations into the view's accumulator from inside its probe loop, and
one emit pass turns the accumulator into routed head rows.  Four pins:

- *property*: the fused sink + emit is, bucket for bucket and in order,
  the list body → reference fold → router it replaced — for every builtin
  aggregate, head layout and partition count, over duplicate-heavy rows
  with ``None``, negative, float and string keys, with two terms sharing
  one accumulator and with a negated ``sum`` term;
- *base-case property*: generated base rules with duplicate groups
  (negative values, ``sum`` groups cancelling to 0, constant rows) give
  the ``partial_aggregation=False`` rows and iteration counts, and their
  exchange ships one row per group per ``fixpoint-base`` chunk;
- *differential*: the 15 library queries on seven config axes agree on
  rows and iteration counts, and every discrete counter the simulated
  cluster keeps (iterations, per-iteration delta sizes, stages, tasks,
  shuffle records and bytes, broadcast bytes, per-worker memory high-water
  marks) is JSON-identical to a dump cut at the commit *before* the stage
  was fused (``fixtures/fused_stage_parent.json``).  Re-cut once, when
  base rules started folding: against the previous dump only
  ``shuffle_records``, ``shuffle_bytes`` and ``memory_hwm_bytes_w*`` of
  ``cc`` and ``cc_labels`` moved (their ``SELECT Src, Src`` base case
  repeats a group per edge), on every axis but
  ``partial_aggregation_off``; rows, iterations and delta sizes did not;
- a generated recursive or base term of a foldable view builds no
  ``_out`` list; a maintenance term always does.

Regenerate the dump (only when the engine's accounting is meant to
change)::

    PYTHONPATH=src:. python tests/core/test_fused_stage.py
"""

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ExecutionConfig, RaSQLContext
from repro.core import planner
from repro.core.iteration import CliqueStep, _reference_router
from repro.engine.aggregates import BY_NAME, partial_aggregate
from repro.engine.backend.payloads import WireView
from repro.engine.kernels import make_extractor, make_router
from repro.engine.partitioner import HashPartitioner
from repro.engine.tracing import _find_dict
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

    folding = folding_base = 0
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
            base = [rule.term for rule in plan.base_rules if rule.term]
            # recursive and base terms fold exactly when their view can
            for term, is_base in ([(t, False) for t in plan.terms]
                                  + [(t, True) for t in base]):
                view = plan.views[term.view]
                foldable = (len(view.aggregate_functions) == 1
                            and view.has_aggregates)
                assert term.folds == foldable, (spec.name, term.describe())
                source = term.codegen_fn._generated_source
                assert ("_out" in source) != foldable
                folding += foldable
                folding_base += foldable and is_base
            # maintenance terms never do: their rows reach the merge as
            # derived
            for terms in plan.maintenance_terms.values():
                assert not any(term.folds for term in terms)
                assert all("_out" in term.codegen_fn._generated_source
                           for term in terms)
    assert folding >= 10
    assert folding_base >= 5


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


# ----------------------------------------------------------------------
# property: the base case folds per chunk before its exchange
# ----------------------------------------------------------------------


def base_case_query(name, constants):
    """Two scanned base rules, the constant rules, and one recursive rule
    that moves each group ``K < 10`` to ``K + 10`` (so every group is
    reached from exactly one other and the recursion stops)."""
    rules = ["(SELECT K, V FROM t)", "(SELECT K, V FROM u)"]
    rules += [f"(SELECT {k}, {v})" for k, v in constants]
    return (f"WITH recursive v(K, {name}() AS V) AS\n  "
            + " UNION ".join(rules)
            + " UNION\n  (SELECT v.K + 10, v.V FROM v WHERE v.K < 10)\n"
            "SELECT K, V FROM v")


@st.composite
def base_case(draw, name):
    """``(t rows, u rows, constant rows, one value per group)`` over six
    groups: duplicate groups are the common case.  A third column keeps
    duplicate-group rows distinct facts; with ``one_value`` every group's
    rows agree on its value (``cc``'s ``SELECT Src, Src``)."""
    one_value = draw(st.booleans())
    values = st.integers(0 if name == "count" or one_value else -5, 5)
    per_key = [draw(values) for _ in range(6)]

    def table():
        rows = []
        for tag in range(draw(st.integers(0, 12))):
            key = draw(st.integers(0, 5))
            rows.append((key, per_key[key] if one_value else draw(values),
                         tag))
        return rows

    t, u = table(), table()
    if name == "sum" and draw(st.booleans()):  # contributions cancel to 0
        t += [(5, 4, 100), (5, -4, 101)]
    keys = draw(st.lists(st.integers(0, 5), max_size=3))
    constants = [(k, per_key[k] if one_value else draw(st.integers(0, 5)))
                 for k in keys]
    return t, u, constants, one_value


def chunk_groups(rows, n):
    """Distinct group keys per ``fixpoint-base`` chunk of ``rows``."""
    chunk = max(1, -(-len(rows) // n))
    return sum(len({row[0] for row in rows[i:i + chunk]})
               for i in range(0, len(rows), chunk))


def run_base_case(name, case, n, partial_aggregation):
    t, u, constants, _ = case
    ctx = RaSQLContext(num_workers=n, config=ExecutionConfig(
        partial_aggregation=partial_aggregation))
    ctx.register_table("t", ["K", "V", "W"], t)
    ctx.register_table("u", ["K", "V", "W"], u)
    rows = ctx.sql(base_case_query(name, constants)).rows
    run = ctx.last_run
    (fixpoint,) = [child for child in run.trace["children"]
                   if child["kind"] == "fixpoint"]
    base_exchange = next(_find_dict(fixpoint, "exchange"))
    return (sorted(rows), run.iterations, run.delta_history.get("v", []),
            base_exchange["attrs"]["records"], fixpoint["attrs"])


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("name", ["min", "max", "sum", "count"])
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_base_rules_fold_per_chunk_before_their_exchange(
        name, n, data, ungated_kernels):
    case = data.draw(base_case(name))
    rows, iterations, deltas, records, attrs = run_base_case(
        name, case, n, True)
    (rows_off, iterations_off, deltas_off, _,
     attrs_off) = run_base_case(name, case, n, False)

    assert rows == rows_off
    assert iterations == iterations_off
    if name in ("min", "max"):
        # A chunk's fold keeps one row per group, so the first merge sees
        # no improving duplicate; the state after every merge is the
        # same, only duplicates that improve on one another count twice
        # unfolded.
        assert all(a <= b for a, b in zip(deltas, deltas_off))
        if case[3]:
            assert deltas == deltas_off
    # The base exchange ships one row per group per chunk (the constant
    # rows are one more chunk, the driver's).
    t, u, constants, _ = case
    assert records == (chunk_groups(t, n) + chunk_groups(u, n)
                       + len({k for k, _ in constants}))
    assert attrs["fused_base_rules"] == [2, 2]
    assert attrs_off["fused_base_rules"] == [0, 2]


if __name__ == "__main__":
    PARENT_DUMP.parent.mkdir(exist_ok=True)
    PARENT_DUMP.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(entry, sort_keys=True)}"
        for key, entry in sorted(collect().items())) + "\n}\n")
    print(f"wrote {PARENT_DUMP}")
