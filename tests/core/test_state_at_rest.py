"""Aggregate state at rest is the view's own head row (DESIGN.md §18).

Pins on the keyed-state invariant, the other half of
``test_rows_at_rest.py``'s:

- *shape and identity*: for every library query under every execution
  axis, every value of a keyed-state partition is a tuple of the view's
  arity whose group columns equal its key; ``state_rows(view, p)`` yields
  those same objects; a ``min``/``max`` fresh delta row **is** the stored
  row.  Checked after every merge and when the result is read, and again
  after ``IncrementalView.insert``, after a checkpoint resume, and on the
  driver once a process-backend run has collected its workers' state.
  Set views answer the same calls, so nothing here asks which class a
  state is.
- *one merge, one fold*: the specialised loops agree with the generic
  ``AggregateFunction`` dispatch — state dict equal *including insertion
  order*, fresh list equal — for min/max/sum/count over four head layouts
  with duplicates, ties, zeros and negative values; custom clones and
  multi-aggregate heads take the generic loops and keep their hooks.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionConfig
from repro.core.checkpoint import make_query_id
from repro.core.fixpoint import FixpointOperator
from repro.core.iteration import CliqueStep
from repro.core.streaming import IncrementalView
from repro.engine import aggregates as reference
from repro.engine.aggregates import BY_NAME
from repro.engine.backend import ProcessConfig
from repro.engine.faults import DriverKillInjector
from repro.engine.kernels import make_extractor, make_fold_kernel
from repro.engine.setrdd import KeyedStateRDD
from repro.errors import DriverCrashError
from tests.engine.test_kernels import LAYOUTS
from tests.integration.test_chaos import QUERY_SETUPS, make_context_factory

CONFIGS = {
    "default": ExecutionConfig(),
    "kernels_off": ExecutionConfig(kernels=False),
    "codegen_off": ExecutionConfig(codegen=False),
    "partial_aggregation_off": ExecutionConfig(partial_aggregation=False),
    "two_stage": ExecutionConfig(stage_combination=False),
    "stacked": ExecutionConfig(decomposed_plans=False),
}


def assert_state_at_rest(step: CliqueStep, arities: dict[str, int]) -> int:
    """Every state of ``step`` holds the view's own rows; returns how many
    keyed groups were checked."""
    groups = 0
    for name, view in step.views.items():
        state = step.states[name]
        for p in range(step.n):
            rows = step.state_rows(name, p)
            own = state.partition_rows(p)
            assert len(rows) == len(own) == len(state.partitions[p])
            assert all(a is b for a, b in zip(rows, own))
            assert all(type(row) is tuple and len(row) == arities[name]
                       for row in rows)
            if not view.has_aggregates:
                continue
            key_of = make_extractor(view.group_positions)
            for (key, stored), row in zip(state.partitions[p].items(), rows):
                assert row is stored
                assert key_of(stored) == key
                assert step.state_total(name, p, key) is stored
            groups += len(rows)
        assert sum(map(len, state.partitions)) == len(step.state_rows(name, -1))
    return groups


def assert_fresh_rows(step: CliqueStep, partition: int) -> None:
    """The delta one merge left behind: head rows; for a ``min``/``max``
    view the (last) fresh row of a group is the row now stored for it."""
    for name, view in step.views.items():
        if not view.has_aggregates:
            continue
        state = step.states[name]
        fresh = step.fresh[name][partition]
        latest = {state.key_of(row): row for row in fresh}
        assert set(latest) <= set(state.partitions[partition])
        if {fn.name for fn in view.aggregate_functions} <= {"min", "max"}:
            for key, row in latest.items():
                assert state.partitions[partition][key] is row


@pytest.fixture
def checked(monkeypatch):
    """Check every merge as it happens and every state when its result is
    read; yields ``(aggregate views, keyed groups checked)`` per read."""
    seen = []
    merge = CliqueStep.merge
    relations = FixpointOperator.relations

    def checked_merge(self, partition, rows_by_view):
        d_by_view = merge(self, partition, rows_by_view)
        assert_fresh_rows(self, partition)
        return d_by_view

    def checked_relations(self):
        arities = {name: len(view.plan.columns)
                   for name, view in self.planned.views.items()}
        keyed = sum(view.has_aggregates
                    for view in self.planned.views.values())
        seen.append((keyed, assert_state_at_rest(self.step, arities)))
        return relations(self)

    monkeypatch.setattr(CliqueStep, "merge", checked_merge)
    monkeypatch.setattr(FixpointOperator, "relations", checked_relations)
    return seen


def make_context(query_name, config, num_workers=3, **kwargs):
    factory = make_context_factory(query_name, num_workers=num_workers,
                                   **kwargs)
    return factory(config=config), QUERY_SETUPS[query_name][1]()


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("query_name", sorted(QUERY_SETUPS))
def test_states_hold_the_views_own_rows(query_name, config_name, checked,
                                        ungated_kernels):
    ctx, query = make_context(query_name, CONFIGS[config_name])
    ctx.sql(query)
    assert checked  # every clique's state was read through the check
    for keyed, groups in checked:  # ... and no aggregate view was empty
        assert (groups > 0) == (keyed > 0)
    aggregating = sum(keyed > 0 for keyed, _ in checked)
    assert aggregating or query_name in (
        "bom_stratified", "reach", "same_generation", "tc")


@pytest.mark.parametrize("query_name, table, new_rows", [
    ("sssp", "edge", [(0, 23, 1), (23, 7, 2)]),
    ("cc", "edge", [(24, 25), (25, 0)]),
    ("count_paths", "edge", [(0, 23), (3, 23)]),
    ("party_attendance", "friend", [("eve", "fay"), ("dan", "fay"),
                                    ("cat", "fay")]),
])
def test_states_after_incremental_insert(query_name, table, new_rows,
                                         checked, ungated_kernels):
    ctx, query = make_context(query_name, ExecutionConfig())
    view = IncrementalView(ctx, query)
    before = len(checked)
    view.insert(table, new_rows)
    view.operator.relations()
    assert len(checked) > before and checked[-1][1] > 0


def test_states_after_checkpoint_resume(tmp_path, checked):
    ctx, query = make_context("sssp", ExecutionConfig())
    cfg = ctx.config.but(checkpoint_interval=1, checkpoint_dir=str(tmp_path))
    ctx.inject_faults(DriverKillInjector("fixpoint", skip_matches=4))
    with pytest.raises(DriverCrashError):
        ctx.sql(query, config=cfg)
    del checked[:]

    resumer, _ = make_context("sssp", ExecutionConfig())
    resumed = resumer.resume(make_query_id(query),
                             checkpoint_dir=str(tmp_path))
    assert resumer.last_run.resumed_from > 0
    assert checked and checked[-1][1] > 0
    clean, _ = make_context("sssp", ExecutionConfig())
    assert sorted(resumed.rows) == sorted(clean.sql(query).rows)


@pytest.mark.process_backend
@pytest.mark.timeout(120)
def test_collected_worker_state_on_the_driver(checked):
    """``collect_remote_states`` installs what the workers' merges built:
    the same ``{group key: head row}`` partitions."""
    ctx, query = make_context(
        "sssp", ExecutionConfig(backend="process"), num_workers=2,
        process_config=ProcessConfig(liveness_timeout=5.0,
                                     task_deadline_s=60.0))
    try:
        result = ctx.sql(query)
        run = ctx.last_run
    finally:
        ctx.close()
    assert run.metrics.get("process_tasks_shipped", 0) > 0
    assert checked and checked[-1][1] > 0
    simulated, _ = make_context("sssp", ExecutionConfig())
    assert sorted(result.rows) == sorted(simulated.sql(query).rows)


# ----------------------------------------------------------------------
# one merge and one fold per aggregate
# ----------------------------------------------------------------------

@st.composite
def head_rows(draw, group, position):
    """Head rows over few groups with small values: duplicates, ties,
    zeros and negatives are the common case, not the corner."""
    arity = len(group) + 1
    count = draw(st.integers(min_value=0, max_value=40))
    rows = []
    for _ in range(count):
        row = [draw(st.integers(min_value=0, max_value=2))
               for _ in range(arity)]
        row[position] = draw(st.sampled_from([-3, -1, 0, 0, 1, 2, 2, 5]))
        rows.append(tuple(row))
    return rows


@pytest.mark.parametrize("group, position", LAYOUTS)
@pytest.mark.parametrize("name", ["min", "max", "sum", "count"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_specialised_loops_match_generic_dispatch(name, group, position,
                                                  data):
    aggregates = (BY_NAME[name],)
    layout = dict(group_positions=group, aggregate_positions=(position,))
    fast = KeyedStateRDD(1, aggregates, use_kernels=True, **layout)
    generic = KeyedStateRDD(1, aggregates, use_kernels=False, **layout)
    fold_into, emit = make_fold_kernel(aggregates, group, (position,))
    assert fast._merge._generated_source and fold_into._generated_source
    assert generic._merge.func is reference.merge_rows
    assert generic.fold.func is reference.partial_aggregate
    for _ in range(3):  # later batches meet a populated state
        rows = data.draw(head_rows(group, position))
        assert emit(fold_into({}, rows)) == [generic.fold(rows)]
        assert fast.merge_rows(0, rows) == generic.merge_rows(0, rows)
        assert fast.partitions[0] == generic.partitions[0]
        assert list(fast.partitions[0]) == list(generic.partitions[0])
    assert fast.versions == generic.versions


def test_custom_clone_and_two_aggregate_head_take_the_generic_loops():
    tagged = dataclasses.replace(
        BY_NAME["min"], delta_for_insert=lambda v: ("ins", v))
    clone = KeyedStateRDD(1, (tagged,))
    assert clone._merge.func is reference.merge_rows
    assert clone.fold.func is reference.partial_aggregate
    assert clone.merge_rows(0, [("a", 7), ("a", 9), ("a", 3)]) == \
        [("a", ("ins", 7)), ("a", 3)]
    assert clone.partitions[0] == {"a": ("a", 3)}

    both = (tagged, BY_NAME["sum"])
    head = KeyedStateRDD(1, both, group_positions=(1,),
                         aggregate_positions=(0, 2))
    assert head._merge.func is reference.merge_rows
    assert head.merge_rows(0, [(5, "k", 1), (9, "k", 2), (4, "k", 0)]) == \
        [(("ins", 5), "k", 1), (5, "k", 2), (4, "k", 0)]
    assert head.partitions[0] == {"k": (4, "k", 3)}
    assert head.fold([(5, "k", 1), (9, "k", 2), (4, "j", 0)]) == \
        [(5, "k", 3), (4, "j", 0)]
