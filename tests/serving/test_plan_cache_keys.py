"""Stale-plan keying audit for :meth:`PlanCache.key`.

``PlanCache`` folds only ``config.magic_filters`` into its key.  That is
correct exactly as long as ``magic_filters`` is the *only* config knob
that changes the output of :meth:`RaSQLContext.analyze_query` (parse →
analyze → optimize) — every other knob is consumed later, by physical
planning and execution.  This suite proves the invariant differentially:
it flips **every** ``ExecutionConfig`` field, renders the analyzed
script both ways, and asserts

- a knob that changes the analyzed plan must change the cache key
  (otherwise a cached plan would be served stale — the bug class), and
- the key must not over-discriminate on knobs that don't (that would
  silently halve the hit rate).

The flip-value table is exhaustive by construction: a new config field
without an entry fails the suite immediately, forcing the author to
decide whether it belongs in the key.
"""

import dataclasses

import pytest

from repro import ExecutionConfig, RaSQLContext
from repro.serving.cache import PlanCache

pytestmark = pytest.mark.serving

#: One non-default value per field.  ``None`` entries are not allowed —
#: every field must be flippable, so additions to ExecutionConfig are
#: forced through this audit.
FLIP_VALUES = {
    "evaluation": "naive",
    "stage_combination": False,
    "join_strategy": "sort_merge",
    "broadcast_bases": True,
    "broadcast_compression": False,
    "decomposed_plans": False,
    "codegen": False,
    "partial_aggregation": False,
    "use_setrdd": False,
    "magic_filters": False,
    "max_iterations": 7,
    "deadline_seconds": 123.0,
    "checkpoint_interval": 4,
    "checkpoint_dir": "/tmp/rasql-plan-key-audit",
    "backend": "process",
}

#: A query whose analyzed plan is magic_filters-sensitive: the final
#: SELECT's equality constant is pushed into the recursion's base rules,
#: so flipping the knob visibly changes ``analyzed.explain()``.
QUERY = """
WITH recursive tc(Src, Dst) AS
  (SELECT Src, Dst FROM edge) UNION
  (SELECT tc.Src, edge.Dst FROM tc, edge
   WHERE tc.Dst = edge.Src)
SELECT Src, Dst FROM tc WHERE Src = 0
"""


def make_context():
    ctx = RaSQLContext(num_workers=2)
    ctx.register_table("edge", ["Src", "Dst"],
                       [(0, 1), (1, 2), (2, 3), (3, 1)])
    return ctx


def field_names():
    return [f.name for f in dataclasses.fields(ExecutionConfig)]


def test_flip_table_covers_every_config_field():
    assert sorted(FLIP_VALUES) == sorted(field_names()), (
        "ExecutionConfig grew a field without a FLIP_VALUES entry; add "
        "one and decide whether PlanCache.key must include the new knob")


def test_every_flip_value_actually_flips():
    base = ExecutionConfig()
    for name, value in FLIP_VALUES.items():
        assert getattr(base, name) != value, (
            f"FLIP_VALUES[{name!r}] equals the default; the flip is a "
            f"no-op and the audit would vacuously pass")
        base.but(**{name: value})  # must also be a *valid* value


@pytest.mark.parametrize("field_name", sorted(FLIP_VALUES))
def test_no_config_knob_leaks_through_plan_cache_key(field_name):
    """If flipping the knob changes the analyzed plan, the key must
    change; a cached script analyzed under the old knob would otherwise
    be served — and executed — for the new one."""
    ctx = make_context()
    cache = PlanCache()
    base = ExecutionConfig()
    flipped = base.but(**{field_name: FLIP_VALUES[field_name]})

    plan_base = ctx.analyze_query(QUERY, base).explain()
    plan_flipped = ctx.analyze_query(QUERY, flipped).explain()

    key_base = cache.key(QUERY, ctx.catalog, base)
    key_flipped = cache.key(QUERY, ctx.catalog, flipped)
    if plan_base != plan_flipped:
        assert key_base != key_flipped, (
            f"{field_name} changes the analyzed plan but not the "
            f"PlanCache key: a stale plan would be served")
    else:
        assert key_base == key_flipped, (
            f"{field_name} does not affect the analyzed plan; keying on "
            f"it needlessly fragments the cache")


def test_magic_filters_is_the_knob_that_matters():
    """The documented status quo, pinned: magic_filters is (today) the
    only knob that reaches analyze/optimize output."""
    ctx = make_context()
    base = ExecutionConfig()
    sensitive = [name for name in sorted(FLIP_VALUES)
                 if ctx.analyze_query(QUERY, base).explain()
                 != ctx.analyze_query(
                     QUERY, base.but(**{name: FLIP_VALUES[name]})).explain()]
    assert sensitive == ["magic_filters"]


def test_magic_filter_pushdown_visibly_changes_this_plan():
    """Guards the audit's sensitivity: if this query ever stops being
    magic_filters-sensitive, the leak test above would trivially pass
    for the one knob it exists to check."""
    ctx = make_context()
    on = ctx.analyze_query(QUERY, ExecutionConfig()).explain()
    off = ctx.analyze_query(
        QUERY, ExecutionConfig(magic_filters=False)).explain()
    assert on != off
