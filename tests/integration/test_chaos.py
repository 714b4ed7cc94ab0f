"""Determinism under chaos: every library query x several fault seeds.

Section 6.1's recovery claim, tested exhaustively: whatever faults a
seeded schedule injects (task deaths before/after commit, worker loss
mid-fixpoint), every query of the library must produce the *bit-exact*
result of a fault-free run, with the injected schedule fully accounted
for in the recovery counters and only bounded simulated-time overhead.

Seeds come from ``RASQL_SEEDS`` (``tests/conftest.py``; CI sweeps
several), so a failing ``(query, seed)`` pair is reproducible locally::

    RASQL_SEEDS=29 pytest tests/integration/test_chaos.py -k sssp

This module also owns what every other differential suite shares: the
per-query tables (``QUERY_SETUPS``) and the context factory
:func:`repro.chaos.run_differential` calls for each side.
"""

import random

import pytest

from repro import RaSQLContext
from repro.chaos import make_schedule, run_differential
from repro.engine.backend import ProcessConfig
from repro.queries.library import ALL_QUERIES, get_query
from tests.conftest import seeds

pytestmark = pytest.mark.chaos

SEEDS = seeds("11,29,47")
NUM_WORKERS = 4


def random_graph(n, m, seed, weighted=False, acyclic=False):
    rng = random.Random(seed)
    edges = set()
    while len(edges) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        if acyclic and a > b:
            a, b = b, a
        edges.add((a, b))
    if weighted:
        return [(a, b, rng.randint(1, 10)) for a, b in sorted(edges)]
    return sorted(edges)


def _graph_tables(**kwargs):
    def build():
        return {"edge": (("Src", "Dst") + (("Cost",) if kwargs.get("weighted")
                                           else ()),
                         random_graph(24, 60, seed=5, **kwargs))}
    return build


def _bom_tables():
    assbl = [("car", "engine"), ("car", "wheel"), ("car", "frame"),
             ("engine", "piston"), ("engine", "valve"), ("wheel", "rim"),
             ("frame", "beam"), ("beam", "bolt")]
    basic = [("piston", 3), ("valve", 7), ("rim", 2), ("bolt", 4)]
    return {"assbl": (("Part", "SPart"), assbl),
            "basic": (("Part", "Days"), basic)}


def _mlm_tables():
    sales = [(i, 50.0 * (i + 1)) for i in range(1, 9)]
    sponsor = [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (5, 7), (6, 8)]
    return {"sales": (("M", "P"), sales), "sponsor": (("M1", "M2"), sponsor)}


#: Per-query table builder + query text.  Data shapes respect each
#: query's termination requirements (DAGs for path counting, forests for
#: BOM/MLM, an organizer seed for party attendance).
QUERY_SETUPS = {
    "sssp": (_graph_tables(weighted=True),
             lambda: get_query("sssp").formatted(source=0)),
    "reach": (_graph_tables(),
              lambda: get_query("reach").formatted(source=0)),
    "count_paths": (_graph_tables(acyclic=True),
                    lambda: get_query("count_paths").formatted(source=0)),
    "cc": (_graph_tables(), lambda: get_query("cc").sql),
    "cc_labels": (_graph_tables(), lambda: get_query("cc_labels").sql),
    "tc": (_graph_tables(), lambda: get_query("tc").sql),
    "apsp": (lambda: {"edge": (("Src", "Dst", "Cost"),
                               random_graph(12, 30, seed=5, weighted=True))},
             lambda: get_query("apsp").sql),
    "same_generation": (
        lambda: {"rel": (("Parent", "Child"),
                         [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (4, 7)])},
        lambda: get_query("same_generation").sql),
    "bom": (_bom_tables, lambda: get_query("bom").sql),
    "bom_stratified": (_bom_tables, lambda: get_query("bom_stratified").sql),
    "management": (
        lambda: {"report": (("Emp", "Mgr"),
                            [(2, 1), (3, 1), (4, 2), (5, 2), (6, 4), (7, 6),
                             (8, 3)])},
        lambda: get_query("management").sql),
    "mlm_bonus": (_mlm_tables, lambda: get_query("mlm_bonus").sql),
    "interval_coalesce": (
        lambda: {"inter": (("S", "E"),
                           [(1, 4), (2, 5), (4, 8), (10, 12), (11, 15),
                            (20, 21), (21, 25)])},
        lambda: get_query("interval_coalesce").sql),
    "party_attendance": (
        lambda: {"organizer": (("OrgName",), [("ann",)]),
                 "friend": (("Pname", "Fname"),
                            [("ann", "bob"), ("ann", "cat"), ("ann", "dan"),
                             ("bob", "cat"), ("cat", "dan"), ("bob", "eve"),
                             ("cat", "eve"), ("dan", "eve")])},
        lambda: get_query("party_attendance").sql),
    "company_control": (
        lambda: {"shares": (("By", "Of", "Percent"),
                            [("a", "b", 60), ("b", "c", 30), ("a", "c", 30),
                             ("c", "d", 51), ("b", "e", 20), ("c", "e", 40)])},
        lambda: get_query("company_control").sql),
}


def test_every_library_query_is_covered():
    assert set(QUERY_SETUPS) == {q.name for q in ALL_QUERIES}


#: Tight supervision constants so process-backend fault tests run in
#: seconds: a worker silent for 1s is reaped.
FAST_SUPERVISION = ProcessConfig(liveness_timeout=1.0, task_deadline_s=20.0)


def make_context_factory(query_name, tables=None, warm=False, **fixed):
    """``make_context`` of a differential over ``query_name``'s tables (or
    ``tables()``): each side's keywords (``config=``, ``memory_config=``,
    ...) go to :class:`RaSQLContext` on top of the ``fixed`` ones.  A
    ``warm`` context has run the query once already (under another
    checkpoint id, so a victim's manifest is left alone): the compared
    run finds every base side in the ``BaseSideCache``."""
    build_tables, make_query = QUERY_SETUPS[query_name]
    fixed = {"num_workers": NUM_WORKERS, "process_config": FAST_SUPERVISION,
             **fixed}

    def factory(**side):
        ctx = RaSQLContext(**{**fixed, **side})
        for name, (columns, rows) in (tables or build_tables)().items():
            ctx.register_table(name, columns, rows)
        if warm:
            ctx.sql(make_query(), query_id="warm-up")
        return ctx

    return factory


def differential(query_name, *, oracle=None, subject=None, faults=(),
                 resume=False, **factory):
    """:func:`run_differential` of a library query over a
    :func:`make_context_factory` of the remaining keywords."""
    return run_differential(
        QUERY_SETUPS[query_name][1](),
        make_context_factory(query_name, **factory),
        oracle=oracle, subject=subject, faults=faults, resume=resume)


def base_sides(report):
    """``(reused, built or grown)`` base sides of the subject's fixpoints."""
    from repro.engine.tracing import _find_dict

    sides = [span["attrs"]["base_sides"]
             for span in _find_dict(report.trace, "fixpoint")]
    return (sum(s["hits"] for s in sides),
            sum(s["built"] + s["appended"] for s in sides))


@pytest.mark.timeout(120)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("query_name", sorted(QUERY_SETUPS))
def test_query_deterministic_under_chaos(query_name, seed):
    schedule = make_schedule(seed, num_workers=NUM_WORKERS)
    report = differential(query_name, faults=schedule.injectors)
    assert report.exact, (
        f"{query_name} diverged under {schedule.describe()}: "
        f"{report.summary()}")
    # ... in every iteration, not only at the end.
    assert (report.subject_run.delta_history
            == report.oracle_run.delta_history)

    # The injected schedule is fully accounted for in the counters.
    fired = schedule.fired()
    assert report.counters["task_failures"] == fired["task"]
    assert report.counters["workers_lost"] == fired["worker-loss"]
    if fired["task"] or fired["worker-loss"]:
        assert report.counters["recovery_seconds"] > 0

    # Recovery overhead is bounded: replaying the current stage from
    # cached state must not balloon the run (loose bound — small graphs
    # have tiny baselines, so allow a constant term too).
    assert (report.subject_run.sim_time
            <= report.oracle_run.sim_time * 10 + 5.0)


@pytest.mark.timeout(120)
@pytest.mark.parametrize("query_name", ["sssp", "tc", "count_paths"])
def test_warm_base_side_cache_is_exact_under_chaos(query_name):
    """Composition: a fault schedule over sides an earlier query built."""
    report = differential(
        query_name, warm=True,
        faults=make_schedule(SEEDS[0], num_workers=NUM_WORKERS).injectors)
    assert report.exact and report.fired, report.summary()
    reused, built = base_sides(report)
    assert reused and not built


@pytest.mark.timeout(120)
@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_run_is_reproducible(seed):
    """Same (query, seed) twice -> the identical fault schedule fires.

    Only the *discrete* counters are compared exactly: the simulated
    clock folds in measured task CPU time, which jitters between runs.
    """
    def run():
        schedule = make_schedule(seed, num_workers=NUM_WORKERS)
        report = differential("sssp", faults=schedule.injectors)
        assert report.exact
        return schedule.describe(), {
            k: v for k, v in report.subject_run.fault_summary().items()
            if k != "recovery_seconds"}

    assert run() == run()
