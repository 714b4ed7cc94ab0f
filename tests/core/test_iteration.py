"""The driver≡worker argument, checked in-process.

``CliqueStep`` is the one implementation of the per-partition iteration
step.  The driver builds it from the planner's ``PhysicalView`` /
``CompiledTerm`` objects; a pool worker builds it from the pickled wire
spec (``WireView`` + generated term *source*, recompiled).  These tests
build both for the same clique, drive them through the same rounds of
``merge``/``derive`` without any cluster or process pool in between, and
require identical fresh deltas, shuffle buckets, state and state-table
cache traffic — so a worker's round is the oracle's round by
construction, not by a differential over spawned processes.
"""

import pytest

from repro import RaSQLContext
from repro.core.analyzer import analyze
from repro.core.config import ExecutionConfig
from repro.core.fixpoint import FixpointOperator
from repro.core.iteration import CliqueStep
from repro.core.optimizer import optimize
from repro.core.parser import parse
from repro.core.planner import plan_clique
from repro.engine.backend.payloads import (HeavyHalf, build_install_spec,
                                           split_install_spec)
from repro.engine.backend.worker import WorkerSession
from repro.engine.serialization import dump_payload, load_payload
from repro.queries.library import get_query

#: Enough rounds for a grown SetRDD partition to be re-probed, i.e. for
#: the state-table cache's incremental-update path to fire.
ROUNDS = 5
CYCLE = [(i, (i + 1) % 9) for i in range(9)] + [(0, 4), (2, 7), (5, 1)]

#: Two set views that each join the other's all-relation on its
#: partition key: aligned SetRDD state joins, so the cache sees hits,
#: misses *and* append-only updates.
MUTUAL_REACH = """
WITH recursive a(X) AS
  (SELECT Src FROM seeds) UNION
  (SELECT edge.Dst FROM a, b, edge WHERE a.X = b.X AND a.X = edge.Src),
recursive b(X) AS
  (SELECT Src FROM seeds) UNION
  (SELECT edge.Dst FROM b, a, edge WHERE b.X = a.X AND b.X = edge.Src)
SELECT X FROM a
"""

CASES = {
    # name: (tables, sql, state-table cache outcomes that must occur)
    "cc": ({"edge": (("Src", "Dst"), CYCLE)},
           get_query("cc_labels").sql, ()),
    "sssp": ({"edge": (("Src", "Dst", "Cost"),
                       [(s, d, 1.0 + (s * 7 + d) % 5) for s, d in CYCLE])},
             get_query("sssp").formatted(source=0), ()),
    "tc_stacked": ({"edge": (("Src", "Dst"), CYCLE)},
                   get_query("tc").sql, ()),
    "company_control": (
        {"shares": (("By", "Of", "Percent"),
                    [("a", "b", 60), ("b", "c", 30), ("a", "c", 30),
                     ("c", "d", 51), ("b", "e", 20), ("c", "e", 40)])},
        get_query("company_control").sql, ("misses",)),
    "mutual_reach": ({"edge": (("Src", "Dst"), CYCLE),
                      "seeds": (("Src",), [(0,), (3,)])},
                     MUTUAL_REACH, ("hits", "updates", "misses")),
}


def _set_up_operator(tables, sql) -> FixpointOperator:
    """A driver-side operator with its base join sides built — the state
    ``FixpointOperator.execute`` is in when it installs a remote session."""
    ctx = RaSQLContext(num_workers=3)
    for name, (columns, rows) in tables.items():
        ctx.register_table(name, columns, rows)
    config = ExecutionConfig(decomposed_plans=False)  # kernels + codegen on
    clique, = optimize(analyze(parse(sql), ctx.catalog)).cliques()
    operator = FixpointOperator(plan_clique(clique, config), ctx.cluster,
                                config, ctx.catalog.get)
    operator._setup_base_relations()
    return operator


def _wire_step(operator) -> CliqueStep:
    """The step a pool worker would build: every byte through pickle,
    every partition's base sides decoded (each round runs them all)."""
    light, heavy, _ = split_install_spec(build_install_spec(operator, "s1"))
    half = HeavyHalf(heavy)
    for partition in range(operator.n):
        half.decode(partition)
    return WorkerSession(load_payload(dump_payload(light)), half).step


def _round(step: CliqueStep, incoming):
    """One global iteration over all partitions: merge, derive, and
    regroup the buckets into the next round's incoming rows."""
    outputs = []
    next_incoming = [{} for _ in range(step.n)]
    for p in range(step.n):
        d_by_view = step.merge(p, incoming[p])
        buckets = step.derive(p)
        outputs.append((d_by_view,
                        {name: list(step.fresh[name][p])
                         for name in step.states},
                        buckets))
        for name, by_target in buckets.items():
            for target, rows in by_target.items():
                next_incoming[target].setdefault(name, []).extend(rows)
    return outputs, next_incoming


@pytest.mark.parametrize("case", sorted(CASES))
def test_driver_and_wire_steps_agree(case):
    tables, sql, cache_outcomes = CASES[case]
    operator = _set_up_operator(tables, sql)
    driver_step, wire_step = operator.step, _wire_step(operator)
    assert wire_step is not driver_step
    assert type(wire_step) is type(driver_step)

    base = operator._evaluate_base_rules()
    incoming = [{name: list(dataset.partitions[p].rows)
                 for name, dataset in base.items()}
                for p in range(operator.n)]
    assert any(rows for by_view in incoming for rows in by_view.values())

    driver_in = wire_in = incoming
    derived_something = False
    for _ in range(ROUNDS):
        driver_out, driver_in = _round(driver_step, driver_in)
        wire_out, wire_in = _round(wire_step, wire_in)
        assert driver_out == wire_out      # |D|, fresh deltas, buckets
        assert driver_in == wire_in
        assert driver_step.cache_counts == wire_step.cache_counts
        derived_something |= any(buckets for _, _, buckets in driver_out)
    assert derived_something

    for name, state in driver_step.states.items():
        assert state.partitions == wire_step.states[name].partitions
        assert state.versions == wire_step.states[name].versions
    occurred = {name.rsplit("_", 1)[1]
                for name, count in driver_step.cache_counts.items() if count}
    assert occurred >= set(cache_outcomes)
    assert "bypass" not in occurred    # gather joins never ship
    if not cache_outcomes:
        assert not occurred
