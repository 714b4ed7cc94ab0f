"""Unit tests for whole-pipeline code generation (Section 7.3)."""

import pytest

from repro.core.analyzer import analyze
from repro.core.catalog import Catalog
from repro.core.codegen import generate_term_function
from repro.core.config import ExecutionConfig
from repro.core.optimizer import optimize
from repro.core.parser import parse
from repro.core.planner import plan_clique
from repro.queries.library import ALL_QUERIES, get_query


def planned(name, config=None, **params):
    spec = get_query(name)
    catalog = Catalog()
    for table, columns in spec.tables.items():
        catalog.register(table, columns)
    script = optimize(analyze(parse(spec.formatted(**params)), catalog))
    return plan_clique(script.cliques()[0],
                       config or ExecutionConfig(codegen=False))


class TestGeneration:
    def test_sssp_term_generates(self):
        plan = planned("sssp", source=1)
        term = plan.terms[0]
        fn = generate_term_function(term, plan.views[term.view].aggregates)
        assert fn is not None
        source = fn._generated_source
        assert "def _term" in source
        assert "base_partitions" in source

    def test_generated_source_is_fused(self):
        """One function, no intermediate list per step: the join, filter
        and projection all appear inside the delta loop."""
        plan = planned("sssp", source=1)
        term = plan.terms[0]
        fn = generate_term_function(term, plan.views[term.view].aggregates)
        source = fn._generated_source
        assert source.count("def ") == 1
        assert "_append((" in source

    def test_sort_merge_not_fused(self):
        plan = planned("sssp", ExecutionConfig(join_strategy="sort_merge",
                                               codegen=False), source=1)
        term = plan.terms[0]
        fn = generate_term_function(term, plan.views[term.view].aggregates)
        assert fn is None

    @pytest.mark.parametrize("spec", ALL_QUERIES, ids=lambda s: s.name)
    def test_full_corpus_coverage(self, spec):
        """Every recursive term of every library query must fuse."""
        catalog = Catalog()
        for table, columns in spec.tables.items():
            catalog.register(table, columns)
        script = optimize(analyze(parse(spec.formatted(source=1)), catalog))
        for clique in script.cliques():
            plan = plan_clique(clique, ExecutionConfig(codegen=True))
            for term in plan.terms:
                assert term.codegen_fn is not None, spec.name


class TestEquivalence:
    """Generated code must equal the interpreted pipeline — checked on
    whole-query outputs in tests/integration/test_equivalences.py; here we
    check single-term outputs directly."""

    def test_term_outputs_match(self):
        from repro.core.physical import TermRuntime, build_base_side

        plan = planned("sssp", source=1)
        term = plan.terms[0]
        fn = generate_term_function(term, plan.views[term.view].aggregates)

        edges = [(1, 2, 5.0), (2, 3, 1.0), (1, 3, 9.0)]
        base_plan = plan.base_plans[0]
        _, (table,) = build_base_side(base_plan, edges)
        assert all(row is edge for edge in edges
                   for row in table[edge[0]] if row == edge)

        runtime = TermRuntime()
        runtime.base_partitions[base_plan.step_id] = [table]

        delta = [(1, 0.0), (2, 5.0)]
        interpreted = sorted(term.evaluate(delta, 0, runtime))
        generated = sorted(fn(delta, 0, runtime))
        assert interpreted == generated
        # (1,0)⋈(1,2,5) -> (2,5); (1,0)⋈(1,3,9) -> (3,9); (2,5)⋈(2,3,1) -> (3,6)
        assert interpreted == [(2, 5.0), (3, 6.0), (3, 9.0)]


class TestSelfDescribingPlan:
    """Codegen reads the planner's decisions off the steps; shapes the
    old recovery heuristics gave up on (a filter next to a nested loop)
    now fuse, and must agree with the interpreted pipeline."""

    #: Interval Coalesce's theta rule plus one delta-only conjunct.
    THETA_PLUS_RESIDUAL = get_query("interval_coalesce").sql.replace(
        "inter.S <= coal.E", "inter.S <= coal.E AND coal.S + coal.E > 3")

    def test_steps_carry_their_ast_and_segments(self):
        from repro.core.physical import (FilterStep, HashJoinStep,
                                         NestedLoopStep)
        catalog = Catalog()
        catalog.register("inter", ("S", "E"))
        script = optimize(analyze(parse(self.THETA_PLUS_RESIDUAL), catalog))
        (term,) = plan_clique(script.cliques()[0], ExecutionConfig()).terms
        filter_step, loop = term.steps
        assert isinstance(filter_step, FilterStep)
        assert filter_step.expr.to_sql() == filter_step.sql
        assert isinstance(loop, NestedLoopStep)
        assert [c.to_sql() for c in loop.conjuncts] == [
            "(coal.S <= inter.S)", "(inter.S <= coal.E)"]
        assert loop.segment == (2, 2)
        assert (term.delta_offset, term.delta_arity) == (0, 2)
        assert term.codegen_fn is not None

        sssp = planned("sssp", ExecutionConfig(), source=1).terms[0]
        (join,) = sssp.steps
        assert isinstance(join, HashJoinStep)
        assert join.build_segment == (2, 3)

    @pytest.mark.parametrize("intervals, filter_bites", [
        ([(1, 4), (2, 5), (4, 8), (10, 12), (11, 15), (20, 21)], False),
        # coal rows (0, 1), (0, 2) fail ``S + E > 3`` and stop extending
        ([(0, 1), (1, 2), (0, 2), (2, 6), (5, 9), (1, 1)], True),
    ], ids=["filter-passes-all", "filter-rejects-some"])
    def test_theta_plus_residual_codegen_equals_interpreted(self, intervals,
                                                            filter_bites):
        from repro import RaSQLContext

        def run(codegen, sql):
            ctx = RaSQLContext(num_workers=2,
                               config=ExecutionConfig(codegen=codegen))
            ctx.register_table("inter", ["S", "E"], intervals)
            rows = sorted(ctx.sql(sql).rows)
            return rows, ctx.last_run.iterations

        fused = run(True, self.THETA_PLUS_RESIDUAL)
        assert fused == run(False, self.THETA_PLUS_RESIDUAL)
        unfiltered = run(True, get_query("interval_coalesce").sql)
        assert (fused[0] != unfiltered[0]) == filter_bites

    def test_two_nested_loops_codegen_equals_interpreted(self):
        """Each nested loop emits exactly the conjuncts it consumed (the
        old recovery assumed a single loop had consumed them all)."""
        from repro import RaSQLContext
        sql = """
        WITH recursive hop(X) AS
          (SELECT 1) UNION
          (SELECT b.V FROM hop, num a, num b
           WHERE hop.X < a.V AND a.V < b.V AND b.V <= hop.X + 3)
        SELECT X FROM hop
        """

        def run(codegen):
            ctx = RaSQLContext(num_workers=2,
                               config=ExecutionConfig(codegen=codegen))
            ctx.register_table("num", ["V"], [(v,) for v in range(1, 12)])
            rows = sorted(ctx.sql(sql).rows)
            return rows, ctx.last_run.iterations

        catalog = Catalog()
        catalog.register("num", ("V",))
        script = optimize(analyze(parse(sql), catalog))
        (term,) = plan_clique(script.cliques()[0], ExecutionConfig()).terms
        assert [s.describe() for s in term.steps] == [
            "NestedLoopJoin", "NestedLoopJoin"]
        assert [len(s.conjuncts) for s in term.steps] == [1, 2]
        assert term.codegen_fn is not None
        rows, iterations = run(True)
        assert (rows, iterations) == run(False)
        assert rows == [(v,) for v in (1, *range(3, 12))]
