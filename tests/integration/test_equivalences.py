"""Property tests: every evaluation mode computes the same fixpoint.

These are the semantic heart of the reproduction: semi-naive ≡ naive ≡
stratified ≡ decomposed ≡ codegen ≡ interpreted, across random graphs —
the equivalences Sections 3 and 6 prove and the engine must preserve.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ExecutionConfig, RaSQLContext
from repro.queries.library import get_query

SETTINGS = settings(max_examples=15, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=14))
    m = draw(st.integers(min_value=1, max_value=35))
    edges = set()
    for _ in range(m):
        a = draw(st.integers(min_value=0, max_value=n - 1))
        b = draw(st.integers(min_value=0, max_value=n - 1))
        if a != b:
            w = draw(st.integers(min_value=1, max_value=9))
            edges.add((a, b, w))
    return sorted(edges)


@st.composite
def dags(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    m = draw(st.integers(min_value=1, max_value=25))
    edges = set()
    for _ in range(m):
        a = draw(st.integers(min_value=0, max_value=n - 1))
        b = draw(st.integers(min_value=0, max_value=n - 1))
        if a < b:
            edges.add((a, b))
    return sorted(edges)


def run_sssp(edges, config):
    ctx = RaSQLContext(config=config)
    ctx.register_table("edge", ["Src", "Dst", "Cost"], edges)
    return sorted(ctx.sql(get_query("sssp").formatted(source=0)).rows)


def run_tc(edges, config):
    ctx = RaSQLContext(config=config)
    ctx.register_table("edge", ["Src", "Dst"], edges)
    return sorted(ctx.sql(get_query("tc").sql).rows)


class TestModeEquivalence:
    @SETTINGS
    @given(weighted_graphs())
    def test_dsn_equals_naive_sssp(self, edges):
        dsn = run_sssp(edges, ExecutionConfig())
        naive = run_sssp(edges, ExecutionConfig(evaluation="naive",
                                                codegen=False))
        assert dsn == naive

    @SETTINGS
    @given(weighted_graphs())
    def test_dsn_equals_stratified_on_dags(self, edges):
        # Orient edges upward so the graph is acyclic: stratified halts.
        edges = sorted({(min(a, b), max(a, b), w) for a, b, w in edges})
        dsn = run_sssp(edges, ExecutionConfig())
        stratified = run_sssp(edges, ExecutionConfig(
            evaluation="stratified", max_iterations=200))
        assert dsn == stratified

    @SETTINGS
    @given(weighted_graphs())
    def test_codegen_equals_interpreted_sssp(self, edges):
        generated = run_sssp(edges, ExecutionConfig(codegen=True))
        interpreted = run_sssp(edges, ExecutionConfig(codegen=False))
        assert generated == interpreted

    @SETTINGS
    @given(dags())
    def test_decomposed_equals_global_tc(self, edges):
        decomposed = run_tc(edges, ExecutionConfig(decomposed_plans=True))
        global_plan = run_tc(edges, ExecutionConfig(decomposed_plans=False))
        assert decomposed == global_plan

    @SETTINGS
    @given(weighted_graphs())
    def test_sort_merge_equals_shuffle_hash(self, edges):
        hash_join = run_sssp(edges, ExecutionConfig(join_strategy="shuffle_hash"))
        merge_join = run_sssp(edges, ExecutionConfig(join_strategy="sort_merge",
                                                     codegen=False))
        assert hash_join == merge_join

    @SETTINGS
    @given(weighted_graphs())
    def test_broadcast_equals_copartition(self, edges):
        broadcast = run_sssp(edges, ExecutionConfig(broadcast_bases=True))
        copartition = run_sssp(edges, ExecutionConfig(broadcast_bases=False))
        assert broadcast == copartition

    @SETTINGS
    @given(weighted_graphs())
    def test_two_stage_equals_combined(self, edges):
        combined = run_sssp(edges, ExecutionConfig(stage_combination=True))
        two_stage = run_sssp(edges, ExecutionConfig(stage_combination=False))
        assert combined == two_stage

    @SETTINGS
    @given(weighted_graphs())
    def test_setrdd_ablation_is_semantically_neutral(self, edges):
        mutable = run_sssp(edges, ExecutionConfig(use_setrdd=True))
        immutable = run_sssp(edges, ExecutionConfig(use_setrdd=False))
        assert mutable == immutable

    @SETTINGS
    @given(weighted_graphs())
    def test_partial_aggregation_is_semantically_neutral(self, edges):
        with_combine = run_sssp(edges, ExecutionConfig(partial_aggregation=True))
        without = run_sssp(edges, ExecutionConfig(partial_aggregation=False))
        assert with_combine == without

    @SETTINGS
    @given(weighted_graphs(), st.integers(min_value=1, max_value=9))
    def test_partition_count_is_semantically_neutral(self, edges, partitions):
        one = run_sssp(edges, ExecutionConfig())
        ctx = RaSQLContext(num_workers=3, num_partitions=partitions)
        ctx.register_table("edge", ["Src", "Dst", "Cost"], edges)
        many = sorted(ctx.sql(get_query("sssp").formatted(source=0)).rows)
        assert one == many


class TestSumEquivalences:
    @SETTINGS
    @given(dags())
    def test_count_paths_codegen_and_partitions(self, edges):
        results = []
        for config, workers in [(ExecutionConfig(codegen=True), 2),
                                (ExecutionConfig(codegen=False), 5)]:
            ctx = RaSQLContext(num_workers=workers, config=config)
            ctx.register_table("edge", ["Src", "Dst"], edges)
            results.append(sorted(
                ctx.sql(get_query("count_paths").formatted(source=0)).rows))
        assert results[0] == results[1]


COUNT_NAMES = """
WITH recursive cnt(Name, count() AS N) AS
  (SELECT friend.Fname, friend.Pname FROM friend)
SELECT Name, N FROM cnt
"""


def run_count_names(friends, evaluation):
    ctx = RaSQLContext(config=ExecutionConfig(evaluation=evaluation))
    ctx.register_table("friend", ["Pname", "Fname"], friends)
    return sorted(ctx.sql(COUNT_NAMES).rows)


class TestStratifiedCount:
    """``count()`` over non-numeric contributions counts facts.  Under
    stratified evaluation the recursion runs without aggregates, so no
    projection normalizes the contribution; the final stratum must (it
    used to concatenate: ``('x', 'ba')``)."""

    def test_counts_names_incl_a_single_contribution_group(self):
        friends = [("a", "x"), ("b", "x"), ("c", "z")]
        assert run_count_names(friends, "dsn") == [("x", 2), ("z", 1)]
        assert run_count_names(friends, "stratified") == [("x", 2), ("z", 1)]

    @SETTINGS
    @given(st.sets(st.tuples(st.sampled_from("abcdef"),
                             st.sampled_from("xyz")), min_size=1))
    def test_dsn_equals_stratified_on_acyclic_count(self, friends):
        friends = sorted(friends)
        dsn = run_count_names(friends, "dsn")
        assert dsn == run_count_names(friends, "stratified")
        expected: dict = {}
        for _, name in friends:
            expected[name] = expected.get(name, 0) + 1
        assert dsn == sorted(expected.items())


MIN_OVER_MIXED_KEYS = """
WITH recursive m(K, min() AS V) AS
  (SELECT K, V FROM t) UNION
  (SELECT e.B, m.V FROM m, e WHERE m.K = e.A)
SELECT K, V FROM m
"""


class TestDictEqualKeysColocate:
    """``-1`` and ``-1.0`` are one group key to a dict, so they must be
    one partition to the shuffle: ``_stable_hash`` used to send ``-1.0``
    to ``(2**64 - 1) % n`` while the int fast path sends ``-1`` to
    ``-1 % n``, splitting the group on three partitions."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_one_min_group_on_any_partition_count(self, workers):
        ctx = RaSQLContext(num_workers=workers)
        ctx.register_table("t", ["K", "V"], [(-1, 5), (-1.0, 3), (7, 1)])
        ctx.register_table("e", ["A", "B"], [(7, -1.0), (7, -1)])
        rows = sorted(ctx.sql(MIN_OVER_MIXED_KEYS).rows)
        assert rows == [(-1.0, 1), (7, 1)]
        assert repr(rows) == "[(-1.0, 1), (7, 1)]"
