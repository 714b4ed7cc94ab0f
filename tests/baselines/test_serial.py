"""Unit tests for the single-threaded reference algorithms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import serial


@st.composite
def graphs(draw, weighted=False):
    n = draw(st.integers(min_value=2, max_value=20))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=60))
    edges = sorted({(a, b) for a, b in pairs if a != b})
    if weighted:
        return [(a, b, (a * 7 + b) % 9 + 1) for a, b in edges]
    return edges


class TestOutOfCachePenalty:
    def test_no_penalty_while_the_graph_fits_in_cache(self):
        assert serial.out_of_cache_penalty(0) == 1.0
        assert serial.out_of_cache_penalty(10_000_000) == 1.0

    def test_grows_logarithmically_to_8x(self):
        # 150x the 10M-edge knee is the full log-scale growth
        assert serial.out_of_cache_penalty(1_500_000_000) \
            == pytest.approx(8.0)
        assert serial.out_of_cache_penalty(10_000_000 * 150 ** 0.5) \
            == pytest.approx(4.5)

    def test_capped_and_monotone(self):
        counts = [10_000_001, 10 ** 8, 10 ** 9, 1_468_365_182, 10 ** 11]
        penalties = [serial.out_of_cache_penalty(c) for c in counts]
        assert penalties == sorted(penalties)
        assert 1.0 < penalties[0] and penalties[-1] == 8.0


class TestReach:
    def test_chain(self):
        assert serial.reach([(1, 2), (2, 3)], 1) == {1, 2, 3}

    def test_unreachable(self):
        assert serial.reach([(1, 2), (5, 6)], 1) == {1, 2}

    def test_cycle(self):
        assert serial.reach([(1, 2), (2, 1)], 1) == {1, 2}


class TestSSSP:
    def test_picks_cheaper_path(self):
        edges = [(1, 2, 1), (2, 3, 1), (1, 3, 5)]
        assert serial.sssp(edges, 1)[3] == 2

    @settings(max_examples=25, deadline=None)
    @given(graphs(weighted=True))
    def test_matches_networkx(self, edges):
        import networkx as nx

        g = nx.DiGraph()
        g.add_weighted_edges_from(edges)
        if 0 not in g:
            g.add_node(0)
        expected = nx.single_source_dijkstra_path_length(g, 0)
        assert serial.sssp(edges, 0) == expected


class TestComponents:
    def test_directed_label_propagation(self):
        # 3 -> 1: label 1 reaches nothing upstream.
        labels = serial.connected_components([(3, 1), (1, 2)])
        assert labels == {3: 3, 1: 1, 2: 1}

    @settings(max_examples=25, deadline=None)
    @given(graphs())
    def test_undirected_matches_networkx(self, edges):
        import networkx as nx

        g = nx.Graph()
        g.add_edges_from(edges)
        expected = {}
        for component in nx.connected_components(g):
            label = min(component)
            for node in component:
                expected[node] = label
        assert serial.undirected_components(edges) == expected


class TestTransitiveClosure:
    @settings(max_examples=25, deadline=None)
    @given(graphs())
    def test_matches_networkx(self, edges):
        import networkx as nx

        g = nx.DiGraph()
        g.add_edges_from(edges)
        expected = set()
        for node in g:
            for target in nx.descendants(g, node):
                expected.add((node, target))
            if g.has_edge(node, node):
                expected.add((node, node))
        # nx.descendants excludes self unless reachable via cycle; handle
        # cycles: a node reaching itself through a cycle.
        for node in g:
            if any(node in nx.descendants(g, s)
                   for s in g.successors(node)) or g.has_edge(node, node):
                expected.add((node, node))
        assert serial.transitive_closure(edges) == expected


class TestCountPaths:
    def test_diamond(self):
        edges = [(1, 2), (1, 3), (2, 4), (3, 4)]
        assert serial.count_paths(edges, 1)[4] == 2

    def test_rejects_cycles(self):
        import pytest

        with pytest.raises(ValueError):
            serial.count_paths([(1, 2), (2, 1)], 1)


class TestCoalesce:
    def test_touching_intervals_merge(self):
        assert serial.coalesce_intervals([(1, 3), (3, 5)]) == [(1, 5)]

    def test_disjoint_stay_apart(self):
        assert serial.coalesce_intervals([(1, 2), (4, 5)]) == [(1, 2), (4, 5)]

    def test_contained(self):
        assert serial.coalesce_intervals([(1, 10), (2, 3)]) == [(1, 10)]


class TestHierarchies:
    def test_bom_max_of_subparts(self):
        days = serial.bom_waitfor([("a", "b"), ("a", "c")],
                                  [("b", 4), ("c", 9)])
        assert days["a"] == 9

    def test_management_chain(self):
        # 3 reports to 2 reports to 1; the root (1) is not itself an
        # employee so it gets no base 1 — Cnt(1) = Cnt(2) = 2.
        counts = serial.management_counts([(2, 1), (3, 2)])
        assert counts == {3: 1, 2: 2, 1: 2}

    def test_mlm_halving(self):
        bonus = serial.mlm_bonus([(1, 0.0), (2, 100.0)], [(1, 2)])
        assert bonus[2] == 10.0
        assert bonus[1] == 5.0

    def test_company_control_majority(self):
        totals = serial.company_control([("a", "b", 51), ("b", "c", 60)])
        assert totals[("a", "c")] == 60

    def test_company_control_combined_holdings(self):
        totals = serial.company_control(
            [("a", "b", 60), ("b", "c", 30), ("a", "c", 30)])
        assert totals[("a", "c")] == 60  # 30 direct + b's 30

    def test_party_threshold(self):
        attending = serial.party_attendance(
            ["o1", "o2", "o3"],
            [("o1", "x"), ("o2", "x"), ("o3", "x"), ("o1", "y")])
        assert attending == {"o1", "o2", "o3", "x"}
