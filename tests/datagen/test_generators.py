"""Unit tests for the workload generators."""

import collections

import pytest

from repro.datagen import (
    REAL_GRAPHS,
    gn_graph,
    grid_graph,
    proxy_graph,
    proxy_table,
    random_graph,
    random_tree,
    rmat_graph,
    tree_tables,
)


class TestRMAT:
    def test_edge_count_is_10x_vertices(self):
        edges = rmat_graph(256)
        assert len(edges) == 2560

    def test_weights_in_range(self):
        edges = rmat_graph(128, weighted=True)
        assert all(0 <= w < 100 for _, _, w in edges)

    def test_vertex_ids_in_range(self):
        edges = rmat_graph(100)
        assert all(0 <= a < 100 and 0 <= b < 100 for a, b in edges)

    def test_deterministic_per_seed(self):
        assert rmat_graph(64, seed=5) == rmat_graph(64, seed=5)
        assert rmat_graph(64, seed=5) != rmat_graph(64, seed=6)

    def test_skewed_degrees(self):
        """RMAT's defining property: a heavy-tailed degree distribution."""
        edges = rmat_graph(1024)
        degrees = collections.Counter(src for src, _ in edges)
        mean = len(edges) / len(degrees)
        assert max(degrees.values()) > 5 * mean

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            rmat_graph(1)


class TestSynthetic:
    def test_grid_edge_count(self):
        # (k+1)^2 vertices, 2*k*(k+1) edges.
        assert len(grid_graph(150)) == 2 * 150 * 151

    def test_gn_density(self):
        edges = gn_graph(1000, 3, seed=1)
        assert len(edges) == pytest.approx(1000, rel=0.05)

    def test_tree_is_a_tree(self):
        tree = random_tree(height=6, seed=4)
        children = [child for _, child in tree.edges]
        assert len(children) == len(set(children))  # one parent each
        assert tree.num_nodes == len(tree.edges) + 1

    def test_tree_max_nodes_respected(self):
        tree = random_tree(height=10, seed=4, max_nodes=500)
        assert tree.num_nodes <= 500

    def test_tree_tables_shapes(self):
        tree = random_tree(height=4, seed=2)
        tables = tree_tables(tree)
        assert len(tables["assbl"][1]) == len(tree.edges)
        assert len(tables["basic"][1]) == len(tree.leaves)
        assert {m for m, _ in tables["sales"][1]} >= {
            p for p, _ in tables["assbl"][1]}

    def test_random_graph_acyclic(self):
        edges = random_graph(30, 60, seed=1, acyclic=True)
        assert all(a < b for a, b in edges)


class TestRealWorldProxies:
    def test_density_preserved(self):
        for name, spec in REAL_GRAPHS.items():
            edges = proxy_graph(name, scale_divisor=20000, seed=1)
            got_density = len(edges) / max(1, spec.vertices // 20000)
            assert got_density == pytest.approx(spec.density, rel=0.2), name

    def test_twitter_more_skewed_than_livejournal(self):
        def max_in_degree_ratio(name):
            edges = proxy_graph(name, scale_divisor=20000, seed=1)
            indeg = collections.Counter(dst for _, dst in edges)
            return max(indeg.values()) / (len(edges) / len(indeg))

        assert max_in_degree_ratio("twitter") > max_in_degree_ratio("livejournal")

    def test_weighted_variant(self):
        edges = proxy_graph("orkut", scale_divisor=50000, weighted=True)
        assert all(len(edge) == 3 for edge in edges)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_proxy_table_pairs_the_columns_with_the_proxy(self, weighted):
        columns, rows = proxy_table("orkut", scale_divisor=50000, seed=3,
                                    weighted=weighted)
        assert columns == (["Src", "Dst", "Cost"] if weighted
                           else ["Src", "Dst"])
        assert rows == proxy_graph("orkut", scale_divisor=50000, seed=3,
                                   weighted=weighted)
        assert rows and all(len(row) == len(columns) for row in rows)
