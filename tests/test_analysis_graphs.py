"""Unit tests for the networkx conflict-graph utilities."""

import pytest

from repro.analysis import (
    chromatic_number,
    conflict_graph,
    conflict_graph_stats,
    conflict_nx_graph,
)
from repro.templates import PTemplate, STemplate
from repro.trees import CompleteBinaryTree

nx = pytest.importorskip("networkx")


class TestNxGraph:
    def test_path_family_gives_expected_edges(self):
        tree = CompleteBinaryTree(3)
        graph = conflict_nx_graph(tree, [PTemplate(2)])
        # P(2) instances are (child, parent) pairs: exactly the tree edges
        assert graph.number_of_edges() == tree.num_nodes - 1
        assert nx.is_connected(graph)

    def test_subtree_family_cliques(self):
        tree = CompleteBinaryTree(3)
        graph = conflict_nx_graph(tree, [STemplate(3)])
        # S(3) instances: {0,1,2}, {1,3,4}, {2,5,6} -> 3 triangles
        assert graph.number_of_edges() == 9
        for root, kids in [(0, (1, 2)), (1, (3, 4)), (2, (5, 6))]:
            assert graph.has_edge(root, kids[0]) and graph.has_edge(*kids)

    def test_matches_adjacency_builder(self):
        tree = CompleteBinaryTree(4)
        fams = [STemplate(3), PTemplate(4)]
        graph = conflict_nx_graph(tree, fams)
        instances = [inst for fam in fams for inst in fam.instances(tree)]
        adj = conflict_graph(instances, tree.num_nodes)
        assert graph.number_of_edges() == sum(len(s) for s in adj) // 2


class TestStats:
    def test_bounds_sandwich_exact_chromatic(self):
        tree = CompleteBinaryTree(4)
        fams = [STemplate(3), PTemplate(4)]
        stats = conflict_graph_stats(tree, fams)
        instances = [inst for fam in fams for inst in fam.instances(tree)]
        exact = chromatic_number(conflict_graph(instances, tree.num_nodes))
        assert stats.clique_lower_bound <= exact <= stats.greedy_upper_bound

    def test_fields_consistent(self):
        tree = CompleteBinaryTree(4)
        stats = conflict_graph_stats(tree, [PTemplate(3)])
        assert stats.nodes == tree.num_nodes
        assert 0 < stats.density < 1
        assert stats.max_degree >= 2
        assert stats.clique_lower_bound == 3
