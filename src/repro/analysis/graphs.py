"""Conflict graphs as networkx objects, with structural diagnostics.

The coloring problem of Section 1.1 is graph coloring of the *conflict
graph* (one clique per template instance).  :func:`conflict_nx_graph` builds
it as a :class:`networkx.Graph`, and :func:`conflict_graph_stats` reports the
structural quantities that explain the module counts:

* the max clique **is** the largest template instance, giving the trivial
  lower bound on modules;
* greedy coloring over the graph gives a quick upper bound to sandwich the
  exact DSATUR result of :mod:`repro.analysis.optimal`.

networkx is an optional dependency (``pip install repro[graphs]``), imported
only when a graph is built, so ``import repro`` works without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.analysis.optimal import conflict_graph
from repro.templates.base import TemplateFamily, TemplateInstance
from repro.trees import CompleteBinaryTree

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["conflict_nx_graph", "conflict_graph_stats", "GraphStats"]


@dataclass(frozen=True)
class GraphStats:
    """Structure report of a conflict graph."""

    nodes: int
    edges: int
    max_degree: int
    clique_lower_bound: int
    greedy_upper_bound: int
    density: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"conflict graph: {self.nodes} nodes, {self.edges} edges, "
            f"chromatic in [{self.clique_lower_bound}, {self.greedy_upper_bound}]"
        )


def conflict_nx_graph(
    tree: CompleteBinaryTree,
    families: Iterable[TemplateFamily],
) -> nx.Graph:
    """The union-of-cliques conflict graph of ``families`` on ``tree``."""
    import networkx as nx

    instances: list[TemplateInstance] = []
    for fam in families:
        instances.extend(fam.instances(tree))
    adj = conflict_graph(instances, tree.num_nodes)
    graph = nx.Graph()
    graph.add_nodes_from(range(tree.num_nodes))
    for u, neighbors in enumerate(adj):
        graph.add_edges_from((u, v) for v in neighbors if v > u)
    return graph


def conflict_graph_stats(
    tree: CompleteBinaryTree,
    families: Iterable[TemplateFamily],
) -> GraphStats:
    """Structural diagnostics of the conflict graph."""
    import networkx as nx

    families = list(families)
    graph = conflict_nx_graph(tree, families)
    clique = max((fam.size for fam in families), default=1)
    greedy = (
        max(nx.greedy_color(graph, strategy="largest_first").values()) + 1
        if graph.number_of_nodes()
        else 0
    )
    degrees = [deg for _, deg in graph.degree()]
    n = graph.number_of_nodes()
    return GraphStats(
        nodes=n,
        edges=graph.number_of_edges(),
        max_degree=max(degrees, default=0),
        clique_lower_bound=clique,
        greedy_upper_bound=greedy,
        density=2 * graph.number_of_edges() / (n * (n - 1)) if n > 1 else 0.0,
    )
