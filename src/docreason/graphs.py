"""Semantic graph construction over the node inventory.

Four graphs per instance:

* quantity comparison: directed edge i -> j when value_i >= value_j,
* date comparison: same rule over (year, month, day) keys,
* text relation: complete undirected graph over Question + Block nodes,
* semantic dependency: union of the three plus a containment edge from
  every Quantity/Date node to the Question/Block node it was mined from.

The inventory lays its kinds out in runs (see NodeSet), so a graph is its
run of node ids and a dense bool adjacency over the run's positions:
position i is node id run.start + i. A comparison graph is one broadcast
`>=` over its run's keys, and the text graph is the `sources` run. The
semantic graph ORs each subgraph's adjacency into its run's block, then
writes every containment edge from the `leaves` run in one indexed
assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .elements import NodeKind, NodeSet
from .errors import IndexMismatch


class GraphKind(str, Enum):
    QUANTITY = "quantity_comparison"
    DATE = "date_comparison"
    TEXT = "text_relation"
    SEMANTIC = "semantic_dependency"


@dataclass
class SemanticGraph:
    kind: GraphKind
    run: slice  # the member node ids, one run of the inventory
    adjacency: np.ndarray  # (n, n) bool, A[i, j] True for edge i -> j

    def __post_init__(self):
        n = self.num_nodes
        if self.adjacency.shape != (n, n):
            raise IndexMismatch(
                f"{self.kind.value}: adjacency {self.adjacency.shape} vs {n} nodes")

    @property
    def num_nodes(self) -> int:
        return self.run.stop - self.run.start

    @property
    def node_ids(self) -> list[int]:
        return list(range(self.run.start, self.run.stop))

    def edges(self) -> list[tuple[int, int]]:
        """Directed edges as (src, dst) inventory node ids, sorted: argwhere
        walks the adjacency in row-major order, and ids rise with position."""
        return [tuple(e) for e in (np.argwhere(self.adjacency) + self.run.start).tolist()]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "node_ids": self.node_ids,
            "edges": [list(e) for e in self.edges()],
        }


def _comparison_graph(kind: GraphKind, run: slice, keys: list) -> SemanticGraph:
    """Edge i -> j for every i != j with keys[i] >= keys[j], in one broadcast."""
    keys = np.array(keys)
    adj = keys[:, None] >= keys[None, :]
    np.fill_diagonal(adj, False)
    return SemanticGraph(kind, run, adj)


def build_quantity_graph(nodes: NodeSet) -> SemanticGraph:
    run = nodes.runs[NodeKind.QUANTITY]
    return _comparison_graph(GraphKind.QUANTITY, run, [m.value for m in nodes.nodes[run]])


def build_date_graph(nodes: NodeSet) -> SemanticGraph:
    run = nodes.runs[NodeKind.DATE]
    keys = [m.date_key for m in nodes.nodes[run]]
    # Ranks among the distinct (year, month, day) keys keep their tuple order.
    rank = {key: r for r, key in enumerate(sorted(set(keys)))}
    return _comparison_graph(GraphKind.DATE, run, [rank[key] for key in keys])


def build_text_graph(nodes: NodeSet) -> SemanticGraph:
    n = nodes.sources.stop - nodes.sources.start
    return SemanticGraph(GraphKind.TEXT, nodes.sources, ~np.eye(n, dtype=bool))


def build_semantic_graph(nodes: NodeSet, quantity: SemanticGraph, date: SemanticGraph,
                         text: SemanticGraph) -> SemanticGraph:
    """Union of the three graphs over the full inventory, plus a containment
    edge from each leaf element to its parent node. Each subgraph's run must
    lie within the inventory ids, else IndexMismatch, and its adjacency is
    ORed into that run's block."""
    n = len(nodes)
    adj = np.zeros((n, n), dtype=bool)
    for sub in (quantity, date, text):
        if not 0 <= sub.run.start <= sub.run.stop <= n:
            raise IndexMismatch(f"{sub.kind.value}: run {sub.run.start}..{sub.run.stop} "
                                f"lies outside the inventory ids 0..{n - 1}")
        adj[sub.run, sub.run] |= sub.adjacency.astype(bool, copy=False)
    parents = [m.parent_id for m in nodes.nodes[nodes.leaves]]
    adj[nodes.leaves][np.arange(len(parents)), parents] = True
    return SemanticGraph(GraphKind.SEMANTIC, slice(0, n), adj)


def build_all_graphs(nodes: NodeSet) -> dict[GraphKind, SemanticGraph]:
    """The four graphs of an inventory. The three subgraphs are disjoint runs
    of the inventory, and containment edges run from a leaf to a
    Question/Block node, outside every run's block; so each subgraph's block
    of the semantic adjacency is its own adjacency, and the subgraph keeps a
    view of that block: each edge is stored once."""
    qc, dc, tr = build_quantity_graph(nodes), build_date_graph(nodes), build_text_graph(nodes)
    sd = build_semantic_graph(nodes, qc, dc, tr)
    for sub in (qc, dc, tr):
        sub.adjacency = sd.adjacency[sub.run, sub.run]
    return {GraphKind.QUANTITY: qc, GraphKind.DATE: dc, GraphKind.TEXT: tr, GraphKind.SEMANTIC: sd}
