"""Semantic graph construction over the node inventory.

Four graphs per instance:

* quantity comparison: directed edge i -> j when value_i >= value_j,
* date comparison: same rule over (year, month, day) keys,
* text relation: complete undirected graph over Question + Block nodes,
* semantic dependency: union of the three plus a containment edge from
  every Quantity/Date node to the Question/Block node it was mined from.

Adjacency matrices are dense bool arrays indexed by graph-local position;
node_ids maps positions back to inventory node ids. The inventory lays its
kinds out in runs (see NodeSet), so each subgraph's members are one run of
ids. A comparison graph is one broadcast `>=` over its members' keys; the
semantic graph ORs each subgraph's adjacency into its run's block, then
writes all containment edges from the leaves' parent ids in one indexed
assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .elements import ElementNode, NodeKind, NodeSet
from .errors import IndexMismatch


class GraphKind(str, Enum):
    QUANTITY = "quantity_comparison"
    DATE = "date_comparison"
    TEXT = "text_relation"
    SEMANTIC = "semantic_dependency"


@dataclass
class SemanticGraph:
    kind: GraphKind
    node_ids: list[int]
    adjacency: np.ndarray  # (n, n) bool, A[i, j] True for edge i -> j

    def __post_init__(self):
        n = len(self.node_ids)
        if self.adjacency.shape != (n, n):
            raise IndexMismatch(
                f"{self.kind.value}: adjacency {self.adjacency.shape} vs {n} nodes")

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def run(self) -> slice:
        """The node ids as a slice of the inventory: the members of every
        graph built over a NodeSet are one run of its ids."""
        lo = self.node_ids[0] if self.node_ids else 0
        return slice(lo, lo + len(self.node_ids))

    def edges(self) -> list[tuple[int, int]]:
        """Directed edges as (src, dst) inventory node ids, sorted."""
        src, dst = np.nonzero(self.adjacency)
        ids = np.asarray(self.node_ids, dtype=np.int64)
        pairs = np.stack([ids[src], ids[dst]], axis=1)
        return [tuple(e) for e in pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))].tolist()]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "node_ids": list(self.node_ids),
            "edges": [list(e) for e in self.edges()],
        }


def _comparison_graph(kind: GraphKind, members: list[ElementNode],
                      keys: np.ndarray) -> SemanticGraph:
    """Edge i -> j for every i != j with keys[i] >= keys[j], in one broadcast."""
    adj = keys[:, None] >= keys[None, :]
    np.fill_diagonal(adj, False)
    return SemanticGraph(kind, [m.node_id for m in members], adj)


def build_quantity_graph(nodes: NodeSet) -> SemanticGraph:
    members = nodes.by_kind(NodeKind.QUANTITY)
    return _comparison_graph(GraphKind.QUANTITY, members, np.array([m.value for m in members]))


def build_date_graph(nodes: NodeSet) -> SemanticGraph:
    members = nodes.by_kind(NodeKind.DATE)
    # Ranks among the distinct (year, month, day) keys keep their tuple order.
    rank = {key: r for r, key in enumerate(sorted({m.date_key for m in members}))}
    return _comparison_graph(GraphKind.DATE, members, np.array([rank[m.date_key] for m in members]))


def build_text_graph(nodes: NodeSet) -> SemanticGraph:
    members = nodes.by_kind(NodeKind.QUESTION) + nodes.by_kind(NodeKind.BLOCK)
    return SemanticGraph(GraphKind.TEXT, [m.node_id for m in members], ~np.eye(len(members), dtype=bool))


def build_semantic_graph(nodes: NodeSet, quantity: SemanticGraph, date: SemanticGraph,
                         text: SemanticGraph) -> SemanticGraph:
    """Union of the three graphs over the full inventory, plus a containment
    edge from each leaf element to its parent node. Each subgraph's members
    must be one run of inventory ids, else IndexMismatch, and its adjacency
    is ORed into that run's block."""
    n = len(nodes)
    adj = np.zeros((n, n), dtype=bool)
    for sub in (quantity, date, text):
        if list(range(n)[sub.run]) != sub.node_ids:
            raise IndexMismatch(
                f"{sub.kind.value}: members are not one run of the inventory ids 0..{n - 1}")
        adj[sub.run, sub.run] |= sub.adjacency.astype(bool, copy=False)
    leaves = [m for m in nodes.nodes if m.parent_id is not None]
    adj[[m.node_id for m in leaves], [m.parent_id for m in leaves]] = True
    return SemanticGraph(GraphKind.SEMANTIC, list(range(n)), adj)


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
