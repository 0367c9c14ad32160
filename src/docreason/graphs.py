"""Semantic graph construction over the node inventory.

Four graphs per instance:

* quantity comparison: directed edge i -> j when value_i >= value_j,
* date comparison: same rule over (year, month, day) keys,
* text relation: complete undirected graph over Question + Block nodes,
* semantic dependency: union of the three plus a containment edge from
  every Quantity/Date node to the Question/Block node it was mined from.

Adjacency matrices are dense bool arrays indexed by graph-local position;
node_ids maps positions back to inventory node ids. A comparison graph is
one broadcast `>=` over its members' keys; the semantic graph ORs each
subgraph's adjacency into its members' block, then writes all containment
edges in one indexed assignment.
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


def _block(pos: dict[int, int], sub: SemanticGraph):
    """The index of the block that `sub`'s members span in the inventory-wide
    adjacency: two slices when they are one run of consecutive positions, as
    every subgraph of a build_node_inventory inventory is, else np.ix_."""
    try:
        idx = [pos[nid] for nid in sub.node_ids]
    except KeyError as exc:
        raise IndexMismatch(
            f"{sub.kind.value}: node {exc.args[0]} missing from inventory") from None
    first = idx[0] if idx else 0
    if idx == list(range(first, first + len(idx))):
        run = slice(first, first + len(idx))
        return run, run
    if len(set(idx)) != len(idx):
        raise IndexMismatch(f"{sub.kind.value}: a node is listed twice")
    return np.ix_(idx, idx)


def _union(nodes: NodeSet, subs: tuple[SemanticGraph, ...]) -> tuple[SemanticGraph, list]:
    """The semantic graph over `subs`, and the index of each one's block in
    its adjacency."""
    node_ids = [m.node_id for m in nodes.nodes]
    pos = dict(zip(node_ids, range(len(node_ids))))
    adj = np.zeros((len(node_ids), len(node_ids)), dtype=bool)
    blocks = [_block(pos, sub) for sub in subs]
    for sub, block in zip(subs, blocks):
        adj[block] |= sub.adjacency.astype(bool, copy=False)
    leaves = [i for i, m in enumerate(nodes.nodes) if m.parent_id is not None]
    adj[leaves, [pos[nodes.nodes[i].parent_id] for i in leaves]] = True
    return SemanticGraph(GraphKind.SEMANTIC, node_ids, adj), blocks


def build_semantic_graph(nodes: NodeSet, quantity: SemanticGraph, date: SemanticGraph,
                         text: SemanticGraph) -> SemanticGraph:
    """Union of the three graphs re-indexed onto the full inventory, plus a
    containment edge from each leaf element to its parent node. Each
    subgraph's adjacency is ORed into the block of its members."""
    return _union(nodes, (quantity, date, text))[0]


def build_all_graphs(nodes: NodeSet) -> dict[GraphKind, SemanticGraph]:
    """The four graphs of an inventory. The three subgraphs have disjoint
    members, and containment edges run from a leaf to a Question/Block node,
    outside every block; so each subgraph's block of the semantic adjacency
    is its own adjacency, and the subgraph keeps that block (a view when its
    members are one run): each edge is stored once."""
    subs = build_quantity_graph(nodes), build_date_graph(nodes), build_text_graph(nodes)
    sd, blocks = _union(nodes, subs)
    for sub, block in zip(subs, blocks):
        sub.adjacency = sd.adjacency[block]
    qc, dc, tr = subs
    return {GraphKind.QUANTITY: qc, GraphKind.DATE: dc, GraphKind.TEXT: tr, GraphKind.SEMANTIC: sd}
