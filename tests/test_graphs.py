"""Comparison, text-relation, and dependency graph construction."""

import contextlib
import hashlib
import io
from dataclasses import replace

import numpy as np
import pytest

from docreason.document import ingest_document, tokenize, transform_multipage
from docreason.cli import main
from docreason.elements import ElementNode, NodeKind, NodeSet, build_node_inventory
from docreason.errors import IndexMismatch
from docreason.graphs import (
    GraphKind,
    SemanticGraph,
    build_all_graphs,
    build_date_graph,
    build_quantity_graph,
    build_semantic_graph,
    build_text_graph,
)
from docreason.nn import normalize_adjacency
from docreason.pipeline import build_instance, load_records

CORPUS = "data/synthetic-50.json"


def _inventory(texts, question="What changed?"):
    record = {
        "doc_id": "d1",
        "pages": [{"width": 800, "height": 1000}],
        "blocks": [
            {"block_id": i, "page_index": 0, "order": i,
             "text": t, "box": [10, 10 + 40 * i, 700, 40 + 40 * i]}
            for i, t in enumerate(texts)
        ],
    }
    canon = transform_multipage(ingest_document(record))
    return build_node_inventory(canon, question, tokenize(canon, question))


def _brute_comparison(keys):
    n = len(keys)
    adj = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and keys[i] >= keys[j]:
                adj[i, j] = 1.0
    return adj


class TestComparisonGraphs:
    def test_quantity_edges_follow_value_order(self):
        nodes = _inventory(["Paid 5 then 9 then 5."])
        g = build_quantity_graph(nodes)
        values = {n.node_id: n.value for n in nodes.by_kind(NodeKind.QUANTITY)}
        for src, dst in g.edges():
            assert values[src] >= values[dst]
        # ties produce edges both ways, self loops never appear
        five_a, five_b = [nid for nid, v in values.items() if v == 5.0]
        assert (five_a, five_b) in g.edges() and (five_b, five_a) in g.edges()
        assert all(s != d for s, d in g.edges())

    def test_date_edges_compare_full_keys(self):
        nodes = _inventory(["From March 2018 to 14 August 2019, and 2018 too."])
        g = build_date_graph(nodes)
        keys = {n.node_id: n.date_key for n in nodes.by_kind(NodeKind.DATE)}
        for src, dst in g.edges():
            assert keys[src] >= keys[dst]
        # (2018, 3, 0) dominates the bare (2018, 0, 0)
        march = next(nid for nid, k in keys.items() if k == (2018, 3, 0))
        bare = next(nid for nid, k in keys.items() if k == (2018, 0, 0))
        assert (march, bare) in g.edges()
        assert (bare, march) not in g.edges()

    def test_matches_brute_force_on_random_values(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            count = int(rng.integers(2, 7))
            amounts = rng.integers(1, 50, size=count)
            text = "Paid " + " and ".join(str(int(a)) for a in amounts) + "."
            nodes = _inventory([text])
            g = build_quantity_graph(nodes)
            keys = [n.value for n in nodes.by_kind(NodeKind.QUANTITY)]
            np.testing.assert_array_equal(g.adjacency, _brute_comparison(keys))


class TestTextGraph:
    def test_complete_minus_identity(self):
        nodes = _inventory(["alpha", "beta", "gamma"])
        g = build_text_graph(nodes)
        n = g.num_nodes
        assert n == 4  # question + three blocks
        np.testing.assert_array_equal(g.adjacency, np.ones((n, n)) - np.eye(n))

    def test_members_are_question_then_blocks(self):
        nodes = _inventory(["alpha", "beta"])
        g = build_text_graph(nodes)
        kinds = [nodes.get(nid).kind for nid in g.node_ids]
        assert kinds == [NodeKind.QUESTION, NodeKind.BLOCK, NodeKind.BLOCK]


class TestSemanticGraph:
    def test_union_preserves_subgraph_edges(self):
        nodes = _inventory(["Paid 5 then 9 in 2019.", "Then 2 in 2020."])
        graphs = build_all_graphs(nodes)
        sd = graphs[GraphKind.SEMANTIC]
        sd_edges = set(sd.edges())
        for kind in (GraphKind.QUANTITY, GraphKind.DATE, GraphKind.TEXT):
            assert set(graphs[kind].edges()) <= sd_edges

    def test_containment_edges_point_child_to_parent(self):
        nodes = _inventory(["Paid 5 in 2019."])
        sd = build_all_graphs(nodes)[GraphKind.SEMANTIC]
        edges = set(sd.edges())
        for node in nodes:
            if node.parent_id is not None:
                assert (node.node_id, node.parent_id) in edges

    def test_no_extra_edges_beyond_union_and_containment(self):
        nodes = _inventory(["Paid 5 then 9 in 2019."])
        graphs = build_all_graphs(nodes)
        want = set()
        for kind in (GraphKind.QUANTITY, GraphKind.DATE, GraphKind.TEXT):
            want |= set(graphs[kind].edges())
        for node in nodes:
            if node.parent_id is not None:
                want.add((node.node_id, node.parent_id))
        assert set(graphs[GraphKind.SEMANTIC].edges()) == want

    def test_rejects_subgraph_nodes_outside_inventory(self):
        nodes = _inventory(["Paid 5."])
        qc = build_quantity_graph(nodes)
        dc = build_date_graph(nodes)
        tr = build_text_graph(nodes)
        rogue = SemanticGraph(GraphKind.QUANTITY, slice(99, 100), np.zeros((1, 1)))
        with pytest.raises(IndexMismatch):
            build_semantic_graph(nodes, rogue, dc, tr)

    def test_adjacency_shape_must_match_node_ids(self):
        with pytest.raises(IndexMismatch):
            SemanticGraph(GraphKind.TEXT, slice(0, 2), np.zeros((3, 3)))
        with pytest.raises(IndexMismatch):
            SemanticGraph(GraphKind.TEXT, slice(3, 2), np.zeros((1, 1)))


class TestEquivariance:
    def test_value_relabeling_preserves_structure(self):
        # Shifting every value by a constant keeps the comparison order,
        # so the adjacency matrix cannot change.
        rng = np.random.default_rng(5)
        for _ in range(10):
            amounts = rng.integers(1, 40, size=4)
            base = _inventory(["Paid " + " and ".join(str(int(a)) for a in amounts) + "."])
            shifted = _inventory(
                ["Paid " + " and ".join(str(int(a) + 100) for a in amounts) + "."])
            a = build_quantity_graph(base).adjacency
            b = build_quantity_graph(shifted).adjacency
            np.testing.assert_array_equal(a, b)

    def test_to_dict_round_trips_edges(self):
        nodes = _inventory(["Paid 5 then 9 in 2019."])
        for g in build_all_graphs(nodes).values():
            d = g.to_dict()
            assert d["kind"] == g.kind.value
            assert d["node_ids"] == g.node_ids
            assert [tuple(e) for e in d["edges"]] == g.edges()


# Reference builders: the per-pair and per-edge loops the array builders
# replaced, writing bool adjacencies. The array builders must reproduce them
# byte for byte.

def _loop_comparison(members, keys):
    n = len(members)
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if i != j and keys[i] >= keys[j]:
                adj[i, j] = True
    return [m.node_id for m in members], adj


def _loop_graphs(nodes):
    quantities = nodes.by_kind(NodeKind.QUANTITY)
    dates = nodes.by_kind(NodeKind.DATE)
    text = nodes.by_kind(NodeKind.QUESTION) + nodes.by_kind(NodeKind.BLOCK)
    subs = {
        GraphKind.QUANTITY: _loop_comparison(quantities, [m.value for m in quantities]),
        GraphKind.DATE: _loop_comparison(dates, [m.date_key for m in dates]),
        GraphKind.TEXT: ([m.node_id for m in text],
                         ~np.eye(len(text), dtype=bool)),
    }
    node_ids = [m.node_id for m in nodes.nodes]
    pos = {nid: i for i, nid in enumerate(node_ids)}
    sd = np.zeros((len(node_ids), len(node_ids)), dtype=bool)
    for ids, adj in subs.values():
        for src, dst in zip(*np.nonzero(adj)):
            sd[pos[ids[int(src)]], pos[ids[int(dst)]]] = True
    for node in nodes.nodes:
        if node.parent_id is not None:
            sd[pos[node.node_id], pos[node.parent_id]] = True
    return {**subs, GraphKind.SEMANTIC: (node_ids, sd)}


def _loop_edges(node_ids, adj):
    return sorted((node_ids[int(i)], node_ids[int(j)]) for i, j in zip(*np.nonzero(adj)))


def _eye_normalize(adj):
    a = np.maximum(adj, adj.T) + np.eye(adj.shape[0])
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return inv_sqrt[:, None] * a * inv_sqrt[None, :]


def _widen(record, rng, rows=6):
    """Append blocks dense in quantities and dates, with repeated values so
    that the comparison graphs have ties in both directions."""
    blocks = [dict(b) for b in record["blocks"]]
    page = len(record["pages"]) - 1
    amounts = [f"{int(a)},{int(b):03d}" for a, b in rng.integers(1, 60, size=(8, 2))]
    amounts += ["(1,234)", "-5", "12.5%", "$ 40", "0.75", "7", "7"]
    dates = ["March 2018", "14 August 2019", "August 14, 2019", "FY19", "2017", "2018",
             "Dec. 2016", "1 March 2018"]
    for k in range(rows):
        text = " ".join(rng.choice(amounts, size=12).tolist() + rng.choice(dates, size=5).tolist())
        blocks.append({"block_id": len(blocks), "page_index": page, "order": len(blocks),
                       "text": f"row {k}: {text}", "box": [40, 330 + 52 * k, 960, 374 + 52 * k]})
    return {**record, "blocks": blocks}


def _assert_matches_loops(nodes, graphs):
    for kind, (node_ids, adj) in _loop_graphs(nodes).items():
        got = graphs[kind]
        assert got.node_ids == node_ids
        assert got.adjacency.dtype == adj.dtype
        assert got.adjacency.tobytes() == adj.tobytes()
        assert got.edges() == _loop_edges(node_ids, adj)
        assert got.to_dict()["edges"] == [list(e) for e in _loop_edges(node_ids, adj)]
        assert normalize_adjacency(got.adjacency).tobytes() == _eye_normalize(adj).tobytes()


class TestArrayBuildersMatchLoops:
    def test_bundled_corpus(self):
        for record in load_records(CORPUS):
            inst = build_instance(record)
            _assert_matches_loops(inst.nodes, inst.graphs)

    def test_widened_records(self):
        rng = np.random.default_rng(7)
        sizes = []
        for record in load_records(CORPUS)[:6]:
            inst = build_instance(_widen(record, rng), max_len=1024)
            _assert_matches_loops(inst.nodes, inst.graphs)
            sizes.append((len(inst.graphs[GraphKind.QUANTITY].node_ids),
                          len(inst.graphs[GraphKind.DATE].node_ids)))
        assert min(q for q, _ in sizes) >= 60 and min(d for _, d in sizes) >= 25

    def test_interleaved_kinds(self):
        # An inventory is laid out in kind runs, so a subgraph's members are
        # always one run of ids; a NodeSet whose kinds interleave is refused.
        nodes = _inventory(["Paid 5 then 9 in 2019.", "Then 2 in 2020 and 7."]).nodes
        order = [0, 3, 1, 7, 4, 2, 8, 5, 6]
        assert sorted(order) == list(range(len(nodes)))
        moved = [replace(nodes[i], node_id=pos) for pos, i in enumerate(order)]
        with pytest.raises(IndexMismatch, match="kinds"):
            NodeSet(nodes=moved)
        with pytest.raises(IndexMismatch, match="ids"):
            NodeSet(nodes=[nodes[i] for i in order])

    def test_a_run_outside_the_inventory_is_rejected(self):
        nodes = _inventory(["Paid 5 then 9 then 7 then 2."])
        qc = build_quantity_graph(nodes)
        start, stop = qc.run.start, qc.run.stop
        assert (start, stop) == (2, 6) and len(nodes) == 6
        for run in (slice(start + 1, stop + 1), slice(-1, stop - start - 1),
                    slice(len(nodes), len(nodes) + stop - start)):
            outside = SemanticGraph(GraphKind.QUANTITY, run, qc.adjacency)
            with pytest.raises(IndexMismatch, match="outside the inventory"):
                build_semantic_graph(nodes, outside, build_date_graph(nodes),
                                     build_text_graph(nodes))

    def test_edges_at_a_nonzero_run_start_match_the_loop(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n, start = int(rng.integers(0, 7)), int(rng.integers(1, 20))
            adj = rng.random((n, n)) < 0.5
            node_ids = list(range(start, start + n))
            for weights in (adj, adj * rng.random((n, n))):
                g = SemanticGraph(GraphKind.QUANTITY, slice(start, start + n), weights)
                assert g.node_ids == node_ids and g.num_nodes == n
                assert g.edges() == _loop_edges(node_ids, weights)
                assert g.to_dict()["edges"] == [list(e) for e in _loop_edges(node_ids, weights)]

    def test_normalize_matches_eye_formula_on_weighted_input(self):
        rng = np.random.default_rng(3)
        for n in (0, 1, 2, 7, 40):
            adj = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
            assert normalize_adjacency(adj).tobytes() == _eye_normalize(adj).tobytes()

    def test_normalize_matches_eye_formula_on_bool_input_with_self_loops(self):
        # builder graphs have no self-loops; here a True diagonal entry makes
        # its diagonal 2, as in the formula, and blocks of a larger bool
        # array (how builder subgraphs are stored) are taken as they are
        rng = np.random.default_rng(5)
        cases = [np.zeros((0, 0), dtype=bool), np.zeros((1, 1), dtype=bool),
                 np.ones((1, 1), dtype=bool)]
        for n in (2, 3, 9, 40):
            adj = rng.random((n, n)) < 0.4
            np.fill_diagonal(adj, rng.random(n) < 0.5)
            big = rng.random((n + 5, n + 5)) < 0.3
            cases += [adj, np.eye(n, dtype=bool), np.ones((n, n), dtype=bool),
                      big[2:n + 2, 3:n + 3], np.asfortranarray(adj)]
        for adj in cases:
            got = normalize_adjacency(adj)
            assert got.dtype == np.float64 and got.shape == adj.shape
            assert got.tobytes() == _eye_normalize(adj).tobytes(), adj.shape


def _random_inventory(rng):
    """A random well-formed inventory in the acceptance gate's style: one
    Question, 0-15 Blocks, 0-15 Quantities and 0-15 Dates, each leaf
    parented onto a random source."""
    nodes = [ElementNode(0, NodeKind.QUESTION, None, None, 0, 8, "question")]
    for b in range(int(rng.integers(0, 16))):
        nodes.append(ElementNode(len(nodes), NodeKind.BLOCK, b, None, 0, 8, f"block {b}"))
    parents = list(nodes)
    for kind in (NodeKind.QUANTITY, NodeKind.DATE):
        for _ in range(int(rng.integers(0, 16))):
            parent = parents[int(rng.integers(len(parents)))]
            nodes.append(ElementNode(len(nodes), kind, parent.block_id, parent.node_id, 0, 4, "x",
                                     value=1.0, date_key=(2000, 1, 1)))
    return NodeSet(nodes=nodes)


def _assert_sources_then_leaves(nodes):
    n = len(nodes)
    assert nodes.sources.start == 0 and nodes.sources.stop == nodes.leaves.start
    assert nodes.leaves.stop == n
    sources = range(n)[nodes.sources]
    for node in nodes.nodes[nodes.sources]:
        assert node.kind in (NodeKind.QUESTION, NodeKind.BLOCK) and node.parent_id is None
    for node in nodes.nodes[nodes.leaves]:
        assert node.kind in (NodeKind.QUANTITY, NodeKind.DATE) and node.parent_id in sources
    assert nodes.sources.stop == nodes.runs[NodeKind.BLOCK].stop


class TestSourceAndLeafRuns:
    def test_bundled_and_widened_records(self):
        rng = np.random.default_rng(7)
        records = load_records(CORPUS)
        for record in records:
            _assert_sources_then_leaves(build_instance(record).nodes)
        for record in records[:4]:
            _assert_sources_then_leaves(build_instance(_widen(record, rng), max_len=1024).nodes)

    def test_random_inventories(self):
        rng = np.random.default_rng(20240814)
        for _ in range(200):
            nodes = _random_inventory(rng)
            _assert_sources_then_leaves(nodes)
            sd = build_all_graphs(nodes)[GraphKind.SEMANTIC]
            containment = {(m.node_id, m.parent_id) for m in nodes if m.parent_id is not None}
            assert containment <= set(sd.edges())


class TestGraphsDump:
    def test_the_dump_of_the_bundled_corpus_is_pinned(self, tmp_path):
        # sha256 over the sorted file names, each followed by NUL and the
        # file's bytes, of `docreason graphs` on the bundled corpus. A change
        # to a build_*_graph function, edges() or to_dict that moves one byte
        # of the dump fails here.
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["graphs", "--corpus", CORPUS, "--out-dir", str(tmp_path)]) == 0
        digest = hashlib.sha256()
        for name in sorted(path.name for path in tmp_path.iterdir()):
            digest.update(name.encode() + b"\0" + (tmp_path / name).read_bytes())
        assert digest.hexdigest() == \
            "9dfd58aefe15a1c6be18d3cd67f60cdb7c9911c6a4f150443eb16ad0f9185afa"
