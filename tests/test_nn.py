"""Layers, graph convolution, the toy embedder, pooling, and checkpoints."""

import hashlib
import json
import re

import numpy as np
import pytest

from docreason.autodiff import Tensor
from docreason.document import ingest_document, tokenize, transform_multipage
from docreason.elements import build_node_inventory
from docreason.errors import CheckpointMismatch, EmptySpan, SchemaError, ShapeMismatch
from docreason.graphs import GraphKind, SemanticGraph
from docreason.model import Model, ModelConfig
from docreason.vocab import VOCAB_SIZE, build_vocab, token_slot
from docreason.nn import (
    FFN2,
    GCN,
    Linear,
    ToyEmbedder,
    _position_encoding,
    FileEmbedder,
    init_node_representations,
    load_checkpoint,
    normalize_adjacency,
    save_checkpoint,
)


def _fixture(texts=("Paid 7 in cash.",), question="How much was paid?"):
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
    seq = tokenize(canon, question)
    nodes = build_node_inventory(canon, question, seq)
    return canon, seq, nodes


def _graph(adj):
    return SemanticGraph(GraphKind.TEXT, slice(0, adj.shape[0]), adj)


class TestNormalizeAdjacency:
    def test_isolated_node_becomes_identity(self):
        np.testing.assert_array_equal(normalize_adjacency(np.zeros((1, 1))),
                                      np.ones((1, 1)))

    def test_path_graph_hand_values(self):
        adj = np.array([[0.0, 1.0, 0.0],
                        [1.0, 0.0, 1.0],
                        [0.0, 1.0, 0.0]])
        want = np.array([
            [1 / 2, 1 / np.sqrt(6), 0.0],
            [1 / np.sqrt(6), 1 / 3, 1 / np.sqrt(6)],
            [0.0, 1 / np.sqrt(6), 1 / 2],
        ])
        np.testing.assert_allclose(normalize_adjacency(adj), want, atol=1e-12)

    def test_directed_edges_are_symmetrized(self):
        adj = np.array([[0.0, 1.0], [0.0, 0.0]])
        norm = normalize_adjacency(adj)
        np.testing.assert_allclose(norm, norm.T, atol=1e-15)
        assert norm[1, 0] > 0.0


class TestGCN:
    def test_single_isolated_node_with_identity_weights(self):
        rng = np.random.default_rng(0)
        gcn = GCN(rng, dim=3, name="g", layers=1, drop=0.0)
        gcn.layers[0].w.data[:] = np.eye(3)
        gcn.layers[0].b.data[:] = 0.0
        h = Tensor(np.array([[0.3, -1.2, 2.0]]))
        out = gcn(_graph(np.zeros((1, 1))), h)
        np.testing.assert_allclose(out.data, h.data, atol=1e-15)

    def test_path_graph_single_layer_matches_hand_computation(self):
        rng = np.random.default_rng(1)
        gcn = GCN(rng, dim=2, name="g", layers=1, drop=0.0)
        w = np.array([[1.0, 2.0], [-1.0, 0.5]])
        b = np.array([0.1, -0.2])
        gcn.layers[0].w.data[:] = w
        gcn.layers[0].b.data[:] = b
        adj = np.array([[0.0, 1.0, 0.0],
                        [1.0, 0.0, 1.0],
                        [0.0, 1.0, 0.0]])
        h = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, -1.0]])
        want = normalize_adjacency(adj) @ h @ w + b
        out = gcn(_graph(adj), Tensor(h))
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_final_layer_omits_relu(self):
        rng = np.random.default_rng(2)
        gcn = GCN(rng, dim=2, name="g", layers=1, drop=0.0)
        gcn.layers[0].w.data[:] = np.eye(2)
        gcn.layers[0].b.data[:] = np.array([-10.0, -10.0])
        out = gcn(_graph(np.zeros((1, 1))), Tensor(np.zeros((1, 2))))
        assert np.all(out.data < 0.0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            adj = (rng.random((n, n)) < 0.4).astype(float)
            np.fill_diagonal(adj, 0.0)
            h = rng.normal(size=(n, 4))
            gcn = GCN(np.random.default_rng(9), dim=4, name="g", layers=2, drop=0.0)
            base = gcn(_graph(adj), Tensor(h)).data
            perm = rng.permutation(n)
            p = np.eye(n)[perm]
            permuted = gcn(_graph(p @ adj @ p.T), Tensor(h[perm])).data
            np.testing.assert_allclose(permuted, base[perm], atol=1e-12)

    def test_rejects_row_count_mismatch(self):
        gcn = GCN(np.random.default_rng(0), dim=2, name="g", layers=1)
        with pytest.raises(ShapeMismatch):
            gcn(_graph(np.zeros((2, 2))), Tensor(np.zeros((3, 2))))


class TestFFN2:
    def test_zero_weights_give_final_bias(self):
        rng = np.random.default_rng(0)
        ffn = FFN2(rng, 3, 2, "f", drop=0.0)
        for layer in (ffn.l1, ffn.l2):
            layer.w.data[:] = 0.0
            layer.b.data[:] = 0.0
        ffn.l2.b.data[:] = np.array([0.5, -0.5])
        out = ffn(Tensor(np.ones((4, 3))))
        np.testing.assert_allclose(out.data, np.tile([0.5, -0.5], (4, 1)))

    def test_rows_are_independent(self):
        rng = np.random.default_rng(1)
        ffn = FFN2(rng, 3, 3, "f", drop=0.0)
        x = np.random.default_rng(2).normal(size=(5, 3))
        base = ffn(Tensor(x)).data
        perm = np.array([3, 0, 4, 1, 2])
        np.testing.assert_allclose(ffn(Tensor(x[perm])).data, base[perm], atol=1e-12)


class TestToyEmbedder:
    def test_deterministic_for_same_seed(self):
        _, seq, _ = _fixture()
        a = ToyEmbedder(np.random.default_rng(0), dim=8).embed(seq)
        b = ToyEmbedder(np.random.default_rng(0), dim=8).embed(seq)
        np.testing.assert_array_equal(a.data, b.data)

    def test_shape_matches_sequence(self):
        _, seq, _ = _fixture()
        emb = ToyEmbedder(np.random.default_rng(0), dim=8).embed(seq)
        assert emb.data.shape == (len(seq), 8)

    def test_box_position_changes_rows(self):
        _, seq_a, _ = _fixture()
        record = {
            "doc_id": "d1",
            "pages": [{"width": 800, "height": 1000}],
            "blocks": [{"block_id": 0, "page_index": 0, "order": 0,
                        "text": "Paid 7 in cash.", "box": [300, 600, 900, 700]}],
        }
        canon = transform_multipage(ingest_document(record))
        seq_b = tokenize(canon, "How much was paid?")
        emb = ToyEmbedder(np.random.default_rng(0), dim=8)
        a, b = emb.embed(seq_a).data, emb.embed(seq_b).data
        q_len = seq_a.source_range(None)[1]
        np.testing.assert_array_equal(a[:q_len], b[:q_len])
        assert np.abs(a[q_len:] - b[q_len:]).max() > 1e-6

    def test_only_slot_table_trains(self):
        emb = ToyEmbedder(np.random.default_rng(0), dim=8)
        assert list(emb.params()) == ["embedder.table"]

    def test_fixed_features_are_the_same_for_every_model_seed(self):
        # the seed-0 values, which every seed-0 checkpoint was trained with
        _, seq, _ = _fixture()
        a, b = (Model(ModelConfig(dim=8, seed=s)).embedder for s in (0, 3))
        assert not hasattr(a, "seed") and a._hashes is b._hashes
        want_proj = np.random.default_rng(1).uniform(-0.05, 0.05, size=(4, 8))
        assert a._box_proj.tobytes() == b._box_proj.tobytes() == want_proj.tobytes()
        b.table.data = a.table.data.copy()
        assert a.embed(seq).data.tobytes() == b.embed(seq).data.tobytes()
        for text in seq.texts:
            digest = hashlib.blake2b(f"0:{text}".encode(), digest_size=8).digest()
            want = np.random.default_rng(int.from_bytes(digest, "big")).uniform(
                -0.05, 0.05, size=8)
            assert a._hashes.table[a._hashes.rows_of([text])[0]].tobytes() == want.tobytes()

    def test_out_of_vocabulary_slot_is_the_blake2b_formula(self):
        texts = ["zq-17", "zq-17", "Überschuss", "1,234.5", "", "x" * 300]
        vocab = set(build_vocab())
        for text in texts:
            assert text not in vocab, text
            digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
            assert token_slot(text) == int.from_bytes(digest, "big") % VOCAB_SIZE, text
        assert token_slot.cache_info().hits >= 1  # the repeated text

    def test_position_encoding_equals_the_where_form_by_bytes(self):
        for length in (0, 1, 755):
            for dim in (6, 7, 64):
                idx = np.arange(dim)[None, :]
                angle = np.arange(length)[:, None] / np.power(10000.0, (2 * (idx // 2)) / dim)
                want = 0.05 * np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))
                got = _position_encoding(length, dim)
                assert got.shape == want.shape == (length, dim)
                assert got.tobytes() == want.tobytes(), (length, dim)

    def test_cached_position_rows_equal_a_fresh_encoding_by_bytes(self):
        for dim in (6, 7, 32):
            embedder = ToyEmbedder(np.random.default_rng(0), dim=dim)
            for length in (3, 40, 755, 755, 200, 1, 0, 1024, 17):
                got = embedder._position_rows(length)
                assert not got.flags.writeable
                assert got.tobytes() == _position_encoding(length, dim).tobytes(), (length, dim)


class TestFileEmbedder:
    def test_reads_rows_for_current_instance(self, tmp_path):
        _, seq, _ = _fixture()
        rows = np.random.default_rng(0).normal(size=(len(seq), 4))
        path = tmp_path / "emb.json"
        path.write_text(json.dumps({"q1": rows.tolist(), "q2": []}))
        emb = FileEmbedder(str(path), dim=4)
        np.testing.assert_allclose(emb.embed(seq, "q1").data, rows)

    def test_wrong_shape_is_rejected(self, tmp_path):
        _, seq, _ = _fixture()
        path = tmp_path / "emb.json"
        n = len(seq)
        for rows in ([[0.0, 0.0]], [[0.0] * 3] * n, [[0.0, 0.0]] * (n - 1) + [[0.0]],
                     [["0", "0"]] * n, [[True, False]] * n, [[0.0, None]] * n,
                     [[0.0, float("nan")]] * n, 1.5, "rows"):
            path.write_text(json.dumps({"q1": rows}))
            message = re.escape(f"{path}: embeddings of qid 'q1' are not")
            with pytest.raises(SchemaError, match=message):
                FileEmbedder(str(path), dim=2).embed(seq, "q1")

    def test_file_faults_name_the_file_and_the_qid(self, tmp_path):
        _, seq, _ = _fixture()
        path = tmp_path / "emb.json"
        for text, message in (("{", "invalid JSON"), ("[]", "must be a JSON object")):
            path.write_text(text)
            with pytest.raises(SchemaError, match=message):
                FileEmbedder(str(path), dim=2)
        for missing in (tmp_path / "missing.json", tmp_path):
            with pytest.raises(SchemaError, match=re.escape(f"{missing}: cannot read")):
                FileEmbedder(str(missing), dim=2)
        path.write_text(json.dumps({"q1": [[0.0, 0.0]] * len(seq)}))
        with pytest.raises(SchemaError, match=re.escape(f"{path}: no embeddings for qid 'q2'")):
            FileEmbedder(str(path), dim=2).embed(seq, "q2")


class TestPooling:
    def test_single_token_node_copies_its_row(self):
        _, seq, nodes = _fixture()
        embs = ToyEmbedder(np.random.default_rng(0), dim=8).embed(seq)
        pooled = init_node_representations(nodes, embs)
        for node in nodes:
            idx = list(range(*node.token_range))
            if len(idx) == 1:
                np.testing.assert_allclose(pooled.data[node.node_id],
                                           embs.data[idx[0]], atol=1e-15)

    def test_rows_are_means_of_token_rows(self):
        _, seq, nodes = _fixture()
        embs = ToyEmbedder(np.random.default_rng(0), dim=8).embed(seq)
        pooled = init_node_representations(nodes, embs)
        for node in nodes:
            idx = list(range(*node.token_range))
            np.testing.assert_allclose(pooled.data[node.node_id],
                                       embs.data[idx].mean(axis=0), atol=1e-12)

    def test_pooling_is_linear_in_the_embeddings(self):
        _, seq, nodes = _fixture()
        embs = ToyEmbedder(np.random.default_rng(0), dim=8).embed(seq)
        base = init_node_representations(nodes, embs).data
        scaled = init_node_representations(nodes, Tensor(3.0 * embs.data)).data
        np.testing.assert_allclose(scaled, 3.0 * base, atol=1e-12)

    def test_node_without_tokens_is_an_error(self):
        _, seq, nodes = _fixture()
        embs = ToyEmbedder(np.random.default_rng(0), dim=8).embed(seq)
        from dataclasses import replace
        lo, _ = nodes.nodes[-1].token_range
        bad = nodes.nodes[:-1] + [replace(nodes.nodes[-1], token_range=(lo, lo))]
        from docreason.elements import NodeSet
        with pytest.raises(EmptySpan):
            init_node_representations(NodeSet(nodes=bad), embs)


class TestCheckpoints:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        layer = Linear(rng, 3, 4, "probe")
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, layer.params(), {"dim": 4, "note": "test"})
        arrays, meta = load_checkpoint(path)
        assert meta == {"dim": 4, "note": "test"}
        np.testing.assert_array_equal(arrays["probe.w"], layer.w.data)
        np.testing.assert_array_equal(arrays["probe.b"], layer.b.data)

    def test_malformed_files_are_a_mismatch_naming_the_path(self, tmp_path):
        def v2(params, payload, **fields):
            header = {"format_version": 2, "dtype": "<f8", "meta": {}, "params": params}
            return json.dumps({**header, **fields}).encode() + b"\n" + payload

        w = np.array([1.0, 2.0]).astype("<f8").tobytes()
        entry = {"name": "w", "shape": [2], "offset": 0}
        second = {"name": "v", "shape": [1], "offset": 16}
        v1 = {"format_version": 1, "meta": {},
              "params": {"w": {"shape": [2], "data": [1.0, 2.0]}}}
        bad_files = [
            (json.dumps(v1).encode(), "unsupported checkpoint version 1 "),
            (v2([entry], b"")[:-1], "header line has no newline"),
            (b"{not json\n" + w, "unreadable checkpoint header"),
            (b'{"format_version": 2, "par', "unreadable checkpoint header"),
            (b"[1, 2]\n" + w, "header is not a JSON object"),
            (v2([entry], w, dtype="<f4"), "unsupported dtype '<f4'"),
            (v2([entry], w, dtype=">f8"), "unsupported dtype '>f8'"),
            (v2([{**entry, "shape": [-2]}], w), "bad shape"),
            (v2([{**entry, "shape": [2.0]}], w), "bad shape"),
            (v2([{**entry, "shape": 2}], w), "bad shape"),
            (v2([{**entry, "offset": 8}], w), "offset 8, expected 0"),
            (v2([entry, {**second, "offset": 8}], w + w[:8]), "offset 8, expected 16"),
            (v2([entry, {**entry, "offset": 16}], w + w), "duplicate parameter name 'w'"),
            (v2([{"shape": [2], "offset": 0}], w), "parameter name None"),
            (v2([[1, 2]], w), "parameter name None"),
            (v2([entry], w[:-1]), "truncated payload"),
            (v2([entry], w + b"\0"), "trailing bytes"),
            # the size check comes before any buffer of the described size exists
            (v2([entry, {**second, "shape": [2**40, 2**20]}], w), "truncated payload"),
            (v2({"w": entry}, w), "'params' list"),
            (v2([entry], w, meta=3), "'meta' object"),
        ]
        path = tmp_path / "model.ckpt"
        for data, reason in bad_files:
            path.write_bytes(data)
            with pytest.raises(CheckpointMismatch, match=r"model\.ckpt: .*" + re.escape(reason)):
                load_checkpoint(str(path))
        with pytest.raises(CheckpointMismatch, match="missing.ckpt"):
            load_checkpoint(str(tmp_path / "missing.ckpt"))
        path.write_bytes(v2([entry, second], w + w[:8]))
        arrays, _meta = load_checkpoint(str(path))
        np.testing.assert_array_equal(arrays["w"], [1.0, 2.0])
        np.testing.assert_array_equal(arrays["v"], [1.0])

    def test_a_loaded_model_adopts_the_arrays_and_saves_the_same_bytes(self, tmp_path):
        first, again = tmp_path / "model.ckpt", tmp_path / "again.ckpt"
        model = Model(ModelConfig(dim=4, gcn_layers=1))
        save_checkpoint(str(first), model.params(), model.checkpoint_meta())
        arrays, meta = load_checkpoint(str(first))
        dim, gcn_layers = Model.architecture(arrays)
        loaded = Model(ModelConfig(dim=dim, gcn_layers=gcn_layers, seed=1))
        loaded.load_params(arrays)
        for name, tensor in loaded.params().items():
            assert np.shares_memory(tensor.data, arrays[name]), name
        save_checkpoint(str(again), loaded.params(), meta)
        assert again.read_bytes() == first.read_bytes()

    def test_architecture_is_read_from_the_arrays(self):
        layer = "gcn.semantic.layer{}.w".format
        model = Model(ModelConfig(dim=4, gcn_layers=3))
        assert Model.architecture({k: t.data for k, t in model.params().items()}) == (4, 3)
        # only consecutive (dim, dim) weights count as layers
        arrays = {layer(0): np.zeros((3, 3)), layer(1): np.zeros((3, 3)),
                  layer(2): np.zeros((3, 4)), layer(3): np.zeros((3, 3))}
        assert Model.architecture(arrays) == (3, 2)
        for shape in (None, (3,), (3, 4), (0, 0), (2, 2, 2)):
            arrays = {} if shape is None else {layer(0): np.zeros(shape)}
            with pytest.raises(CheckpointMismatch,
                               match=re.escape(f"model.ckpt: {layer(0)} has shape {shape}, ")):
                Model.architecture(arrays, "model.ckpt")

    def test_unknown_version_is_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_text(json.dumps({"format_version": 99, "meta": {}, "params": {}}))
        with pytest.raises(CheckpointMismatch):
            load_checkpoint(str(path))
