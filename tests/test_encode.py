"""Encoder front end and head glue: the token columns and token ranges
recorded at ingest, whole-matrix pooling, the gathering embedder,
Model.encode, token masking and node selection, each against a test-only
copy of the per-token, per-node, one-row code they replace; Model.encode
also against its gather form."""

from typing import NamedTuple

import numpy as np
import pytest

from docreason import nn, synthetic
from docreason.autodiff import Tensor, concat, finite_difference
from docreason.document import ingest_document, tokenize, transform_multipage
from docreason.elements import NodeKind, build_node_inventory
from docreason.errors import EmptySpan
from docreason.graphs import GraphKind
from docreason.heads import NodeSelection, classify_nodes, mask_and_update_tokens
from docreason.model import Model, ModelConfig
from docreason.nn import (FFN2, ToyEmbedder, _hash_vector, _position_encoding,
                          init_node_representations)
from docreason.pipeline import build_instance, load_corpus
from docreason.tree import span_to_text
from docreason.vocab import token_slot, tokenize_text

CORPUS = "data/synthetic-50.json"

_ROW_LABELS = ["segment sales", "operating costs", "net interest", "capital spend"]


# -- test-only reference: the per-token / per-node / one-row code ----------


class _Token(NamedTuple):
    """One token as the sequence once kept it: a record per token."""

    text: str
    block_id: int | None  # None: the question
    start: int  # char span in the source text
    end: int
    box: list[int] | None


def _reference_tokens(canon, question, max_len) -> list[_Token]:
    """The per-token records, rebuilt from tokenize_text per source."""
    tokens = [_Token(t, None, s, e, None) for t, s, e in tokenize_text(question)]
    for block in canon.blocks:
        if len(tokens) >= max_len:
            break
        for t, s, e in tokenize_text(block.text):
            tokens.append(_Token(t, block.block_id, s, e, block.box.as_list()))
            if len(tokens) >= max_len:
                break
    return tokens


def _instance_tokens(inst) -> list[_Token]:
    # a sequence cut at max_len holds max_len tokens, so its own length
    # rebuilds the same prefix
    return _reference_tokens(inst.canon, inst.question, len(inst.seq))


def _reference_ranges(tokens) -> dict[int | None, tuple[int, int]]:
    """Token positions per source (None: the question), one run each."""
    ranges = {None: (0, 0)}
    for i, tok in enumerate(tokens):
        lo, _ = ranges.get(tok.block_id, (i, i))
        ranges[tok.block_id] = (lo, i + 1)
    return ranges


def _scan_range(tokens, block_id, start, end) -> list[int]:
    return [i for i, tok in enumerate(tokens)
            if tok.block_id == block_id and tok.start < end and start < tok.end]


def _scan_inside(tokens, block_id, start, end) -> list[int]:
    return [i for i, tok in enumerate(tokens)
            if tok.block_id == block_id and start <= tok.start and tok.end <= end]


def _scan_indices(node, tokens) -> list[int]:
    if node.kind in (NodeKind.QUESTION, NodeKind.BLOCK):
        return [i for i, tok in enumerate(tokens) if tok.block_id == node.block_id]
    return _scan_range(tokens, node.block_id, node.start, node.end)


def _reference_span_text(tokens, start, end, source_texts) -> str:
    pieces = []
    i = start
    while i <= end:
        src = tokens[i].block_id
        j = i
        while j + 1 <= end and tokens[j + 1].block_id == src:
            j += 1
        lo = min(tokens[k].start for k in range(i, j + 1))
        hi = max(tokens[k].end for k in range(i, j + 1))
        pieces.append(source_texts[src][lo:hi])
        i = j + 1
    return " ".join(pieces)


def _reference_embed(embedder, tokens) -> Tensor:
    n = len(tokens)
    base = np.empty((n, embedder.dim))
    slots = np.empty(n, dtype=np.int64)
    for i, tok in enumerate(tokens):
        base[i] = _hash_vector(tok.text, embedder.dim, embedder.seed)
        box = np.zeros(4) if tok.box is None else np.array(tok.box) / 1000.0
        base[i] += box @ embedder._box_proj
        slots[i] = token_slot(tok.text)
    base += _position_encoding(n, embedder.dim)
    return embedder.table.take_rows(slots) + Tensor(base)


def _reference_pool(nodes, token_embs, tokens) -> Tensor:
    rows = []
    for node in nodes.nodes:
        idx = _scan_indices(node, tokens)
        if not idx:
            raise EmptySpan(f"node {node.node_id} covers no tokens")
        rows.append(token_embs.take_rows(np.asarray(idx)).mean(axis=0, keepdims=True))
    return concat(rows, axis=0)


def _reference_mask(token_embs, sel, nodes, sd_reprs, seq):
    owner_row = np.zeros(len(seq), dtype=np.int64)
    valid = np.zeros(len(seq), dtype=bool)
    selected = set(sel.selected)
    for node in nodes.nodes:
        if node.node_id not in selected:
            continue
        if node.kind == NodeKind.QUESTION:
            lo, hi = seq.source_range(None)
        elif node.kind == NodeKind.BLOCK:
            lo, hi = seq.block_ranges[node.block_id]
        else:
            continue
        owner_row[lo:hi] = node.node_id
        valid[lo:hi] = True
    mask_col = Tensor(valid.astype(np.float64)[:, None])
    owners = sd_reprs.take_rows(owner_row) * mask_col
    return concat([token_embs * mask_col, owners], axis=1), valid


def _reference_selection(probs, max_nodes) -> list[int]:
    over = [i for i in range(len(probs)) if probs[i] > 0.5]
    over.sort(key=lambda i: (-probs[i], i))
    return sorted(over[:max_nodes])


def _reference_encode(model, instance, rng=None):
    tokens = _instance_tokens(instance)
    token_embs = _reference_embed(model.embedder, tokens)
    init = _reference_pool(instance.nodes, token_embs, tokens)
    rows = [init.slice_rows(i, i + 1) for i in range(len(instance.nodes))]
    for kind in (GraphKind.TEXT, GraphKind.QUANTITY, GraphKind.DATE):
        graph = instance.graphs[kind]
        if graph.num_nodes == 0:
            continue
        member_rows = concat([rows[nid] for nid in graph.node_ids], axis=0)
        out = model.gcns[kind](graph, member_rows, rng)
        for pos, nid in enumerate(graph.node_ids):
            rows[nid] = out.slice_rows(pos, pos + 1)
    sd_reprs = model.gcns[GraphKind.SEMANTIC](instance.graphs[GraphKind.SEMANTIC],
                                              concat(rows, axis=0), rng)
    return token_embs, sd_reprs, sd_reprs.mean(axis=0)


def _gather_encode(model, instance, rng=None):
    """Model.encode as it was before the kind runs: each GCN gathers its
    members' rows, and one gather puts the outputs back in node order."""
    token_embs = model.embedder.embed(instance.seq, instance.qid)
    init = init_node_representations(instance.nodes, token_embs)
    outs, order = [], []
    for kind in (GraphKind.TEXT, GraphKind.QUANTITY, GraphKind.DATE):
        graph = instance.graphs[kind]
        if graph.num_nodes == 0:
            continue
        outs.append(model.gcns[kind](graph, init.take_rows(graph.node_ids), rng))
        order.extend(graph.node_ids)
    sd_init = concat(outs, axis=0).take_rows(np.argsort(order))
    sd_reprs = model.gcns[GraphKind.SEMANTIC](instance.graphs[GraphKind.SEMANTIC],
                                              sd_init, rng)
    return token_embs, sd_reprs, sd_reprs.mean(axis=0)


# -- inputs ----------------------------------------------------------------


def _widen(record: dict, rng: np.random.Generator, rows: int = 12, quantities: int = 17) -> dict:
    """Distractor table-row blocks after the evidence blocks: three year
    headers and `quantities` comma-grouped amounts each."""
    blocks = [dict(b) for b in record["blocks"]]
    page = len(record["pages"]) - 1
    first = len(blocks)
    for k in range(rows):
        year = int(rng.integers(2010, 2019))
        amounts = " ".join(f"{int(rng.integers(1, 1000))},{int(rng.integers(0, 1000)):03d}"
                           for _ in range(quantities))
        label = _ROW_LABELS[int(rng.integers(len(_ROW_LABELS)))]
        top = 330 + 52 * k
        blocks.append({"block_id": first + k, "page_index": page, "order": first + k,
                       "text": f"{label} {year} {year + 1} {year + 2}: {amounts}",
                       "box": [40, top, 960, top + 44]})
    return {**record, "blocks": blocks}


@pytest.fixture(scope="module")
def bundled():
    return load_corpus(CORPUS)


@pytest.fixture(scope="module")
def widened():
    rng = np.random.default_rng(7)
    return [build_instance(_widen(r, rng), max_len=1024)
            for r in synthetic.generate_corpus(6, seed=31)]


@pytest.fixture(scope="module")
def truncated():
    """Synthetic records cut at a max_len inside their block tokens, so that
    later blocks and elements are dropped; those without a surviving
    element are left out."""
    rng = np.random.default_rng(12)
    out = []
    for record in synthetic.generate_corpus(30, seed=13):
        full = build_instance(record, max_len=4096, with_gold=False)
        max_len = int(rng.integers(full.seq.question_len + 1, len(full.seq)))
        inst = build_instance(record, max_len=max_len, with_gold=False)
        if len(inst.nodes) < len(full.nodes):
            out.append(inst)
    assert len(out) >= 10
    return out


def _bytes(t: Tensor) -> bytes:
    return t.data.tobytes()


# -- tests -----------------------------------------------------------------


def _assert_matches_reference(seq, tokens, source_texts, rng):
    """The columns, source ranges, bisections and span texts of a sequence
    against the per-token records."""
    assert len(seq) == len(tokens)
    assert [seq.texts[i] for i in seq.text_ids] == [t.text for t in tokens]
    assert len(set(seq.texts)) == len(seq.texts)
    assert seq.slots.tolist() == [token_slot(t.text) for t in tokens]
    assert (list(seq.starts), list(seq.ends)) == ([t.start for t in tokens],
                                                  [t.end for t in tokens])
    assert [seq.block_ids[k] for k in seq.source_ids] == [t.block_id for t in tokens]
    assert seq.source_boxes[seq.source_ids].tolist() == [t.box or [0, 0, 0, 0] for t in tokens]
    for name in ("text_ids", "slots", "source_ids"):
        assert getattr(seq, name).dtype.kind == "i", name
    ranges = _reference_ranges(tokens)
    assert seq.source_range(None) == ranges.pop(None)
    assert seq.block_ranges == ranges
    for block_id in [None, *seq.block_ranges]:
        length = len(source_texts[block_id])
        for _ in range(20):
            start = int(rng.integers(0, length + 2))
            end = start + int(rng.integers(0, 12))
            assert list(range(*seq.overlap_range(block_id, start, end))) == \
                _scan_range(tokens, block_id, start, end)
            assert list(range(*seq.inside_range(block_id, start, end))) == \
                _scan_inside(tokens, block_id, start, end)
    for _ in range(20):
        start = int(rng.integers(0, len(seq)))
        end = int(rng.integers(start, min(len(seq), start + 40)))
        assert span_to_text(seq, start, end, source_texts) == \
            _reference_span_text(tokens, start, end, source_texts)


class TestTokenRanges:
    def test_bisected_range_equals_linear_scan(self):
        """Untruncated and cut between two tokens of one block."""
        rng = np.random.default_rng(0)
        for record in synthetic.generate_corpus(12, seed=5):
            canon = transform_multipage(ingest_document(record))
            texts = {None: record["question"], **{b.block_id: b.text for b in canon.blocks}}
            full = _reference_tokens(canon, record["question"], 4096)
            inside = [i for i in range(1, len(full))
                      if full[i - 1].block_id == full[i].block_id is not None]
            for max_len in (len(full), *rng.choice(inside, 2, replace=False).tolist()):
                seq = tokenize(canon, record["question"], max_len=max_len)
                tokens = _reference_tokens(canon, record["question"], max_len)
                assert len(tokens) == max_len
                _assert_matches_reference(seq, tokens, texts, rng)

    def test_node_token_indices_and_inventory_match_the_scan(self, bundled, widened, truncated):
        for inst in bundled + widened + truncated:
            tokens = _instance_tokens(inst)
            for node in inst.nodes:
                assert list(range(*node.token_range)) == _scan_indices(node, tokens)
        record = synthetic.generate_corpus(3, seed=9)[2]
        canon = transform_multipage(ingest_document(record))
        seq = tokenize(canon, record["question"], max_len=40)
        inventory = build_node_inventory(canon, record["question"], seq)
        tokens = _reference_tokens(canon, record["question"], 40)
        for node in inventory:
            assert _scan_indices(node, tokens)

    def test_index_arrays_describe_the_tokens(self, bundled, widened, truncated):
        rng = np.random.default_rng(4)
        for inst in bundled + widened + truncated:
            _assert_matches_reference(inst.seq, _instance_tokens(inst), inst.source_texts, rng)


def _concat_embed(embedder, seq) -> Tensor:
    """ToyEmbedder.embed as it was: the hash vectors of the distinct texts,
    one _hash_vector call each, concatenated and gathered by text_ids."""
    hashes = np.concatenate([_hash_vector(t, embedder.dim, embedder.seed)
                             for t in seq.texts]).reshape(-1, embedder.dim)
    box_rows = np.array([f @ embedder._box_proj for f in seq.source_boxes / nn.COORD_SCALE])
    base = hashes[seq.text_ids] + box_rows[seq.source_ids]
    base += _position_encoding(len(seq), embedder.dim)
    return embedder.table.take_rows(seq.slots) + Tensor(base)


class TestEmbedHashRows:
    def test_matches_the_per_text_concatenate_across_records_and_embedders(
            self, bundled, widened, truncated):
        first = ToyEmbedder(np.random.default_rng(0), 16, 3)
        second = ToyEmbedder(np.random.default_rng(1), 16, 3)  # shares first's rows
        other = ToyEmbedder(np.random.default_rng(0), 16, 4)  # a table of its own
        assert first._hashes is second._hashes is not other._hashes
        for inst in bundled + widened + truncated + bundled[:5]:
            for embedder in (first, second, other):
                got = embedder.embed(inst.seq)
                assert _bytes(got) == _bytes(_concat_embed(embedder, inst.seq)), inst.qid

    def test_a_full_table_starts_over(self, bundled, widened, monkeypatch):
        monkeypatch.setattr(nn, "_HASH_ROWS_MAX", 700)
        embedder = ToyEmbedder(np.random.default_rng(0), 8, 5)
        hashes = nn._HashRows(8, 5)
        embedder._hashes = hashes
        sizes = []
        for inst in widened + bundled[:10] + widened:
            got = embedder.embed(inst.seq)
            assert _bytes(got) == _bytes(_concat_embed(embedder, inst.seq)), inst.qid
            sizes.append(len(hashes.index))
            assert sizes[-1] <= 700 and len(hashes.table) <= 700
        assert any(b < a for a, b in zip(sizes, sizes[1:]))  # it started over
        # a record with more distinct texts than the bound gets them all
        monkeypatch.setattr(nn, "_HASH_ROWS_MAX", 10)
        seq = widened[0].seq
        assert _bytes(embedder.embed(seq)) == _bytes(_concat_embed(embedder, seq))
        assert len(hashes.index) == len(seq.texts) > 10


class TestPooling:
    # Width 1 is left out: numpy sums a (k, 1) block of one node's rows
    # pairwise once k > 8, where the pooling adds them one by one, so the two
    # can part in the last bit. From width 2 on, both add rows in order.
    @pytest.mark.parametrize("width", [2, 6, 32, 64])
    def test_matches_per_node_reference_by_bytes(self, bundled, widened, truncated, width):
        wide = _instance_tokens(widened[0])
        counts = {len(_scan_indices(n, wide)) for n in widened[0].nodes}
        assert len(counts) >= 4
        rng = np.random.default_rng(1)
        for inst in bundled + widened + truncated:
            tokens = _instance_tokens(inst)
            x = rng.normal(size=(len(inst.seq), width))
            for quantity in inst.nodes.by_kind(NodeKind.QUANTITY)[:1]:
                x[_scan_indices(quantity, tokens)] = -0.0
            x[0, :3] = -0.0
            embs = Tensor(x)
            got = init_node_representations(inst.nodes, embs)
            assert _bytes(got) == _bytes(_reference_pool(inst.nodes, embs, tokens)), inst.qid

    def test_gradient_matches_finite_differences(self, bundled):
        inst = bundled[0]
        rng = np.random.default_rng(2)
        embs = Tensor(rng.normal(size=(len(inst.seq), 3)), requires_grad=True)
        weights = Tensor(rng.normal(size=(len(inst.nodes), 3)))

        def loss():
            pooled = init_node_representations(inst.nodes, embs)
            return (pooled * pooled * weights).sum()

        embs.zero_grad()
        loss().backward()
        numeric = finite_difference(loss, embs)
        denom = np.maximum(np.abs(numeric), 1e-8)
        assert float(np.max(np.abs(embs.grad - numeric) / denom)) < 1e-6


class TestEncode:
    @pytest.mark.parametrize("train", [False, True])
    def test_matches_one_row_reference_by_bytes(self, bundled, widened, truncated, train):
        model = Model(ModelConfig(dim=16, seed=4))
        for i, inst in enumerate(bundled + widened + truncated):
            got = model.encode(inst, np.random.default_rng(i) if train else None)
            want = _reference_encode(model, inst, np.random.default_rng(i) if train else None)
            for a, b in zip(got, want):
                assert _bytes(a) == _bytes(b), inst.qid

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
    @pytest.mark.parametrize("seed", range(5))
    def test_two_quantities_of_one_block_keep_distinct_rows(self, seed):
        """The graph encoders keep what tells two elements apart: here two
        amounts of one sentence, each with its own year."""
        record = {
            "doc_id": "same-block", "question": "What was the change in revenue?",
            "pages": [{"width": 800, "height": 1000}],
            "blocks": [{"block_id": 0, "page_index": 0, "order": 0, "box": [10, 10, 700, 40],
                        "text": "The revenue was 1200 in 2019 and 45 in 2018."}]}
        inst = build_instance(record, with_gold=False)
        quantities = inst.nodes.runs[NodeKind.QUANTITY]
        assert quantities.stop - quantities.start == 2
        _, sd_reprs, _ = Model(ModelConfig(dim=16, seed=seed)).encode(inst)
        first, second = sd_reprs.data[quantities]
        assert first.tobytes() != second.tobytes()

    def test_gradients_match_the_reference(self, bundled, widened):
        model = Model(ModelConfig(dim=16, seed=6))
        params = model.params()
        for inst in bundled[:8] + widened[:3]:
            w = np.random.default_rng(len(inst.seq)).normal(size=(len(inst.nodes), 16))
            grads = []
            for encode in (model.encode, lambda x: _reference_encode(model, x)):
                for p in params.values():
                    p.zero_grad()
                token_embs, sd_reprs, h_sd = encode(inst)
                loss = (sd_reprs * Tensor(w)).sum() + (h_sd * h_sd).sum() \
                    + (token_embs * token_embs).sum()
                loss.backward()
                grads.append({name: p.grad for name, p in params.items() if p.grad is not None})
            assert grads[0].keys() == grads[1].keys()
            for name in grads[0]:
                np.testing.assert_allclose(grads[0][name], grads[1][name],
                                           rtol=1e-12, atol=1e-15, err_msg=name)

    def test_matches_the_gather_encode_by_bytes_in_train_mode(self, bundled, widened,
                                                             truncated):
        # Outputs and every parameter gradient, with dropout drawn from the
        # same seeded rng, so the GCN call order is checked too.
        model = Model(ModelConfig(dim=8, seed=5, gcn_dropout=0.6))
        params, covered = model.params(), set()
        for i, inst in enumerate(bundled + widened + truncated):
            w = np.random.default_rng(i).normal(size=(len(inst.nodes), 8))
            outs, grads = [], []
            for encode in (model.encode, lambda *args: _gather_encode(model, *args)):
                for p in params.values():
                    p.zero_grad()
                out = encode(inst, np.random.default_rng(100 + i))
                token_embs, sd_reprs, h_sd = out
                loss = (sd_reprs * Tensor(w)).sum() + (h_sd * h_sd).sum() \
                    + (token_embs * token_embs).sum()
                loss.backward()
                outs.append([_bytes(t) for t in out])
                grads.append({name: p.grad.tobytes() for name, p in params.items()
                              if p.grad is not None})
            assert outs[0] == outs[1], inst.qid
            assert grads[0] == grads[1], inst.qid
            covered |= grads[0].keys()
        assert {name for name in params if name.startswith(("gcn.", "embedder."))} <= covered


class TestHeadGlue:
    def test_valid_rows_match_the_node_loop_by_bytes(self, bundled, widened, truncated):
        # The rows are the node loop's full-length rows at the valid
        # positions, and the gradients a loss on them sends back equal that
        # loss's gradients through the full-length matrix.
        rng, w_rng = np.random.default_rng(8), np.random.default_rng(18)
        for inst in bundled + widened + truncated:
            n, m = len(inst.seq), len(inst.nodes)
            embs = Tensor(rng.normal(size=(n, 4)), requires_grad=True)
            reprs = Tensor(rng.normal(size=(m, 4)), requires_grad=True)
            choices = [[], list(range(m)), [m - 1],
                       sorted(rng.choice(m, size=min(m, 12), replace=False).tolist()),
                       [int(i) for i in rng.integers(0, m, size=5)]]  # unsorted, repeats
            for selected in choices:
                sel = NodeSelection(selected=selected, probabilities=np.zeros(m),
                                    log_probs=Tensor(np.zeros((m, 2))))
                got = mask_and_update_tokens(embs, sel, inst.nodes, reprs, inst.seq)
                matrix, valid = _reference_mask(embs, sel, inst.nodes, reprs, inst.seq)
                positions = np.flatnonzero(valid)
                assert got.valid_mask.tobytes() == valid.tobytes(), (inst.qid, selected)
                assert got.positions.tolist() == positions.tolist(), (inst.qid, selected)
                assert _bytes(got.matrix) == matrix.data[positions].tobytes(), \
                    (inst.qid, selected)
                w = w_rng.normal(size=(n, 8))
                grads = []
                for loss in ((got.matrix * Tensor(w[positions])).sum(),
                             (matrix * Tensor(w)).sum()):
                    embs.zero_grad()
                    reprs.zero_grad()
                    loss.backward()
                    grads.append((embs.grad, reprs.grad))
                for g, ref in zip(*grads):
                    assert np.array_equal(g, ref), (inst.qid, selected)

    def test_selection_matches_the_sorted_loop(self, bundled, widened, truncated):
        rng = np.random.default_rng(9)
        ffn = FFN2(np.random.default_rng(1), 4, 2, "probe", drop=0.0)
        for inst in bundled + widened + truncated:
            m = len(inst.nodes)
            reprs = rng.normal(size=(m, 4))
            reprs[rng.integers(0, m, size=m // 2)] = reprs[0]  # tied probabilities
            for bias in (-1.0, 0.0, 1.0):
                ffn.l2.b.data[:] = [0.0, bias]
                for max_nodes in (1, 3, 12, m):
                    sel = classify_nodes(Tensor(reprs), ffn, max_nodes)
                    want = _reference_selection(sel.probabilities, max_nodes)
                    assert sel.selected == want, (inst.qid, bias, max_nodes)
                    assert all(type(i) is int for i in sel.selected)
