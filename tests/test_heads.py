"""Node selection, token masking, span/BIO heads, and summary classifiers."""

import numpy as np
import pytest

from docreason.autodiff import Tensor, add_masked, concat
from docreason.document import ingest_document, tokenize, transform_multipage
from docreason.elements import NodeKind, build_node_inventory
from docreason.errors import GoldOverCap, NoValidTokens, ValidationError
from docreason.heads import (
    ANSWER_TYPES,
    BIO_B,
    BIO_I,
    BIO_O,
    SCALES,
    NodeSelection,
    UpdatedTokens,
    bio_spans,
    classify_answer_type,
    classify_nodes,
    classify_scale,
    inject_gold_nodes,
    mask_and_update_tokens,
    predict_span,
    tag_tokens,
)
from docreason.nn import FFN2, ToyEmbedder, init_node_representations
from docreason.training import nll_rows


def _ffn(fan_in, fan_out, seed=0):
    return FFN2(np.random.default_rng(seed), fan_in, fan_out, "head", drop=0.0)


def _instance(texts=("Paid 7 in cash.", "Then 9 more."), dim=8):
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
    question = "How much was paid?"
    seq = tokenize(canon, question)
    nodes = build_node_inventory(canon, question, seq)
    embs = ToyEmbedder(np.random.default_rng(0), dim=dim).embed(seq)
    reprs = init_node_representations(nodes, embs)
    return seq, nodes, embs, reprs


def _selection(probs):
    probs = np.clip(np.asarray(probs, dtype=np.float64), 1e-12, 1 - 1e-12)
    lp = np.stack([np.log1p(-probs), np.log(probs)], axis=1)
    selected = sorted(i for i in range(len(probs)) if probs[i] > 0.5)
    return NodeSelection(selected=selected, probabilities=probs,
                         log_probs=Tensor(lp))


class TestNodeSelection:
    def test_threshold_and_cap(self):
        _, _, _, reprs = _instance()
        sel = classify_nodes(reprs, _ffn(8, 2), max_nodes=2)
        assert len(sel.selected) <= 2
        for nid in sel.selected:
            assert sel.probabilities[nid] > 0.5
        assert sel.selected == sorted(sel.selected)

    def test_cap_keeps_highest_probabilities(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            probs = rng.uniform(0.51, 0.99, size=9)
            sel = _selection(probs)
            capped = inject_gold_nodes(sel, set(), max_nodes=12)
            assert capped.selected == list(range(9))
            # rebuild through classify-like trimming: top-k by probability
            order = sorted(range(9), key=lambda i: (-probs[i], i))[:4]
            assert sorted(order) == sorted(
                sorted(range(9), key=lambda i: -probs[i])[:4])

    def test_probabilities_are_proper(self):
        _, _, _, reprs = _instance()
        sel = classify_nodes(reprs, _ffn(8, 2))
        total = np.exp(sel.log_probs.data).sum(axis=1)
        np.testing.assert_allclose(total, np.ones(len(total)), atol=1e-12)


class TestGoldInjection:
    def test_gold_nodes_always_present(self):
        sel = _selection([0.9, 0.8, 0.7, 0.1, 0.05])
        out = inject_gold_nodes(sel, {3, 4}, max_nodes=12)
        assert {3, 4} <= set(out.selected)

    def test_eviction_drops_lowest_probability_non_gold(self):
        sel = _selection([0.9, 0.8, 0.7, 0.6, 0.05])
        out = inject_gold_nodes(sel, {4}, max_nodes=4)
        assert out.selected == [0, 1, 2, 4]

    def test_gold_over_cap_is_an_error(self):
        sel = _selection([0.9, 0.8, 0.7])
        with pytest.raises(GoldOverCap, match="3 gold nodes exceed the cap of 2"):
            inject_gold_nodes(sel, {0, 1, 2}, max_nodes=2)
        assert issubclass(GoldOverCap, ValidationError)  # an input fault: exit 2

    def test_rejected_at_inference(self):
        sel = _selection([0.9])
        with pytest.raises(ValidationError):
            inject_gold_nodes(sel, {0}, train=False)


class TestTokenUpdate:
    def test_covered_tokens_get_owner_representation(self):
        seq, nodes, embs, reprs = _instance()
        q = nodes.question_node()
        sel = _selection([0.0] * len(nodes))
        sel.selected.append(q.node_id)
        u = mask_and_update_tokens(embs, sel, nodes, reprs, seq)
        lo, hi = seq.source_range(None)
        np.testing.assert_array_equal(u.valid_mask[lo:hi], True)
        assert u.positions.tolist() == list(range(lo, hi))
        np.testing.assert_allclose(u.matrix.data[:, :8], embs.data[lo:hi])
        np.testing.assert_allclose(
            u.matrix.data[:, 8:],
            np.tile(reprs.data[q.node_id], (hi - lo, 1)))

    def test_only_covered_tokens_get_rows(self):
        seq, nodes, embs, reprs = _instance()
        b0 = nodes.block_node(0)
        sel = _selection([0.0] * len(nodes))
        sel.selected.append(b0.node_id)
        u = mask_and_update_tokens(embs, sel, nodes, reprs, seq)
        lo, hi = seq.block_ranges[0]
        assert (~u.valid_mask).any()
        assert np.flatnonzero(u.valid_mask).tolist() == list(range(lo, hi))
        assert u.positions.tolist() == list(range(lo, hi))
        assert u.matrix.data.shape == (hi - lo, 16)
        want = np.hstack([embs.data[lo:hi], np.tile(reprs.data[b0.node_id], (hi - lo, 1))])
        assert u.matrix.data.tobytes() == want.tobytes()

    def test_leaf_nodes_do_not_own_tokens(self):
        seq, nodes, embs, reprs = _instance()
        leaf = nodes.by_kind(NodeKind.QUANTITY)[0]
        sel = _selection([0.0] * len(nodes))
        sel.selected.append(leaf.node_id)
        u = mask_and_update_tokens(embs, sel, nodes, reprs, seq)
        assert not u.valid_mask.any()


def _loop_span(s_row, e_row, valid, max_span_len):
    """The double loop predict_span replaced: the first strict maximum of
    s_row[s] + e_row[e] over valid s <= e < s + max_span_len."""
    best, best_score = None, -np.inf
    for s in np.nonzero(valid)[0]:
        for e in range(s, min(s + max_span_len, len(e_row))):
            if not valid[e]:
                continue
            score = s_row[s] + e_row[e]
            if score > best_score:
                best, best_score = (int(s), int(e)), score
    return best


class _Logits:
    """An FFN stand-in that returns fixed logits, one per valid row."""

    def __init__(self, logits):
        self.logits = logits

    def __call__(self, x, rng=None):
        assert x.data.shape[0] == len(self.logits)
        return Tensor(self.logits[:, None])


class TestSpanHead:
    def test_banded_argmax_over_valid_rows_matches_the_loop_on_ties(self):
        rng = np.random.default_rng(17)
        for _ in range(600):
            n = int(rng.integers(1, 40))
            valid = rng.random(n) < rng.uniform(0.2, 1.0)
            valid[rng.integers(n)] = True
            positions = np.flatnonzero(valid)
            u = UpdatedTokens(matrix=Tensor(np.zeros((len(positions), 2))), valid_mask=valid,
                              positions=positions)
            # few distinct integer logits, so scores tie often
            starts, ends = rng.integers(0, 3, size=(2, n)).astype(float)
            max_span_len = int(rng.integers(1, n + 4))
            start_lp, end_lp, span = predict_span(u, _Logits(starts[valid]), _Logits(ends[valid]),
                                                max_span_len)
            want = _loop_span(start_lp.data[0], end_lp.data[0], valid, max_span_len)
            assert span == want, (n, max_span_len)
            assert all(type(i) is int for i in span)
            for lp, logits in ((start_lp, starts), (end_lp, ends)):
                assert np.all(np.exp(lp.data[0][~valid]) == 0.0)
                shifted = logits[valid] - logits[valid].max()
                np.testing.assert_allclose(lp.data[0][valid],
                                           shifted - np.log(np.exp(shifted).sum()),
                                           rtol=0, atol=1e-12)

    def test_decoded_span_is_valid(self):
        seq, nodes, embs, reprs = _instance()
        sel = _selection([0.9] * len(nodes))
        u = mask_and_update_tokens(embs, sel, nodes, reprs, seq)
        start_lp, end_lp, (s, e) = predict_span(u, _ffn(16, 1, 1), _ffn(16, 1, 2))
        assert u.valid_mask[s] and u.valid_mask[e]
        assert s <= e and e - s < 64
        assert start_lp.data.shape == (1, len(seq))
        np.testing.assert_allclose(np.exp(start_lp.data).sum(), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.exp(end_lp.data).sum(), 1.0, atol=1e-12)

    def test_masked_positions_get_vanishing_probability(self):
        seq, nodes, embs, reprs = _instance()
        q = nodes.question_node()
        sel = _selection([0.0] * len(nodes))
        sel.selected.append(q.node_id)
        u = mask_and_update_tokens(embs, sel, nodes, reprs, seq)
        start_lp, _, (s, e) = predict_span(u, _ffn(16, 1, 1), _ffn(16, 1, 2))
        lo, hi = seq.source_range(None)
        assert lo <= s <= e < hi
        probs = np.exp(start_lp.data[0])
        assert probs[~u.valid_mask].max() < 1e-12

    def test_length_cap_binds(self):
        seq, nodes, embs, reprs = _instance()
        sel = _selection([0.9] * len(nodes))
        u = mask_and_update_tokens(embs, sel, nodes, reprs, seq)
        _, _, (s, e) = predict_span(u, _ffn(16, 1, 1), _ffn(16, 1, 2),
                                    max_span_len=1)
        assert s == e

    def test_fully_masked_sequence_is_an_error(self):
        seq, nodes, embs, reprs = _instance()
        sel = _selection([0.0] * len(nodes))
        u = mask_and_update_tokens(embs, sel, nodes, reprs, seq)
        with pytest.raises(NoValidTokens):
            predict_span(u, _ffn(16, 1, 1), _ffn(16, 1, 2))

    def test_dropout_draws_one_mask_over_the_valid_rows_per_ffn(self):
        # the generator ends where two (span) or one (BIO) mask of
        # (valid rows, 2*dim) leave it
        seq, nodes, embs, reprs = _instance()
        sel = _selection([0.0] * len(nodes))
        sel.selected.append(nodes.block_node(0).node_id)
        u = mask_and_update_tokens(embs, sel, nodes, reprs, seq)
        assert 0 < len(u.positions) < len(seq)
        heads = [FFN2(np.random.default_rng(i), 16, out, "head", drop=0.3)
                 for i, out in enumerate((1, 1, 3))]
        for run, draws in ((lambda r: predict_span(u, *heads[:2], rng=r), 2),
                           (lambda r: tag_tokens(u, heads[2], r), 1)):
            got, want = np.random.default_rng(5), np.random.default_rng(5)
            run(got)
            for _ in range(draws):
                want.random((len(u.positions), 16))
            assert got.bit_generator.state == want.bit_generator.state


def _loop_bio_spans(labels):
    """bio_spans as a walk over the labels, with the O after the end closing
    a span that is still open."""
    spans, start = [], None
    for i, lab in enumerate([*labels.tolist(), BIO_O]):
        if start is not None and lab != BIO_I:
            spans.append((start, i - 1))
            start = None
        if lab == BIO_B or (lab == BIO_I and start is None):
            start = i
    return spans


class TestBIO:
    def test_masked_tokens_forced_to_outside(self):
        seq, nodes, embs, reprs = _instance()
        q = nodes.question_node()
        sel = _selection([0.0] * len(nodes))
        sel.selected.append(q.node_id)
        u = mask_and_update_tokens(embs, sel, nodes, reprs, seq)
        _, labels = tag_tokens(u, _ffn(16, 3))
        assert len(labels) == len(seq)
        for i, lab in enumerate(labels):
            if not u.valid_mask[i]:
                assert lab == BIO_O

    def test_labels_match_the_per_token_loop(self):
        """Against the loop tag_tokens replaced: O where masked, else the
        first most likely label, also when labels tie."""
        seq, nodes, embs, reprs = _instance()
        sel = _selection([0.0] * len(nodes))
        sel.selected.append(nodes.block_node(0).node_id)
        u = mask_and_update_tokens(embs, sel, nodes, reprs, seq)
        tied = _ffn(16, 3)
        for p in tied.params().values():
            p.data[...] = 0.0
        tied.l2.b.data[:] = (0.0, 1.0, 1.0)  # I and O tie above B
        for ffn in (_ffn(16, 3), _ffn(16, 3, 5), tied):
            log_probs, labels = tag_tokens(u, ffn)
            want = [int(np.argmax(row)) if valid else BIO_O
                    for row, valid in zip(log_probs.data, u.valid_mask)]
            assert labels.tolist() == want
        assert set(labels.tolist()) == {BIO_I, BIO_O}

    def test_decode_fixtures(self):
        B, I, O = BIO_B, BIO_I, BIO_O
        cases = {
            (B, I, O): [(0, 1)],
            (O, B, B, I): [(1, 1), (2, 3)],
            (I, I, O, I): [(0, 1), (3, 3)],
            (O, O): [],
            (B,): [(0, 0)],
        }
        for labels, want in cases.items():
            assert bio_spans(np.array(labels)) == want, labels

    def test_decode_matches_the_label_loop(self):
        """Against the per-label loop bio_spans replaced: random labels
        (I without a B, a span open at the end, empty), and the labels of
        tag_tokens with I and O tied."""
        rng = np.random.default_rng(8)
        cases = [np.array([], dtype=np.int64), np.array([BIO_I]), np.array([BIO_O, BIO_I]),
                 np.array([BIO_B, BIO_I, BIO_I]), np.array([BIO_I, BIO_B, BIO_I])]
        for _ in range(500):
            cases.append(rng.integers(0, 3, int(rng.integers(0, 40))))
        seq, nodes, embs, reprs = _instance()
        sel = _selection([0.0] * len(nodes))
        sel.selected.append(nodes.block_node(0).node_id)
        u = mask_and_update_tokens(embs, sel, nodes, reprs, seq)
        tied = _ffn(16, 3)
        for p in tied.params().values():
            p.data[...] = 0.0
        tied.l2.b.data[:] = (0.0, 1.0, 1.0)
        cases.append(tag_tokens(u, tied)[1])
        for labels in cases:
            assert bio_spans(labels) == _loop_bio_spans(labels), labels.tolist()


class TestSummaryHeads:
    def test_answer_type_head_has_four_classes(self):
        _, _, _, reprs = _instance()
        h_sd = reprs.mean(axis=0)
        out = classify_answer_type(h_sd, _ffn(8, len(ANSWER_TYPES)))
        assert out.probabilities.shape == (4,)
        np.testing.assert_allclose(out.probabilities.sum(), 1.0, atol=1e-12)
        assert out.argmax == int(np.argmax(out.probabilities))

    def test_scale_head_has_five_classes(self):
        _, _, _, reprs = _instance()
        h_sd = reprs.mean(axis=0)
        out = classify_scale(h_sd, _ffn(8, len(SCALES)))
        assert out.probabilities.shape == (5,)
        np.testing.assert_allclose(out.probabilities.sum(), 1.0, atol=1e-12)


def _full_matrix_heads(embs, sel, nodes, reprs, seq, start_ffn, end_ffn, token_ffn,
                       rng):
    """The span and BIO heads as they ran over every token: a (len, 2*dim)
    matrix whose rows are exactly zero outside the selected sources, each
    FFN over all of it with its dropout mask drawn for the valid rows only,
    and the span logits of invalid positions pushed down by 1e9 before the
    softmax."""
    owner_row = np.zeros(len(seq), dtype=np.int64)
    valid = np.zeros(len(seq), dtype=bool)
    sources = range(len(nodes))[nodes.sources]
    for i in sel.selected:
        if i in sources:
            lo, hi = nodes.nodes[i].token_range
            owner_row[lo:hi] = i
            valid[lo:hi] = True
    mask_col = Tensor(valid.astype(np.float64)[:, None])
    matrix = concat([embs * mask_col, reprs.take_rows(owner_row) * mask_col], axis=1)
    n = len(seq)

    def full(ffn):
        h = ffn.l1(matrix).gelu()
        if rng is not None:
            keep = np.ones(h.data.shape)
            keep[valid] = (rng.random((int(valid.sum()), h.data.shape[1])) >= ffn.drop) \
                / (1.0 - ffn.drop)
            h = h * Tensor(keep)
        return ffn.l2(h)

    start_lp, end_lp = (add_masked(full(ffn).reshape((1, n)), valid[None, :]).log_softmax()
                        for ffn in (start_ffn, end_ffn))
    return start_lp, end_lp, full(token_ffn).log_softmax(), valid


def _span_bio_loss(start_lp, end_lp, token_lp, valid, params):
    """The training loss of a span over the first to the last valid token
    and of I on every valid token, and its gradient in each of `params`."""
    positions = np.flatnonzero(valid)
    loss = nll_rows(start_lp, positions[:1]) + nll_rows(end_lp, positions[-1:]) \
        + nll_rows(token_lp, np.where(valid, BIO_I, BIO_O), valid.astype(np.float64))
    for p in params:
        p.zero_grad()
    loss.backward()
    return float(loss.data), [p.grad.copy() for p in params]


class TestAgainstTheFullMatrixPath:
    def test_log_probs_decodes_and_gradients_match(self):
        texts = [f"Row {k}: paid {3 * k + 1} in cash, then {k + 7} more on 12 May 2019."
                 for k in range(6)]
        seq, nodes, embs, reprs = _instance(texts)
        embs = Tensor(embs.data, requires_grad=True)
        reprs = Tensor(reprs.data, requires_grad=True)
        heads = [FFN2(np.random.default_rng(10 + i), 16, out, f"head{i}", drop=0.3)
                 for i, out in enumerate((1, 1, 3))]
        params = [embs, reprs] + [p for ffn in heads for p in ffn.params().values()]
        sources = [nodes.question_node().node_id] + \
            [nodes.block_node(b).node_id for b in range(len(texts))]
        leaf = nodes.by_kind(NodeKind.QUANTITY)[0].node_id
        for selected in ([sources[0]], [sources[2]], sources, [sources[1], sources[4], leaf],
                         list(range(len(nodes)))):
            sel = NodeSelection(selected=sorted(selected), probabilities=np.zeros(len(nodes)),
                                log_probs=Tensor(np.zeros((len(nodes), 2))))
            for train in (False, True):
                rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
                u = mask_and_update_tokens(embs, sel, nodes, reprs, seq)
                start_lp, end_lp, span = predict_span(u, *heads[:2], rng=rng if train else None)
                token_lp, labels = tag_tokens(u, heads[2], rng if train else None)
                ref_start, ref_end, ref_token, valid = _full_matrix_heads(
                    embs, sel, nodes, reprs, seq, *heads, ref_rng if train else None)
                assert u.valid_mask.tobytes() == valid.tobytes()
                assert rng.bit_generator.state == ref_rng.bit_generator.state
                for lp, ref in ((start_lp, ref_start), (end_lp, ref_end)):
                    np.testing.assert_allclose(lp.data[0][valid], ref.data[0][valid],
                                               rtol=0, atol=1e-12)
                    assert np.all(np.exp(lp.data[0][~valid]) == 0.0)
                np.testing.assert_allclose(token_lp.data[valid], ref_token.data[valid],
                                           rtol=0, atol=1e-12)
                assert np.all(token_lp.data[~valid] == 0.0)
                assert span == _loop_span(ref_start.data[0], ref_end.data[0], valid, 64)
                assert labels.tolist() == \
                    np.where(valid, ref_token.data.argmax(axis=1), BIO_O).tolist()
                loss, grads = _span_bio_loss(start_lp, end_lp, token_lp, valid, params)
                ref_loss, ref_grads = _span_bio_loss(ref_start, ref_end, ref_token, valid,
                                                     params)
                assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
                for p, g, ref in zip(params, grads, ref_grads):
                    np.testing.assert_allclose(g, ref, rtol=1e-10, atol=1e-14, err_msg=p.name)
