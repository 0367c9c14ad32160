"""Expression trees: parsing, execution, vocab, beam decoding, assembly."""

import datetime

import numpy as np
import pytest

from docreason.autodiff import Tensor, add_masked, concat
from docreason.document import ingest_document, tokenize, transform_multipage
from docreason.elements import NodeKind, build_node_inventory
from docreason.errors import (
    DivisionByZero,
    InconsistentComponents,
    NoLeafCandidates,
    NonFiniteResult,
    ValidationError,
)
from docreason import tree as tree_module
from docreason.heads import BIO_B, BIO_O, AnswerType, NodeSelection, Scale
from docreason.tree import (
    OPS,
    Answer,
    TreeDecoder,
    TreeNode,
    TreeVocab,
    _apply_token,
    _State,
    assemble_answer,
    decode_tree,
    execute_tree,
    leaf_value,
    parse_tree,
    selection_vocab,
    serialize_tree,
    span_to_text,
    teacher_forced_log_probs,
)


def _instance(texts=("Paid 7 in cash.", "Then 9 more in 2019."),
              question="How much was paid?"):
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
    texts_by_source = {None: question}
    for block in canon.blocks:
        texts_by_source[block.block_id] = block.text
    return seq, nodes, texts_by_source


def _selection(nodes, leaf_ids):
    probs = np.full(len(nodes), 0.01)
    for nid in leaf_ids:
        probs[nid] = 0.99
    lp = np.log(np.stack([1.0 - probs, probs], axis=1))
    return NodeSelection(selected=sorted(leaf_ids), probabilities=probs,
                         log_probs=Tensor(lp))


def _depth(t):
    if t.kind != "op":
        return 0
    return 1 + max(_depth(c) for c in t.children)


def _all_trees(leaves, depth):
    """Every tree whose operator nesting is at most depth."""
    if depth == 0:
        return [TreeNode(k, v) for k, v in leaves]
    smaller = _all_trees(leaves, depth - 1)
    out = [TreeNode(k, v) for k, v in leaves]
    for op in OPS:
        for a in smaller:
            for b in smaller:
                out.append(TreeNode("op", op, (a, b)))
    return out


def _expand_everything_decode(h_sd, sd_reprs, sel, nodes, decoder, beam, max_depth,
                              constants):
    """Reference beam search that builds every (state, token) child and then
    keeps the best `beam`; decode_tree must return exactly what it returns.
    Like decode_tree it scores all alive states in one call per step, since
    a batched row need not equal the same row scored alone, bit for bit.
    Returns the tokens, the log-prob and the number of steps scored."""
    vocab = selection_vocab(sel, nodes, constants)
    cand_embs = decoder.candidate_embeddings(vocab, sd_reprs)
    alive = [_State(h_sd.reshape((1, decoder.dim)), (), (), 0.0)]
    finished = None
    counter = steps = 0
    for _ in range(2 ** (max_depth + 1) - 1):
        if not alive:
            break
        if finished is not None and finished.logp >= alive[0].logp:
            break
        goals = concat([state.goal for state in alive], axis=0)
        allow = np.array([len(state.frames) < max_depth for state in alive])
        lp, ctx = decoder.step_log_probs(goals, sd_reprs, cand_embs, allow, vocab.num_ops)
        steps += 1
        children = []
        for i, state in enumerate(alive):
            for token in range(len(vocab)):
                if not allow[i] and token < vocab.num_ops:
                    continue
                counter += 1
                child = _apply_token(decoder, state, token, float(lp.data[i, token]),
                                     vocab, cand_embs, ctx.slice_rows(i, i + 1), counter)
                if child.goal is None:
                    if finished is None or child.logp > finished.logp:
                        finished = child
                else:
                    children.append(child)
        children.sort(key=lambda s: (-s.logp, s.order))
        alive = children[:beam]
    return list(finished.tokens), finished.logp, steps


def _tiled_step_log_probs(decoder, goal, sd_reprs, cand_embs, allow_ops, num_ops,
                          rng=None):
    """The scorer before factoring: one goal row, tiled and concatenated onto
    every node row for attention and onto every candidate row for scoring."""
    n, n_cand = sd_reprs.data.shape[0], cand_embs.data.shape[0]
    tiled = goal + Tensor(np.zeros((n, decoder.dim)))
    scores = decoder.attn(concat([tiled, sd_reprs], axis=1), rng)
    ctx = scores.reshape((1, n)).softmax() @ sd_reprs
    tiled_g = goal + Tensor(np.zeros((n_cand, decoder.dim)))
    tiled_c = ctx + Tensor(np.zeros((n_cand, decoder.dim)))
    logits = decoder.score(concat([tiled_g, tiled_c, cand_embs], axis=1), rng)
    logits = logits.reshape((1, n_cand))
    if not allow_ops:
        keep = np.ones((1, n_cand), dtype=bool)
        keep[0, :num_ops] = False
        logits = add_masked(logits, keep)
    return logits.log_softmax(), ctx


def _teacher_score(h_sd, sd_reprs, tree, vocab, decoder, max_depth):
    tokens = vocab.tokens_for_tree(tree)
    lps = teacher_forced_log_probs(h_sd, sd_reprs, tokens, vocab, decoder,
                                   max_depth=max_depth)
    return sum(float(lp.data[0][tok]) for lp, tok in zip(lps, tokens))


class TestSerialization:
    def test_round_trip(self):
        cases = [
            "n#4",
            "c#100",
            "(- n#4 n#5)",
            "(/ (- n#4 n#5) n#5)",
            "(* (/ n#3 c#2) (+ c#1 n#7))",
        ]
        for s in cases:
            assert serialize_tree(parse_tree(s)) == s

    def test_parse_rejects_malformed(self):
        for bad in ["(^ n#1 n#2)", "(- n#1", "(- n#1 n#2) extra", "x#3", ""]:
            with pytest.raises(ValidationError):
                parse_tree(bad)

    def test_node_shape_is_validated(self):
        with pytest.raises(ValidationError):
            TreeNode("op", "+", (TreeNode("const", 1),))
        with pytest.raises(ValidationError):
            TreeNode("const", 1, (TreeNode("const", 2),))


class TestExecution:
    def test_arithmetic_fixtures(self):
        _, nodes, _ = _instance()
        values = {n.node_id: n.value for n in nodes.by_kind(NodeKind.QUANTITY)}
        a, b = sorted(values)
        got = execute_tree(parse_tree(f"(- n#{a} n#{b})"), nodes)
        assert abs(got - (values[a] - values[b])) < 1e-12
        got = execute_tree(parse_tree(f"(/ (* n#{a} c#100) n#{b})"), nodes)
        assert abs(got - values[a] * 100 / values[b]) < 1e-12

    def test_division_by_zero(self):
        _, nodes, _ = _instance()
        nid = nodes.by_kind(NodeKind.QUANTITY)[0].node_id
        with pytest.raises(DivisionByZero):
            execute_tree(parse_tree(f"(/ n#{nid} (- c#3 c#3))"), nodes)

    def test_leaf_values_for_dates(self):
        _, nodes, _ = _instance(texts=("From March 2018 to 14 August 2019.",),
                                question="How long between 2016 and now?")
        by_key = {n.date_key: n for n in nodes.by_kind(NodeKind.DATE)}
        assert leaf_value(by_key[(2016, 0, 0)]) == 2016.0
        assert leaf_value(by_key[(2018, 3, 0)]) == float(
            datetime.date(2018, 3, 1).toordinal())
        assert leaf_value(by_key[(2019, 8, 14)]) == float(
            datetime.date(2019, 8, 14).toordinal())

    def test_leaf_value_rejects_structural_nodes(self):
        _, nodes, _ = _instance()
        with pytest.raises(ValidationError):
            leaf_value(nodes.question_node())

    def test_random_trees_match_recursive_oracle(self):
        _, nodes, _ = _instance()
        leaf_ids = [n.node_id for n in nodes.by_kind(NodeKind.QUANTITY)]
        leaves = [("node", nid) for nid in leaf_ids] + [("const", 2), ("const", 5)]
        rng = np.random.default_rng(0)

        def build(depth):
            if depth == 0 or rng.random() < 0.4:
                kind, value = leaves[rng.integers(len(leaves))]
                return TreeNode(kind, value)
            return TreeNode("op", OPS[rng.integers(4)],
                            (build(depth - 1), build(depth - 1)))

        def oracle(t):
            if t.kind == "const":
                return float(t.value)
            if t.kind == "node":
                return leaf_value(nodes.get(t.value))
            a, b = oracle(t.children[0]), oracle(t.children[1])
            return {"+": a + b, "-": a - b, "*": a * b, "/": a / b if b else np.nan}[t.value]

        for _ in range(200):
            t = build(3)
            want = oracle(t)
            if np.isnan(want):
                with pytest.raises(DivisionByZero):
                    execute_tree(t, nodes)
            else:
                assert abs(execute_tree(t, nodes) - want) <= 1e-9 * max(1.0, abs(want))


class TestVocabulary:
    def test_layout_is_ops_constants_then_sorted_leaves(self):
        vocab = TreeVocab([9, 4], constants=[1, 2])
        assert len(vocab) == 4 + 2 + 2
        assert [vocab.describe(i) for i in range(len(vocab))] == [
            ("op", "+"), ("op", "-"), ("op", "*"), ("op", "/"),
            ("const", 1), ("const", 2), ("node", 4), ("node", 9),
        ]

    def test_token_round_trip(self):
        vocab = TreeVocab([4, 9], constants=[1, 2])
        for i in range(len(vocab)):
            kind, value = vocab.describe(i)
            assert vocab.token_for(kind, value) == i

    def test_tree_token_round_trip(self):
        vocab = TreeVocab([4, 9], constants=[1, 2])
        t = parse_tree("(/ (- n#9 n#4) (* c#2 n#4))")
        assert serialize_tree(vocab.tree_from_tokens(vocab.tokens_for_tree(t))) == \
            serialize_tree(t)

    def test_incomplete_token_sequence_is_rejected(self):
        vocab = TreeVocab([4], constants=[1])
        with pytest.raises(ValidationError, match="ends before the tree is complete"):
            vocab.tree_from_tokens([0, 4])  # "+" then one leaf, missing the other
        with pytest.raises(ValidationError):
            vocab.tree_from_tokens([4, 4])  # two trees, not one
        for token in (len(vocab), -1):
            with pytest.raises(ValidationError, match="outside a vocabulary"):
                vocab.tree_from_tokens([0, 4, token])

    def test_selection_vocab_keeps_only_leaf_kinds(self):
        _, nodes, _ = _instance()
        all_ids = [n.node_id for n in nodes]
        sel = _selection(nodes, all_ids)
        sel.selected = all_ids
        vocab = selection_vocab(sel, nodes, constants=[1])
        for nid in vocab.leaf_node_ids:
            assert nodes.get(nid).kind in (NodeKind.QUANTITY, NodeKind.DATE)
        assert len(vocab.leaf_node_ids) == len(nodes.by_kind(NodeKind.QUANTITY)) + \
            len(nodes.by_kind(NodeKind.DATE))


class TestDecoding:
    def _setup(self, seed, leaf_count=2, dim=8):
        _, nodes, _ = _instance()
        rng = np.random.default_rng(seed)
        sd = Tensor(rng.normal(scale=0.5, size=(len(nodes), dim)))
        h_sd = sd.mean(axis=0)
        leaf_ids = [n.node_id for n in nodes.by_kind(NodeKind.QUANTITY)][:leaf_count]
        sel = _selection(nodes, leaf_ids)
        decoder = TreeDecoder(rng, dim, drop=0.0)
        return nodes, sd, h_sd, sel, decoder

    def test_decoded_tree_is_executable_and_within_depth(self):
        for seed in range(5):
            nodes, sd, h_sd, sel, decoder = self._setup(seed)
            tree, logp = decode_tree(h_sd, sd, sel, nodes, decoder,
                                     beam=4, max_depth=3, constants=[1, 2])
            assert _depth(tree) <= 3
            assert np.isfinite(logp)
            execute_tree(tree, nodes)  # must not raise for leaf-only or +- ops

    def test_full_width_beam_matches_exhaustive_argmax(self):
        for seed in range(8):
            nodes, sd, h_sd, sel, decoder = self._setup(seed, leaf_count=1)
            vocab = selection_vocab(sel, nodes, constants=[1])
            leaves = [("const", 1)] + [("node", nid) for nid in vocab.leaf_node_ids]
            best_tree, best_score = None, -np.inf
            for t in _all_trees(leaves, depth=1):
                score = _teacher_score(h_sd, sd, t, vocab, decoder, max_depth=1)
                if score > best_score:
                    best_tree, best_score = t, score
            got_tree, got_logp = decode_tree(h_sd, sd, sel, nodes, decoder,
                                             beam=10_000, max_depth=1, constants=[1])
            assert serialize_tree(got_tree) == serialize_tree(best_tree)
            assert abs(got_logp - best_score) < 1e-9

    def test_beam_logp_agrees_with_teacher_forcing(self):
        nodes, sd, h_sd, sel, decoder = self._setup(3)
        vocab = selection_vocab(sel, nodes, constants=[1, 2])
        tree, logp = decode_tree(h_sd, sd, sel, nodes, decoder,
                                 beam=3, max_depth=2, constants=[1, 2])
        assert abs(logp - _teacher_score(h_sd, sd, tree, vocab, decoder, 2)) < 1e-9

    def _sharp_setup(self, seed):
        """A decoder with larger weights and much larger operator embeddings,
        so that decodes reach every depth instead of stopping at one leaf.
        Odd seeds give both leaves the same representation, so their
        children tie exactly and only the creation order ranks them."""
        nodes, sd, h_sd, sel, decoder = self._setup(seed)
        for p in decoder.params().values():
            p.data *= 3.0
        decoder.op_table.data *= 30.0
        if seed % 2:
            sd.data[sel.selected[1]] = sd.data[sel.selected[0]]
        return nodes, sd, h_sd, sel, decoder

    def test_matches_expand_everything_reference_bit_for_bit(self):
        constants = list(range(1, 11))
        depths = set()
        for seed in range(54):
            beam, max_depth = (1, 3, 5)[seed % 3], (2, 3, 4)[seed // 3 % 3]
            nodes, sd, h_sd, sel, decoder = self._sharp_setup(seed)
            want_tokens, want_logp, _ = _expand_everything_decode(
                h_sd, sd, sel, nodes, decoder, beam, max_depth, constants)
            tree, logp = decode_tree(h_sd, sd, sel, nodes, decoder, beam=beam,
                                     max_depth=max_depth, constants=constants)
            vocab = selection_vocab(sel, nodes, constants)
            assert vocab.tokens_for_tree(tree) == want_tokens, f"seed {seed}"
            assert logp == want_logp, f"seed {seed}"
            depths.add(_depth(tree))
        assert {0, 2, 3} <= depths  # leaf-only and nested trees both occur

    def test_builds_at_most_beam_children_per_step_and_never_a_finished_one(
            self, monkeypatch):
        events = []
        real_apply, real_score = tree_module._apply_token, TreeDecoder.step_log_probs

        def apply(*args):
            child = real_apply(*args)
            events.append("build" if child.goal is not None else "finished")
            return child

        def score(self, *args, **kwargs):
            events.append("score")
            return real_score(self, *args, **kwargs)

        monkeypatch.setattr(tree_module, "_apply_token", apply)
        monkeypatch.setattr(TreeDecoder, "step_log_probs", score)
        builds = 0
        for seed in range(12):
            beam = (1, 3, 5)[seed % 3]
            nodes, sd, h_sd, sel, decoder = self._sharp_setup(seed)
            events.clear()
            decode_tree(h_sd, sd, sel, nodes, decoder, beam=beam, max_depth=3,
                        constants=list(range(1, 11)))
            assert "finished" not in events, f"seed {seed}"
            per_step = [run.count("b") for run in
                        "".join(e[0] for e in events).split("s")]
            assert max(per_step) <= beam, f"seed {seed}"
            builds += events.count("build")
        assert builds > 0

    def test_one_scoring_call_per_beam_step(self, monkeypatch):
        """Each step scores every alive state in a single call: the first
        call has the root alone, every later one the states the step before
        built, and there are as many calls as the reference has steps."""
        events = []
        real_apply, real_score = tree_module._apply_token, TreeDecoder.step_log_probs

        def apply(*args):
            events.append("build")
            return real_apply(*args)

        def score(self, goals, *args, **kwargs):
            events.append(goals.data.shape[0])
            return real_score(self, goals, *args, **kwargs)

        constants = list(range(1, 11))
        for seed in range(12):
            beam, max_depth = (1, 3, 5)[seed % 3], (2, 3, 4)[seed // 3 % 3]
            nodes, sd, h_sd, sel, decoder = self._sharp_setup(seed)
            _, _, steps = _expand_everything_decode(h_sd, sd, sel, nodes, decoder, beam,
                                                    max_depth, constants)
            monkeypatch.setattr(tree_module, "_apply_token", apply)
            monkeypatch.setattr(TreeDecoder, "step_log_probs", score)
            events.clear()
            decode_tree(h_sd, sd, sel, nodes, decoder, beam=beam, max_depth=max_depth,
                        constants=constants)
            monkeypatch.undo()
            calls = [i for i, e in enumerate(events) if e != "build"]
            assert len(calls) == steps, f"seed {seed}"
            assert events[0] == 1
            for prev, nxt in zip(calls, calls[1:]):
                assert events[nxt] == nxt - prev - 1, f"seed {seed}"

    def test_no_leaves_anywhere_is_an_error(self):
        nodes, sd, h_sd, _, decoder = self._setup(0)
        sel = _selection(nodes, [])
        sel.selected = []
        with pytest.raises(NoLeafCandidates):
            decode_tree(h_sd, sd, sel, nodes, decoder, constants=[])

    def test_teacher_forcing_validates_sequence_shape(self):
        nodes, sd, h_sd, sel, decoder = self._setup(1)
        vocab = selection_vocab(sel, nodes, constants=[1])
        leaf_tok = vocab.token_for("node", vocab.leaf_node_ids[0])
        with pytest.raises(ValidationError):
            teacher_forced_log_probs(h_sd, sd, [leaf_tok, leaf_tok], vocab, decoder)
        with pytest.raises(ValidationError):
            teacher_forced_log_probs(h_sd, sd, [0], vocab, decoder)


class TestScoring:
    def _parts(self, seed, dim=8, drop=0.0):
        _, nodes, _ = _instance()
        rng = np.random.default_rng(seed)
        sd = Tensor(rng.normal(scale=0.7, size=(len(nodes), dim)))
        leaf_ids = [n.node_id for n in nodes.by_kind(NodeKind.QUANTITY)]
        vocab = TreeVocab(leaf_ids, constants=list(range(1, 8)))
        decoder = TreeDecoder(rng, dim, drop=drop)
        for p in decoder.params().values():
            p.data *= 2.0
        return rng, sd, vocab, decoder, decoder.candidate_embeddings(vocab, sd)

    def test_batched_rows_match_the_tiled_per_state_scorer(self):
        for seed in range(12):
            rng, sd, vocab, decoder, cand = self._parts(seed)
            s = 1 + seed % 6
            goals = Tensor(rng.normal(size=(s, decoder.dim)))
            allow = np.arange(s) % 2 == seed % 2
            lp, ctx = decoder.step_log_probs(goals, sd, cand, allow, vocab.num_ops)
            assert lp.data.shape == (s, len(vocab)) and ctx.data.shape == (s, decoder.dim)
            for i in range(s):
                want_lp, want_ctx = _tiled_step_log_probs(
                    decoder, goals.slice_rows(i, i + 1), sd, cand, allow[i], vocab.num_ops)
                np.testing.assert_allclose(lp.data[i], want_lp.data[0], rtol=1e-12, atol=0)
                np.testing.assert_allclose(ctx.data[i], want_ctx.data[0], rtol=1e-12, atol=0)
                if not allow[i]:
                    ops = slice(0, vocab.num_ops)
                    np.testing.assert_array_equal(lp.data[i, ops], want_lp.data[0, ops])

    def test_one_bool_masks_every_row(self):
        rng, sd, vocab, decoder, cand = self._parts(0)
        goals = Tensor(rng.normal(size=(3, decoder.dim)))
        for allow in (True, False):
            one, _ = decoder.step_log_probs(goals, sd, cand, allow, vocab.num_ops)
            rows, _ = decoder.step_log_probs(goals, sd, cand, np.full(3, allow), vocab.num_ops)
            np.testing.assert_array_equal(one.data, rows.data)
        assert (one.data[:, :vocab.num_ops] < -1e8).all()

    def test_one_row_training_matches_the_tiled_scorer_with_the_same_dropout(self):
        """Teacher forcing scores one row: the dropout masks keep their
        shapes and draw order, so a seeded rng drops the same units, and the
        gradients reaching every decoder parameter agree."""
        for seed in range(4):
            _, sd, vocab, decoder, cand = self._parts(seed, drop=0.5)
            goal = Tensor(np.random.default_rng(seed + 100).normal(size=(1, decoder.dim)))
            got, want = {}, {}
            for out, score in ((got, decoder.step_log_probs),
                               (want, lambda *a, **k: _tiled_step_log_probs(decoder, *a, **k))):
                rng = np.random.default_rng(seed)
                lp, ctx = score(goal, sd, cand, seed % 2 == 0, vocab.num_ops, rng=rng)
                ((lp * Tensor(np.linspace(-1.0, 1.0, len(vocab)))).sum() + ctx.sum()).backward()
                out["lp"], out["draw"] = lp.data, rng.random()
                for name, p in decoder.params().items():
                    out[name] = np.zeros_like(p.data) if p.grad is None else p.grad
                    p.zero_grad()
            assert got["draw"] == want["draw"]
            np.testing.assert_allclose(got.pop("lp"), want.pop("lp"), rtol=1e-12, atol=0)
            # atol: the gradient of tree.attn.l2.b is exactly zero in exact
            # arithmetic (softmax ignores a shift), so both sides are ~1e-16 noise
            for name in want:
                np.testing.assert_allclose(got[name], want[name], rtol=1e-12, atol=1e-14,
                                           err_msg=name)


class TestAssembly:
    def test_span_answer_splices_text(self):
        seq, nodes, texts = _instance()
        lo, hi = seq.block_ranges[0]
        ans = assemble_answer(AnswerType.SPAN, Scale.NONE, seq, texts,
                              span=(lo, hi - 1))
        assert ans.value == "Paid 7 in cash."
        assert ans.answer_type is AnswerType.SPAN

    def test_span_across_sources_joins_with_space(self):
        seq, nodes, texts = _instance()
        q_hi = seq.source_range(None)[1]
        text = span_to_text(seq, q_hi - 1, q_hi, texts)
        assert " " in text

    def test_counting_counts_duplicate_spans(self):
        seq, nodes, texts = _instance(texts=("Paid 7 then 7 again.",))
        lo, _ = seq.block_ranges[0]
        first, second = [i for i in range(lo, len(seq)) if seq.texts[seq.text_ids[i]] == "7"]
        tags = np.full(len(seq), BIO_O)
        tags[[first, second]] = BIO_B
        ans = assemble_answer(AnswerType.COUNTING, Scale.NONE, seq, texts, tags=tags)
        assert ans.value == 2.0
        assert ans.raw_value == 2.0

    def test_spans_answer_dedupes_but_keeps_order(self):
        seq, nodes, texts = _instance(texts=("Paid 7 then 7 again.",))
        lo, _ = seq.block_ranges[0]
        hits = [i for i in range(lo, len(seq)) if seq.texts[seq.text_ids[i]] == "7"]
        tags = np.full(len(seq), BIO_O)
        tags[hits] = BIO_B
        ans = assemble_answer(AnswerType.SPANS, Scale.NONE, seq, texts, tags=tags)
        assert ans.value == ["7"]

    def test_arithmetic_rounds_display_but_keeps_raw(self):
        seq, nodes, texts = _instance()
        nid = next(n.node_id for n in nodes.by_kind(NodeKind.QUANTITY)
                   if n.value == 7.0)
        tree = parse_tree(f"(/ n#{nid} c#3)")
        ans = assemble_answer(AnswerType.ARITHMETIC, Scale.PERCENT, seq, texts,
                              tree=tree, nodes=nodes)
        assert ans.value == round(7.0 / 3.0, 2)
        assert ans.raw_value == 7.0 / 3.0
        assert ans.expression == f"(/ n#{nid} c#3)"
        assert ans.scale is Scale.PERCENT

    def test_integer_results_are_not_reformatted(self):
        seq, nodes, texts = _instance()
        nid = nodes.by_kind(NodeKind.QUANTITY)[0].node_id
        tree = parse_tree(f"(* n#{nid} c#2)")
        ans = assemble_answer(AnswerType.ARITHMETIC, Scale.NONE, seq, texts,
                              tree=tree, nodes=nodes)
        assert ans.value == ans.raw_value

    def test_non_finite_arithmetic_is_an_execution_failure(self):
        seq, nodes, texts = _instance(texts=("Paid 1" + "0" * 200 + " in cash.",))
        nid = next(n.node_id for n in nodes.by_kind(NodeKind.QUANTITY) if n.value == 1e200)
        square = f"(* n#{nid} n#{nid})"
        for expr in (square, f"(- {square} {square})"):  # inf, then inf - inf = nan
            with pytest.raises(NonFiniteResult):
                assemble_answer(AnswerType.ARITHMETIC, Scale.NONE, seq, texts,
                                tree=parse_tree(expr), nodes=nodes)

    def test_missing_components_raise(self):
        seq, nodes, texts = _instance()
        with pytest.raises(InconsistentComponents):
            assemble_answer(AnswerType.SPAN, Scale.NONE, seq, texts)
        with pytest.raises(InconsistentComponents):
            assemble_answer(AnswerType.SPANS, Scale.NONE, seq, texts)
        with pytest.raises(InconsistentComponents):
            assemble_answer(AnswerType.ARITHMETIC, Scale.NONE, seq, texts)
        with pytest.raises(InconsistentComponents):
            assemble_answer(AnswerType.SPANS, Scale.NONE, seq, texts,
                            tags=np.full(len(seq), BIO_O))
