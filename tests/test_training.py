"""Loss composition, optimizer behavior, the training loop, and scoring."""

import json

import numpy as np
import pytest

from docreason.autodiff import RowSparse, Tensor
from docreason.errors import NonFiniteLoss, SchemaError, ValidationError
from docreason.elements import NodeKind
from docreason.heads import ANSWER_TYPES, SCALES, AnswerType, Scale
from docreason.metrics import build_report
from docreason.model import Model, ModelConfig
from docreason.pipeline import build_instance
from docreason.synthetic import generate_corpus
from docreason.training import (
    Adam,
    compute_loss,
    evaluate,
    grad_norm,
    nll_rows,
    predict_corpus,
    predict_instance,
    score_dump,
    score_prediction,
    LOSS_TERMS,
    train,
    warmup_scale,
)
from docreason.tree import Answer, execute_tree, parse_tree


def _instances(n=8, seed=6):
    return [build_instance(r) for r in generate_corpus(n=n, seed=seed)]


def _by_type(instances):
    out = {}
    for inst in instances:
        out.setdefault(inst.gold.answer_type, inst)
    return out


class _DenseAdam:
    """Reference: Adam that rewrites every entry of every parameter with a
    gradient on each step, as fresh arrays."""

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8):
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr_scale=1.0):
        self.t += 1
        lr = self.lr * lr_scale
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            self.m[name] = self.b1 * self.m[name] + (1 - self.b1) * g
            self.v[name] = self.b2 * self.v[name] + (1 - self.b2) * g * g
            m_hat = self.m[name] / (1 - self.b1 ** self.t)
            v_hat = self.v[name] / (1 - self.b2 ** self.t)
            p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _model(dim=16, **kw):
    config = ModelConfig(dim=dim, gcn_dropout=0.0, tree_dropout=0.0,
                         ffn_dropout=0.0, **kw)
    return Model(config)


class TestLossTerms:
    def test_uniform_nll_is_log_n(self):
        lp = Tensor(np.full((3, 4), np.log(0.25)))
        loss = nll_rows(lp, np.array([0, 1, 3]))
        assert abs(float(loss.data) - np.log(4.0)) < 1e-12

    def test_row_mask_restricts_the_mean(self):
        lp = Tensor(np.log(np.array([[0.5, 0.5], [0.9, 0.1]])))
        masked = nll_rows(lp, np.array([0, 1]), row_mask=np.array([1.0, 0.0]))
        assert abs(float(masked.data) - np.log(2.0)) < 1e-12

    def test_terms_follow_the_gold_answer_type(self):
        model = _model()
        want_extra = {
            AnswerType.SPAN: {"start", "end"},
            AnswerType.SPANS: {"token"},
            AnswerType.COUNTING: {"token"},
            AnswerType.ARITHMETIC: {"tree"},
        }
        seen = set()
        for inst in _instances(n=12, seed=9):
            sup = inst.gold
            out = model.forward(inst, rng=np.random.default_rng(0), train=True,
                                gold_nodes=sup.gold_nodes, heads={sup.answer_type})
            loss, terms = compute_loss(model, inst, out, sup)
            assert set(terms) == {"node", "type", "scale"} | want_extra[sup.answer_type]
            assert np.isfinite(float(loss.data))
            assert abs(float(loss.data) - sum(terms.values())) < 1e-9
            seen.add(sup.answer_type)
        assert seen == set(AnswerType)

    def test_training_forward_without_a_generator_drops_nothing(self):
        # the default config drops units at 0.6 / 0.1, but only from a generator
        model = Model(ModelConfig())
        for inst in _by_type(_instances()).values():
            sup = inst.gold
            out = model.forward(inst, rng=None, train=True,
                                gold_nodes=sup.gold_nodes, heads={sup.answer_type})
            loss, _ = compute_loss(model, inst, out, sup)
            assert np.isfinite(float(loss.data))
            ref = model.forward(inst, heads=set())
            for got, want in ((out.sd_reprs, ref.sd_reprs), (out.sel.log_probs, ref.sel.log_probs),
                              (out.type_out.log_probs, ref.type_out.log_probs)):
                assert got.data.tobytes() == want.data.tobytes()

    def test_loss_is_differentiable_end_to_end(self):
        model = _model(dim=8)
        inst = _by_type(_instances())[AnswerType.ARITHMETIC]
        sup = inst.gold
        out = model.forward(inst, rng=np.random.default_rng(0), train=True,
                            gold_nodes=sup.gold_nodes, heads={sup.answer_type})
        loss, _ = compute_loss(model, inst, out, sup)
        loss.backward()
        grads = [p for p in model.params().values() if p.grad is not None]
        assert len(grads) > 0


class TestOptimizer:
    def test_adam_minimizes_a_quadratic(self):
        w = Tensor(np.array([4.0]), requires_grad=True, name="w")
        opt = Adam({"w": w}, lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            loss = ((w - 3.0) * (w - 3.0)).sum()
            loss.backward()
            opt.step()
        assert abs(float(w.data[0]) - 3.0) < 1e-2

    def test_missing_gradients_are_skipped(self):
        w = Tensor(np.array([1.0]), requires_grad=True, name="w")
        opt = Adam({"w": w})
        opt.step()  # no backward happened; parameter must be untouched
        assert float(w.data[0]) == 1.0

    def test_matches_dense_reference_bit_for_bit(self):
        rng = np.random.default_rng(7)
        init = {"table": rng.normal(size=(40, 6)), "bias": rng.normal(size=9),
                "w": rng.normal(size=(3, 4))}
        init["table"][31] = -0.0
        fast = {k: Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
        slow = {k: Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
        opt, ref = Adam(fast, lr=0.01), _DenseAdam(slow, lr=0.01)
        for step in range(30):
            # rows 0-29 take turns; 20-29 go quiet after step 15; 30-39
            # never see more than -0.0
            table = np.zeros((40, 6))
            touched = rng.choice(30 if step < 15 else 20, size=int(rng.integers(1, 8)),
                                 replace=False)
            table[touched] = rng.normal(size=(len(touched), 6))
            table[touched, 0] = -0.0
            table[30:35] = -0.0
            # bias entries 7 and 8 never get a nonzero gradient
            bias = rng.normal(size=9) * (rng.random(9) < 0.5)
            bias[7:] = -0.0
            grads = {"table": table, "bias": bias,
                     "w": None if step % 3 == 0 else rng.normal(size=(3, 4))}
            for params in (fast, slow):
                for name, g in grads.items():
                    params[name].grad = None if g is None else g.copy()
            scale = 0.0 if step == 4 else float(rng.uniform(0.1, 1.5))
            opt.step(scale)
            ref.step(scale)
            for name in init:
                assert _same_bits(fast[name].data, slow[name].data), (step, name)
                assert _same_bits(opt.m[name], ref.m[name]), (step, name)
                assert _same_bits(opt.v[name], ref.v[name]), (step, name)
        assert opt.live == {}  # dense gradients keep no live-row bookkeeping
        assert _same_bits(fast["table"].data[30:], init["table"][30:])
        assert _same_bits(fast["bias"].data[7:], init["bias"][7:])
        assert not np.array_equal(fast["table"].data[:30], init["table"][:30])

    def test_row_sparse_gradients_match_the_dense_reference_bit_for_bit(self):
        """Gradients from take_rows on the tape reach Adam as RowSparse; the
        reference gets the same gradients densified."""
        rng = np.random.default_rng(8)
        init = {"table": rng.normal(size=(50, 5)), "w": rng.normal(size=(4, 3))}
        fast = {k: Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
        slow = {k: Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
        opt, ref = Adam(fast, lr=0.01), _DenseAdam(slow, lr=0.01)
        ever = np.zeros(50, dtype=bool)
        for step in range(24):
            fast["table"].grad = fast["w"].grad = None
            # rows 0-39 take turns, 30-39 go quiet after step 10, 40-49 are
            # never gathered; row 0's two reads cancel to exactly 0, and
            # row 1 is read with a zero weight
            idx = np.concatenate([[0, 1, 0], rng.integers(2, 40 if step < 10 else 30,
                                                          size=int(rng.integers(0, 9)))])
            w = rng.normal(size=(len(idx), 5))
            w[1] = 0.0
            w[2] = -w[0]
            loss = (fast["table"].take_rows(idx) * Tensor(w)).sum()
            if step % 4 == 1:  # a second gather, merged by row union
                loss = loss + fast["table"].take_rows(rng.integers(2, 40, size=3)).sum()
            if step % 3:
                loss = loss + (fast["w"] * fast["w"]).sum()
            loss.backward()
            assert isinstance(fast["table"].raw_grad, RowSparse)
            if step == 12:  # a dense table gradient in between
                fast["table"].grad = rng.normal(size=(50, 5)) * (rng.random((50, 1)) < 0.3)
            for name in init:
                slow[name].grad = fast[name].grad
            ever |= slow["table"].grad.any(axis=1)
            scale = 0.0 if step in (3, 17) else float(rng.uniform(0.1, 1.5))
            opt.step(scale)
            ref.step(scale)
            for name in init:
                assert _same_bits(fast[name].data, slow[name].data), (step, name)
                assert _same_bits(opt.m[name], ref.m[name]), (step, name)
                assert _same_bits(opt.v[name], ref.v[name]), (step, name)
            if step == 11:
                np.testing.assert_array_equal(opt.live["table"], ever)
                assert not ever[:2].any() and not ever[40:].any()
        assert set(opt.live) == {"table"} and opt.live["table"].all()  # after step 12

    def test_warmup_ramps_then_saturates(self):
        total = 100
        scales = [warmup_scale(s, total, 0.1) for s in range(1, total + 1)]
        assert scales[0] == pytest.approx(0.1)
        assert scales[9] == 1.0
        assert all(s == 1.0 for s in scales[10:])
        assert all(b >= a for a, b in zip(scales, scales[1:]))


class TestTrainingLoop:
    def test_two_epochs_produce_a_log_and_finite_losses(self):
        instances = _instances(n=6)
        result = train(_model(dim=8), instances, epochs=2, batch=2, grad_accum=1,
                       eval_every=1, seed=0)
        assert len(result.log.epochs) == 2
        for row in result.log.epochs:
            assert np.isfinite(row["loss"])
            assert row["dev_em"] is not None
        assert 0.0 <= result.best_em <= 1.0
        csv = result.log.to_csv()
        assert csv.startswith("epoch,loss,lr_scale,dev_em")
        assert len(csv.strip().splitlines()) == 3

    def test_per_term_means_add_up_to_the_epoch_loss(self):
        instances = _instances(n=6)
        counts = {"node": 6, "type": 6, "scale": 6}
        for inst in instances:
            kind = inst.gold.answer_type
            names = {AnswerType.SPAN: ("start", "end"), AnswerType.SPANS: ("token",),
                     AnswerType.COUNTING: ("token",), AnswerType.ARITHMETIC: ("tree",)}[kind]
            for name in names:
                counts[name] = counts.get(name, 0) + 1
        assert set(counts) == set(LOSS_TERMS)
        result = train(_model(dim=8), instances, epochs=3, batch=2, grad_accum=1,
                       eval_every=3, seed=2)
        for row in result.log.epochs:
            assert list(row["terms"]) == list(LOSS_TERMS)
            total = sum(counts[k] / 6 * row["terms"][k] for k in LOSS_TERMS)
            assert abs(total - row["loss"]) <= 1e-12
        lines = result.log.to_csv().splitlines()
        assert lines[0] == ("epoch,loss,lr_scale,dev_em,grad_norm,"
                            "node,type,scale,start,end,token,tree")
        assert all(len(line.split(",")) == 12 for line in lines)

    def test_a_term_no_instance_had_is_an_empty_cell(self):
        spans = [i for i in _instances(n=10) if i.gold.answer_type == AnswerType.SPAN]
        result = train(_model(dim=8), spans, epochs=1, batch=1, grad_accum=1, seed=0)
        terms = result.log.epochs[0]["terms"]
        assert terms["token"] is None and terms["tree"] is None
        assert all(terms[k] > 0 for k in ("node", "type", "scale", "start", "end"))
        assert result.log.to_csv().splitlines()[1].endswith(",,")

    def test_same_seed_is_bit_identical(self):
        instances = _instances(n=4)
        a = train(_model(dim=8), instances, epochs=2, batch=2, grad_accum=1,
                  eval_every=2, seed=1)
        b = train(_model(dim=8), instances, epochs=2, batch=2, grad_accum=1,
                  eval_every=2, seed=1)
        assert set(a.best_params) == set(b.best_params)
        for name in a.best_params:
            np.testing.assert_array_equal(a.best_params[name], b.best_params[name])
        assert a.log.to_csv() == b.log.to_csv()

    def test_grad_norm_is_the_global_norm_before_each_step(self, monkeypatch):
        model = _model(dim=8)
        inst = _by_type(_instances())[AnswerType.ARITHMETIC]
        sup = inst.gold
        out = model.forward(inst, rng=np.random.default_rng(0), train=True,
                            gold_nodes=sup.gold_nodes, heads={sup.answer_type})
        compute_loss(model, inst, out, sup)[0].backward()
        params = model.params()
        # the tables reach the norm without being densified
        assert isinstance(params["embedder.table"].raw_grad, RowSparse)
        assert isinstance(model.decoder.const_table.raw_grad, RowSparse)
        dense = sum(float((p.grad * p.grad).sum()) for p in params.values() if p.grad is not None)
        assert grad_norm(params) == pytest.approx(np.sqrt(dense), rel=1e-12)

        seen = []
        step = Adam.step

        def recording_step(opt, lr_scale=1.0):
            seen.append(grad_norm(opt.params))
            step(opt, lr_scale)

        monkeypatch.setattr(Adam, "step", recording_step)
        result = train(_model(dim=8), _instances(n=5), epochs=2, batch=2, grad_accum=1,
                       eval_every=2, seed=3)
        assert len(seen) == 6  # three steps per epoch
        for epoch, row in enumerate(result.log.epochs):
            norms = seen[3 * epoch:3 * epoch + 3]
            assert row["grad_norm"] == sum(norms) / 3 > 0
            cell = result.log.to_csv().splitlines()[epoch + 1].split(",")[4]
            assert cell == f"{row['grad_norm']:.6f}"

    def test_non_finite_loss_stops_training(self):
        instances = _instances(n=2)
        model = _model(dim=8)
        model.embedder.table.data[:] = np.nan
        with pytest.raises(NonFiniteLoss, match=r"^[^:]+: loss is nan \(epoch 0\)$") as info:
            train(model, instances, epochs=1, batch=1, grad_accum=1)
        assert str(info.value).split(":")[0] in {inst.qid for inst in instances}

    def test_expression_constant_outside_the_decoder_stops_before_a_step(self):
        records = generate_corpus(n=6, seed=6)
        record = next(r for r in records if r["answer"]["type"] == "Arithmetic")
        expr = record["answer"]["expression"]
        for constant, constants_max in ((1000, 100), (50, 10), (-3, 100)):
            # times constant/constant, so the gold value still holds
            record["answer"]["expression"] = f"(* {expr} (/ c#{constant} c#{constant}))"
            instances = [build_instance(r) for r in records]
            model = _model(dim=8, constants_max=constants_max)
            before = {k: p.data.copy() for k, p in model.params().items()}
            with pytest.raises(ValidationError,
                               match=rf"^{record['doc_id']}: expression constant c#{constant} "):
                train(model, instances, epochs=1, batch=1, grad_accum=1)
            assert all(np.array_equal(p.data, before[k]) for k, p in model.params().items())

    def test_a_record_without_an_answer_cannot_be_trained_on_or_scored(self):
        instances = _instances(n=3)
        instances[1].gold = None
        qid = instances[1].qid
        with pytest.raises(SchemaError, match=rf"^{qid}: training needs the record's answer"):
            train(_model(dim=8), instances, epochs=1, batch=1, grad_accum=1)
        with pytest.raises(SchemaError, match=rf"^{qid}: scoring needs the record's answer"):
            score_dump(instances, [])

    def test_a_dev_record_without_an_answer_stops_before_a_step(self, monkeypatch):
        instances, dev = _instances(n=3), _instances(n=2, seed=7)
        dev[1].gold = None
        monkeypatch.setattr(Model, "forward", lambda *args, **kwargs: pytest.fail("forward ran"))
        with pytest.raises(SchemaError,
                           match=rf"^{dev[1].qid}: training needs the record's answer"):
            train(_model(dim=8), instances, epochs=1, batch=1, grad_accum=1, dev=dev)

    def test_target_metrics_stop_early(self):
        instances = _instances(n=3)
        result = train(_model(dim=8), instances, epochs=50, batch=1, grad_accum=1,
                       eval_every=1, seed=0, target_em=-1.0, target_type_acc=None)
        # an unreachable-low target triggers at the first eval
        assert len(result.log.epochs) == 1


class TestPredictionAndScoring:
    def test_predict_returns_answer_or_failure(self):
        model = _model(dim=8)
        for inst in _instances(n=6):
            answer, failure, out = predict_instance(model, inst)
            assert (answer is None) != (failure is None)
            if answer is not None:
                assert answer.answer_type in set(AnswerType)
            else:
                assert failure in ("execution_error", "invalid_prediction")

    def test_overflowing_tree_is_an_execution_error_in_a_strict_json_row(self):
        record = {
            "doc_id": "big", "question": "What is the square of the payment?",
            "pages": [{"width": 800, "height": 1000}],
            "blocks": [{"block_id": 0, "page_index": 0, "order": 0,
                        "text": "Paid 1" + "0" * 200 + " in cash.", "box": [10, 10, 700, 40]}],
        }
        inst = build_instance(record, with_gold=False)
        nid = inst.nodes.by_kind(NodeKind.QUANTITY)[0].node_id
        model = _model(dim=8)
        forward = model.forward

        def arithmetic_forward(instance, **kwargs):
            out = forward(instance, heads=set(), **kwargs)
            out.type_out.argmax = ANSWER_TYPES.index(AnswerType.ARITHMETIC)
            out.tree = parse_tree(f"(* n#{nid} n#{nid})")
            return out

        model.forward = arithmetic_forward
        answer, failure, _ = predict_instance(model, inst)
        assert answer is None and failure == "execution_error"
        [row] = predict_corpus(model, [inst])
        assert row["failure"] == "execution_error" and row["value"] is None
        assert json.loads(json.dumps(row, allow_nan=False)) == row

    def test_dump_scoring_matches_live_evaluation(self):
        """evaluate scores the prediction dump. Scoring each live Answer
        gives the same rows, and so does the dump after a JSON round trip.
        A divider model answers every question with two quantities by their
        quotient, made its gold: the live Answer's display value is rounded
        to 2 decimals, and only its exact raw_value, which the dump stores,
        scores as correct."""
        instances = _instances(n=8)
        trees = {}
        for inst in instances:
            quantities = inst.nodes.by_kind(NodeKind.QUANTITY)
            if len(quantities) >= 2:
                tree = parse_tree(f"(/ n#{quantities[0].node_id} n#{quantities[1].node_id})")
                quotient = execute_tree(tree, inst.nodes)
                inst.gold.answer = Answer(AnswerType.ARITHMETIC, quotient, Scale.NONE,
                                          raw_value=quotient)
                trees[inst.qid] = tree
        divider = _model(dim=8)
        forward = divider.forward

        def divide(instance, **kwargs):
            if instance.qid not in trees:
                return forward(instance, **kwargs)
            out = forward(instance, heads=set(), **kwargs)
            out.type_out.argmax = ANSWER_TYPES.index(AnswerType.ARITHMETIC)
            out.scale_out.argmax = SCALES.index(Scale.NONE)
            out.tree = trees[instance.qid]
            return out

        divider.forward = divide
        for model in (_model(dim=8), divider):
            live_rows, rounded = [], 0
            for inst in instances:
                answer, failure, out = predict_instance(model, inst)
                live_rows.append(score_prediction(inst, answer, failure, out.sel.selected))
                rounded += answer is not None and answer.raw_value not in (None, answer.value)
            report, rows = evaluate(model, instances)
            assert rows == live_rows
            assert report.to_json() == build_report(live_rows).to_json()
            dump = [json.loads(json.dumps(row, allow_nan=False))
                    for row in predict_corpus(model, instances)]
            assert score_dump(instances, dump)[1] == live_rows
        assert trees and rounded
        assert all(row["em"] == 1 for row in rows if row["qid"] in trees)

    def test_missing_dump_rows_score_as_failures(self):
        instances = _instances(n=3)
        report, rows = score_dump(instances, [])
        assert report.n == 3
        assert report.em == 0.0
        assert all(r["error"] == "invalid_prediction" for r in rows)

    def test_a_dump_value_predict_cannot_write_is_a_schema_error(self):
        instances = _instances(n=2)
        qid = instances[0].qid
        for value in ({}, True, False, [1, {}], [None], ["a", 2], {"a": "b"}):
            dump = [{"qid": qid, "answer_type": "Span", "scale": "None", "value": value}]
            with pytest.raises(SchemaError, match=rf"^prediction {qid}: value .* is not a number"):
                score_dump(instances, dump)
        for value in (0, -3, 2.5, "", "x", [], ["a", "b"], None):
            dump = [{"qid": qid, "answer_type": "Span", "scale": "None", "value": value}]
            report, _ = score_dump(instances, dump)
            assert report.n == 2

    def test_evidence_only_scored_for_arithmetic(self):
        model = _model(dim=8)
        _, rows = evaluate(model, _instances(n=10, seed=4))
        for row in rows:
            if row["type"] != "Arithmetic":
                assert row["evidence"] is None
