"""Multi-task loss, Adam with linear warmup, the training loop, and
corpus-level evaluation.

The per-instance loss is the sum of the always-on terms (node selection,
answer type, scale) and the terms licensed by the gold answer type: span
start/end for Span, token tagging for Spans/Counting, teacher-forced tree
steps for Arithmetic. Every term is a mean cross-entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import RowSparse, Tensor
from .errors import (DivisionByZero, GoldOverCap, InconsistentComponents, NoLeafCandidates,
                     NonFiniteLoss, NonFiniteResult, NoValidTokens, SchemaError, ValidationError)
from .heads import ANSWER_TYPES, SCALES, AnswerType, Scale
from .metrics import build_report, classify_error, evidence_metrics, exact_match, numeracy_f1
from .model import Model, ModelOutput
from .pipeline import Instance, Supervision
from .tree import (Answer, assemble_answer, selection_vocab, teacher_forced_log_probs,
                   tree_leaves)


def nll_rows(log_probs: Tensor, labels: np.ndarray,
             row_mask: np.ndarray | None = None) -> Tensor:
    """Mean negative log-likelihood over rows (optionally a subset)."""
    rows = log_probs.data.shape[0]
    pick = np.zeros_like(log_probs.data)
    pick[np.arange(rows), labels] = 1.0
    denom = float(rows)
    if row_mask is not None:
        pick *= row_mask[:, None]
        denom = float(row_mask.sum())
    return -(log_probs * Tensor(pick)).sum() / denom


LOSS_TERMS = ("node", "type", "scale", "start", "end", "token", "tree")
# why a question has no answer; the first also scores a question that a
# prediction dump has no row for
FAILURES = ("invalid_prediction", "execution_error")


def compute_loss(model: Model, inst: Instance, out: ModelOutput,
                 sup: Supervision) -> tuple[Tensor, dict[str, float]]:
    terms: dict[str, Tensor] = {}
    node_labels = np.zeros(len(inst.nodes), dtype=int)
    node_labels[np.fromiter(sup.gold_nodes, np.intp, len(sup.gold_nodes))] = 1
    terms["node"] = nll_rows(out.sel.log_probs, node_labels)
    terms["type"] = nll_rows(out.type_out.log_probs,
                             np.array([ANSWER_TYPES.index(sup.answer_type)]))
    terms["scale"] = nll_rows(out.scale_out.log_probs,
                              np.array([SCALES.index(sup.answer.scale)]))
    if sup.answer_type == AnswerType.SPAN:
        s, e = sup.span
        terms["start"] = nll_rows(out.start_lp, np.array([s]))
        terms["end"] = nll_rows(out.end_lp, np.array([e]))
    elif sup.answer_type in (AnswerType.SPANS, AnswerType.COUNTING):
        terms["token"] = nll_rows(out.token_lp, sup.bio_labels,
                                  out.updated.valid_mask.astype(np.float64))
    else:
        vocab = selection_vocab(out.sel, inst.nodes, model.constants)
        gold_tokens = vocab.tokens_for_tree(sup.gold_tree)
        steps = teacher_forced_log_probs(out.h_sd, out.sd_reprs, gold_tokens, vocab,
                                         model.decoder, model.config.max_tree_depth)
        step_losses = [nll_rows(lp, np.array([tok])) for lp, tok in zip(steps, gold_tokens)]
        terms["tree"] = sum(step_losses[1:], step_losses[0]) / float(len(step_losses))
    first, *rest = terms.values()
    return sum(rest, first), {k: float(v.data) for k, v in terms.items()}


class Adam:
    def __init__(self, params: dict[str, Tensor], lr: float = 5e-4,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        # per parameter that has had a row-sparse gradient: the rows that
        # have ever had a nonzero gradient entry
        self.live: dict[str, np.ndarray] = {}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self, lr_scale: float = 1.0):
        """One Adam step, written into m, v and p.data in place.

        An entry that has never had a nonzero gradient has m = v = 0 and a
        zero (or -0.0) gradient, so the update moves it by
        lr*0/(sqrt(0)+eps) = 0 (lr is finite), and p - 0 == p bit for bit.
        So a dense gradient updates its whole parameter without looking for
        such entries, and a row-sparse one (RowSparse) updates only the live
        rows: both match the dense update everywhere.
        """
        self.t += 1
        lr = self.lr * lr_scale
        c1 = 1 - self.b1 ** self.t
        c2 = 1 - self.b2 ** self.t
        for name, p in self.params.items():
            g = p.raw_grad
            if g is None:
                continue
            m, v = self.m[name], self.v[name]
            live = self.live.get(name)
            if not isinstance(g, RowSparse):
                self._update(m, v, p.data, g, lr, c1, c2)
                if live is not None:
                    live[:] = True
                continue
            if live is None:
                live = self.live[name] = np.zeros(len(p.data), dtype=bool)
            hit = (g.values != 0).any(axis=tuple(range(1, g.values.ndim)))
            live[g.rows[hit]] = True
            rows = np.flatnonzero(live)
            g_rows = np.zeros((len(rows),) + g.shape[1:])
            g_rows[np.searchsorted(rows, g.rows[hit])] = g.values[hit]
            m_rows, v_rows, p_rows = m[rows], v[rows], p.data[rows]
            self._update(m_rows, v_rows, p_rows, g_rows, lr, c1, c2)
            m[rows], v[rows], p.data[rows] = m_rows, v_rows, p_rows

    def _update(self, m, v, p, g, lr, c1, c2):
        """Dense Adam on these arrays, in place, with the per-element order of
        m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
        p = p - lr*(m/c1) / (sqrt(v/c2) + eps)."""
        num = np.multiply(g, 1 - self.b1)
        m *= self.b1
        m += num
        den = np.multiply(g, 1 - self.b2)
        den *= g
        v *= self.b2
        v += den
        np.divide(v, c2, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        np.divide(m, c1, out=num)
        num *= lr
        num /= den
        p -= num


def warmup_scale(step: int, total_steps: int, warmup_frac: float) -> float:
    """Linear ramp over the first warmup_frac of steps, then constant."""
    warmup_steps = max(1, int(math.ceil(total_steps * warmup_frac)))
    return min(1.0, step / warmup_steps)


def grad_norm(params: dict[str, Tensor]) -> float:
    """Global L2 norm of the accumulated gradients. A RowSparse gradient
    counts its stored rows only (the rest are zero), so it is not
    densified."""
    total = 0.0
    for p in params.values():
        g = p.raw_grad
        if g is not None:
            g = g.values if isinstance(g, RowSparse) else g
            total += float(np.vdot(g, g))
    return math.sqrt(total)


@dataclass
class TrainLog:
    """One row per epoch. `grad_norm` is the mean over the epoch's optimizer
    steps of grad_norm() just before the step; `terms` maps each of
    LOSS_TERMS to its mean over the epoch's instances that had that term,
    or None when none did."""
    epochs: list[dict] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = [",".join(("epoch", "loss", "lr_scale", "dev_em", "grad_norm") + LOSS_TERMS)]
        for row in self.epochs:
            cells = [str(row["epoch"]), f"{row['loss']:.6f}", f"{row['lr_scale']:.6f}"]
            cells += ["" if v is None else f"{v:.6f}"
                      for v in [row["dev_em"], row["grad_norm"], *row["terms"].values()]]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


@dataclass
class TrainResult:
    model: Model
    log: TrainLog
    best_em: float
    best_params: dict[str, np.ndarray]


def train(model: Model, instances: list[Instance], epochs: int = 50,
          batch: int = 8, grad_accum: int = 8, lr: float = 5e-4,
          warmup_frac: float = 0.06, seed: int = 0, dev: list[Instance] | None = None,
          eval_every: int = 5, target_em: float | None = None,
          target_type_acc: float | None = None) -> TrainResult:
    """Deterministic training loop. Gradients accumulate over batch *
    grad_accum instances per optimizer step; dev EM decides the best
    checkpoint (train set doubles as dev when none given). Before the first
    step, no training instances or a training or dev instance without a gold
    answer raises SchemaError, and a gold expression constant the decoder
    cannot write raises ValidationError."""
    if not instances:
        raise SchemaError("training needs at least one record; the corpus has none")
    for inst in (*instances, *(dev or ())):
        if inst.gold is None:
            raise SchemaError(f"{inst.qid}: training needs the record's answer object")
    for inst in instances:
        tree = inst.gold.gold_tree
        for leaf in tree_leaves(tree) if tree is not None else ():
            if leaf.kind == "const" and leaf.value not in model.constants:
                raise ValidationError(
                    f"{inst.qid}: expression constant c#{leaf.value} is outside the decoder's "
                    f"constants 1..{model.config.constants_max}")
    rng = np.random.default_rng(seed)
    params = model.params()
    opt = Adam(params, lr=lr)
    group = max(1, batch * grad_accum)
    steps_per_epoch = max(1, math.ceil(len(instances) / group))
    total_steps = max(1, epochs * steps_per_epoch)
    dev_set = dev if dev is not None else instances
    log = TrainLog()
    best_em = -1.0
    best_params = {k: p.data.copy() for k, p in params.items()}
    step = 0
    scale = 0.0
    for epoch in range(epochs):
        order = rng.permutation(len(instances))
        epoch_loss = 0.0
        term_sums = dict.fromkeys(LOSS_TERMS, 0.0)
        term_counts = dict.fromkeys(LOSS_TERMS, 0)
        norm_sum = 0.0
        opt.zero_grad()
        pending = 0
        for rank, idx in enumerate(order):
            inst = instances[int(idx)]
            sup = inst.gold
            try:
                out = model.forward(inst, rng=rng, train=True,
                                    gold_nodes=sup.gold_nodes, heads={sup.answer_type})
                loss, terms = compute_loss(model, inst, out, sup)
                (loss / float(min(group, len(instances)))).backward()
            except (GoldOverCap, NonFiniteLoss) as exc:
                raise type(exc)(f"{inst.qid}: {exc} (epoch {epoch})") from None
            epoch_loss += float(loss.data)
            for name, value in terms.items():
                term_sums[name] += value
                term_counts[name] += 1
            pending += 1
            if pending == group or rank == len(order) - 1:
                step += 1
                scale = warmup_scale(step, total_steps, warmup_frac)
                norm_sum += grad_norm(params)
                opt.step(scale)
                opt.zero_grad()
                pending = 0
        record = {"epoch": epoch, "loss": epoch_loss / len(instances),
                  "lr_scale": scale, "dev_em": None, "grad_norm": norm_sum / steps_per_epoch,
                  "terms": {name: term_sums[name] / term_counts[name] if term_counts[name]
                            else None for name in LOSS_TERMS}}
        stop = False
        if (epoch + 1) % eval_every == 0 or epoch == epochs - 1:
            report, rows = evaluate(model, dev_set)
            record["dev_em"] = report.em
            if report.em > best_em:
                best_em = report.em
                best_params = {k: p.data.copy() for k, p in params.items()}
            type_acc = float(np.mean([r["type_correct"] for r in rows])) if rows else 0.0
            stop = (target_em is not None and report.em >= target_em
                    and (target_type_acc is None or type_acc >= target_type_acc))
        log.epochs.append(record)
        if stop:
            break
    if best_em < 0:
        best_em = 0.0
        best_params = {k: p.data.copy() for k, p in params.items()}
    return TrainResult(model=model, log=log, best_em=best_em, best_params=best_params)


def predict_instance(model: Model, inst: Instance) -> tuple[Answer | None, str | None, ModelOutput]:
    """Inference for one instance: answer, failure category (if any), and
    the raw head outputs."""
    out = model.forward(inst, train=False)
    atype = ANSWER_TYPES[out.type_out.argmax]
    scale = SCALES[out.scale_out.argmax]
    try:
        answer = assemble_answer(
            atype, scale, inst.seq, inst.source_texts,
            span=out.span, tags=out.labels, tree=out.tree, nodes=inst.nodes)
        return answer, None, out
    except (DivisionByZero, NonFiniteResult):
        return None, "execution_error", out
    except (InconsistentComponents, NoLeafCandidates, NoValidTokens):
        return None, "invalid_prediction", out


def score_prediction(inst: Instance, answer: Answer | None,
                     failure: str | None, selected: list[int]) -> dict:
    sup = inst.gold
    if sup is None:
        raise SchemaError(f"{inst.qid}: scoring needs the record's answer object")
    em = exact_match(answer, sup.answer) if answer is not None else 0
    f1 = numeracy_f1(answer, sup.answer) if answer is not None else 0.0
    row = {
        "qid": inst.qid,
        "type": sup.answer_type.value,
        "em": em,
        "f1": f1,
        "type_correct": int(answer is not None and answer.answer_type == sup.answer_type),
        "error": classify_error(answer, sup.answer, failure),
        "evidence": None,
    }
    leaves = range(len(inst.nodes))[inst.nodes.leaves]
    gold_elems = {n for n in sup.gold_nodes if n in leaves}
    if sup.answer_type == AnswerType.ARITHMETIC and gold_elems:
        pred_elems = {n for n in selected if n in leaves}
        row["evidence"] = evidence_metrics(pred_elems, gold_elems)
    return row


def predict_corpus(model: Model, instances: list[Instance]) -> list[dict]:
    """Prediction dump rows: one JSON-ready object per instance."""
    dump = []
    for inst in instances:
        answer, failure, out = predict_instance(model, inst)
        row = {"qid": inst.qid, "selected_nodes": list(out.sel.selected)}
        if answer is None:
            row["failure"] = failure
            row["answer_type"] = ANSWER_TYPES[out.type_out.argmax].value
            row["value"] = None
            row["scale"] = SCALES[out.scale_out.argmax].value
        else:
            row["answer_type"] = answer.answer_type.value
            row["value"] = answer.raw_value if answer.raw_value is not None else answer.value
            row["scale"] = answer.scale.value
            if answer.expression is not None:
                row["expression"] = answer.expression
        dump.append(row)
    return dump


def evaluate(model: Model, instances: list[Instance]):
    """Score the model on instances through its prediction dump, so a saved
    dump (`eval --predictions`) scores the same."""
    return score_dump(instances, predict_corpus(model, instances))


def _dump_field(row: dict, name: str, enum):
    try:
        return enum(row.get(name))
    except ValueError:
        raise SchemaError(f"prediction {row['qid']}: unknown {name} {row.get(name)!r}") from None


def score_dump(instances: list[Instance], dump: list[dict]):
    """Score a prediction dump against gold; row order follows the corpus and
    rows are matched by qid. A row without a string qid, a repeated qid or
    one that is not in the corpus, a failure that predict_corpus does not
    write, a value it cannot write, or a selected node that is not a node
    of its instance raises SchemaError."""
    qids = {inst.qid for inst in instances}
    by_qid: dict[str, dict] = {}
    for i, row in enumerate(dump):
        if not isinstance(row, dict) or not isinstance(row.get("qid"), str):
            raise SchemaError(f"prediction row {i}: not an object with a string 'qid'")
        if row["qid"] in by_qid:
            raise SchemaError(f"prediction {row['qid']}: repeated qid in row {i}")
        if row["qid"] not in qids:
            raise SchemaError(f"prediction {row['qid']}: qid of row {i} is not in the corpus")
        if row.get("failure", FAILURES[0]) not in FAILURES:
            raise SchemaError(f"prediction {row['qid']}: unknown failure {row['failure']!r}")
        value = row.get("value")  # true is not a number here: its type is not int
        if not (value is None or isinstance(value, (str, float)) or type(value) is int
                or isinstance(value, list) and all(isinstance(v, str) for v in value)):
            raise SchemaError(f"prediction {row['qid']}: value {value!r} is not a number, "
                              "a string, a list of strings or null")
        by_qid[row["qid"]] = row
    rows = []
    for inst in instances:
        row = by_qid.get(inst.qid, {})
        selected = row.get("selected_nodes", [])
        if not isinstance(selected, list) or not all(
                type(n) is int and 0 <= n < len(inst.nodes) for n in selected):
            raise SchemaError(f"prediction {inst.qid}: selected_nodes {selected!r} "
                              f"are not node ids below {len(inst.nodes)}")
        if row.get("value") is None:
            rows.append(score_prediction(inst, None, row.get("failure", FAILURES[0]), selected))
            continue
        answer = Answer(_dump_field(row, "answer_type", AnswerType),
                        row["value"],
                        _dump_field(row, "scale", Scale),
                        raw_value=row["value"] if isinstance(row["value"], (int, float)) else None,
                        expression=row.get("expression"))
        rows.append(score_prediction(inst, answer, None, selected))
    return build_report(rows), rows
