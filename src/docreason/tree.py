"""Goal-driven expression-tree decoding, execution, and answer assembly.

Trees are generated pre-order: an operator token opens two child goals
(left generated next, right goal parked on a stack), a leaf token closes
the current goal and merges completed subtrees upward. The candidate
vocabulary is operators + constants + the selected Quantity/Date nodes,
scored against the current goal and an attention context over all graph
nodes. Beam search keeps a finished pool and stops once no alive state can
beat it.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Tensor, add_masked, concat
from .document import TokenSequence
from .elements import ElementNode, NodeKind, NodeSet
from .errors import (DivisionByZero, InconsistentComponents, NoLeafCandidates,
                     NonFiniteResult, ValidationError)
from .heads import AnswerType, NodeSelection, Scale, bio_spans
from .nn import FFN2, Linear

OPS = ["+", "-", "*", "/"]
DEFAULT_CONSTANTS = list(range(1, 101))


@dataclass(frozen=True)
class TreeNode:
    kind: str  # "op" | "const" | "node"
    value: object  # op symbol, constant int, or inventory node_id
    children: tuple["TreeNode", ...] = ()

    def __post_init__(self):
        if self.kind == "op" and len(self.children) != 2:
            raise ValidationError(f"operator {self.value!r} needs exactly 2 children")
        if self.kind != "op" and self.children:
            raise ValidationError("leaves cannot have children")


def serialize_tree(t: TreeNode) -> str:
    if t.kind == "op":
        return f"({t.value} {serialize_tree(t.children[0])} {serialize_tree(t.children[1])})"
    prefix = "c" if t.kind == "const" else "n"
    return f"{prefix}#{t.value}"


def parse_tree(s: str) -> TreeNode:
    tokens = s.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def parse() -> TreeNode:
        nonlocal pos
        if pos >= len(tokens):
            raise ValidationError(f"truncated expression: {s!r}")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            op = tokens[pos] if pos < len(tokens) else None
            pos += 1
            if op not in OPS:
                raise ValidationError(f"unknown operator {op!r} in {s!r}")
            left = parse()
            right = parse()
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ValidationError(f"missing ')' in {s!r}")
            pos += 1
            return TreeNode("op", op, (left, right))
        try:
            return TreeNode({"c#": "const", "n#": "node"}[tok[:2]], int(tok[2:]))
        except (KeyError, ValueError):
            raise ValidationError(f"bad leaf token {tok!r} in {s!r}") from None

    out = parse()
    if pos != len(tokens):
        raise ValidationError(f"trailing tokens in {s!r}")
    return out


def tree_leaves(t: TreeNode) -> list[TreeNode]:
    """The leaves of a tree, left to right."""
    if t.kind != "op":
        return [t]
    return tree_leaves(t.children[0]) + tree_leaves(t.children[1])


def leaf_value(node: ElementNode) -> float:
    """Numeric meaning of a Quantity/Date leaf. Dates with only a year
    evaluate to the year; full or month-level dates to their day ordinal
    (month-level uses day 1)."""
    if node.kind == NodeKind.QUANTITY:
        return float(node.value)
    if node.kind == NodeKind.DATE:
        y, m, d = node.date_key
        if m == 0 and d == 0:
            return float(y)
        return float(datetime.date(y, m, max(d, 1)).toordinal())
    raise ValidationError(f"node {node.node_id} ({node.kind.value}) is not a leaf kind")


def execute_tree(t: TreeNode, nodes: NodeSet) -> float:
    if t.kind == "const":
        return float(t.value)
    if t.kind == "node":
        return leaf_value(nodes.get(t.value))
    a = execute_tree(t.children[0], nodes)
    b = execute_tree(t.children[1], nodes)
    if t.value == "+":
        return a + b
    if t.value == "-":
        return a - b
    if t.value == "*":
        return a * b
    if b == 0.0:
        raise DivisionByZero(f"{serialize_tree(t)} divides by zero")
    return a / b


class TreeVocab:
    """Token space for one decode: operators, constants, then the selected
    Quantity/Date leaves in ascending node-id order."""

    def __init__(self, leaf_node_ids: list[int], constants: list[int] | None = None):
        self.constants = DEFAULT_CONSTANTS if constants is None else list(constants)
        self.leaf_node_ids = sorted(leaf_node_ids)
        self.num_ops = len(OPS)
        self.num_constants = len(self.constants)

    def __len__(self) -> int:
        return self.num_ops + self.num_constants + len(self.leaf_node_ids)

    def describe(self, token: int) -> tuple[str, object]:
        if token < self.num_ops:
            return ("op", OPS[token])
        token -= self.num_ops
        if token < self.num_constants:
            return ("const", self.constants[token])
        return ("node", self.leaf_node_ids[token - self.num_constants])

    def token_for(self, kind: str, value: object) -> int:
        if kind == "op":
            return OPS.index(value)
        if kind == "const":
            return self.num_ops + self.constants.index(value)
        return self.num_ops + self.num_constants + self.leaf_node_ids.index(value)

    def tokens_for_tree(self, t: TreeNode) -> list[int]:
        out = [self.token_for(t.kind, t.value)]
        for child in t.children:
            out.extend(self.tokens_for_tree(child))
        return out

    def tree_from_tokens(self, tokens: list[int]) -> TreeNode:
        pos, size = 0, len(self)

        def build() -> TreeNode:
            nonlocal pos
            if pos == len(tokens):
                raise ValidationError("token sequence ends before the tree is complete")
            if not 0 <= tokens[pos] < size:
                raise ValidationError(f"token id {tokens[pos]} outside a vocabulary of {size}")
            kind, value = self.describe(tokens[pos])
            pos += 1
            if kind == "op":
                return TreeNode("op", value, (build(), build()))
            return TreeNode(kind, value)

        out = build()
        if pos != len(tokens):
            raise ValidationError("token sequence does not form one tree")
        return out


def selection_vocab(sel: NodeSelection, nodes: NodeSet,
                    constants: list[int] | None = None) -> TreeVocab:
    leaves = range(len(nodes))[nodes.leaves]
    return TreeVocab([nid for nid in sel.selected if nid in leaves], constants)


def _outer_sum(rows: Tensor, cols: Tensor) -> Tensor:
    """(S, H) and (M, H) to (S*M, H), where row i*M + j is rows[i] + cols[j]."""
    (s, h), m = rows.data.shape, cols.data.shape[0]
    return (rows.reshape((s, 1, h)) + cols.reshape((1, m, h))).reshape((s * m, h))


class TreeDecoder:
    """Learned pieces of the decoder: attention, candidate scoring, child
    goal derivation, subtree merge, and op/constant embeddings."""

    def __init__(self, rng: np.random.Generator, dim: int, drop: float = 0.5):
        self.dim = dim
        self.attn = FFN2(rng, 2 * dim, 1, "tree.attn", drop=drop)
        self.score = FFN2(rng, 3 * dim, 1, "tree.score", drop=drop)
        self.left = Linear(rng, 3 * dim, dim, "tree.left")
        self.right = Linear(rng, 4 * dim, dim, "tree.right")
        self.merge = Linear(rng, 3 * dim, dim, "tree.merge")
        self.op_table = Tensor(rng.uniform(-0.05, 0.05, size=(len(OPS), dim)),
                               requires_grad=True, name="tree.ops")
        self.const_table = Tensor(rng.uniform(-0.05, 0.05, size=(len(DEFAULT_CONSTANTS), dim)),
                                  requires_grad=True, name="tree.consts")

    def params(self) -> dict[str, Tensor]:
        out = {self.op_table.name: self.op_table, self.const_table.name: self.const_table}
        for part in (self.attn, self.score, self.left, self.right, self.merge):
            out.update(part.params())
        return out

    def candidate_embeddings(self, vocab: TreeVocab, sd_reprs: Tensor) -> Tensor:
        parts = [self.op_table]
        const_idx = np.asarray([c - 1 for c in vocab.constants], dtype=np.int64)
        if len(const_idx):
            parts.append(self.const_table.take_rows(const_idx))
        if vocab.leaf_node_ids:
            parts.append(sd_reprs.take_rows(np.asarray(vocab.leaf_node_ids, dtype=np.int64)))
        return concat(parts, axis=0)

    def context(self, goals: Tensor, sd_reprs: Tensor,
                rng: np.random.Generator | None = None) -> Tensor:
        """(S, d) attention contexts over the graph nodes, one per goal row."""
        d, n = self.dim, sd_reprs.data.shape[0]
        w = self.attn.l1.w
        pre = _outer_sum(goals @ w.slice_rows(0, d),
                         sd_reprs @ w.slice_rows(d, 2 * d) + self.attn.l1.b)
        scores = self.attn.tail(pre, rng)
        weights = scores.reshape((goals.data.shape[0], n)).softmax()
        return weights @ sd_reprs

    def step_log_probs(self, goals: Tensor, sd_reprs: Tensor, cand_embs: Tensor,
                       allow_ops: bool | np.ndarray, num_ops: int,
                       rng: np.random.Generator | None = None) -> tuple[Tensor, Tensor]:
        """Masked log-distributions over the vocabulary for S goals at once,
        (S, V), plus their contexts, (S, d). `allow_ops` is one bool or one
        per goal row.

        The first layers of attn and score run factored: [g, c, e] @ W equals
        g @ W_g + c @ W_c + e @ W_e, so the node and candidate products are
        taken once per call rather than once per goal on tiled rows."""
        d, s, n_cand = self.dim, goals.data.shape[0], cand_embs.data.shape[0]
        ctx = self.context(goals, sd_reprs, rng)
        w = self.score.l1.w
        pre = _outer_sum(goals @ w.slice_rows(0, d) + ctx @ w.slice_rows(d, 2 * d),
                         cand_embs @ w.slice_rows(2 * d, 3 * d) + self.score.l1.b)
        logits = self.score.tail(pre, rng).reshape((s, n_cand))
        keep = np.ones((s, n_cand), dtype=bool)
        keep[~np.broadcast_to(allow_ops, (s,)), :num_ops] = False
        if not keep.all():
            logits = add_masked(logits, keep)
        return logits.log_softmax(), ctx

    def left_goal(self, goal: Tensor, op_emb: Tensor, ctx: Tensor) -> Tensor:
        return self.left(concat([goal, op_emb, ctx], axis=1)).tanh()

    def right_goal(self, goal: Tensor, op_emb: Tensor, ctx: Tensor,
                   left_emb: Tensor) -> Tensor:
        """Derived only once the left subtree is complete, so its embedding
        can steer what the right child should be."""
        return self.right(concat([goal, op_emb, ctx, left_emb], axis=1)).tanh()

    def merge_subtree(self, op_emb: Tensor, left_emb: Tensor, right_emb: Tensor) -> Tensor:
        return self.merge(concat([op_emb, left_emb, right_emb], axis=1)).tanh()


@dataclass
class _Frame:
    op_emb: Tensor
    goal: Tensor  # the goal the operator was predicted under
    ctx: Tensor
    left_emb: Tensor | None = None


@dataclass
class _State:
    goal: Tensor | None  # None once finished
    frames: tuple[_Frame, ...]
    tokens: tuple[int, ...]
    logp: float
    order: int = 0  # creation rank, for a search that sorts by it (decode_tree: 0)


def _apply_token(decoder: TreeDecoder, state: _State, token: int, logp: float,
                 vocab: TreeVocab, cand_embs: Tensor, ctx: Tensor,
                 order: int) -> _State:
    kind, _value = vocab.describe(token)
    tokens = state.tokens + (token,)
    if kind == "op":
        op_emb = cand_embs.slice_rows(token, token + 1)
        frames = state.frames + (_Frame(op_emb, state.goal, ctx),)
        goal = decoder.left_goal(state.goal, op_emb, ctx)
        return _State(goal, frames, tokens, state.logp + logp, order)
    emb = cand_embs.slice_rows(token, token + 1)
    frames = list(state.frames)
    while frames and frames[-1].left_emb is not None:
        frame = frames.pop()
        emb = decoder.merge_subtree(frame.op_emb, frame.left_emb, emb)
    if not frames:
        return _State(None, (), tokens, state.logp + logp, order)
    top = frames[-1]
    frames[-1] = replace(top, left_emb=emb)
    goal = decoder.right_goal(top.goal, top.op_emb, top.ctx, emb)
    return _State(goal, tuple(frames), tokens, state.logp + logp, order)


def decode_tree(h_sd: Tensor, sd_reprs: Tensor, sel: NodeSelection, nodes: NodeSet,
                decoder: TreeDecoder, beam: int = 5, max_depth: int = 4,
                constants: list[int] | None = None) -> tuple[TreeNode, float]:
    """Beam-search the highest-probability expression tree.

    The root goal is the graph summary; operator tokens are masked once the
    pending-operator nesting reaches max_depth, so every search path
    terminates. Ties break toward earlier-created states, which expands to
    lower token ids first.

    Each step scores all alive states in one step_log_probs call, then ranks
    every child by its log-prob (stable, so creation order breaks ties)
    before building any: a child that completes the tree needs no tape ops
    (its merges only feed a goal of None), and of the rest only the `beam`
    best are built, and none once the best finished tree is at least as
    likely as all of them, since they would never be scored.
    """
    vocab = selection_vocab(sel, nodes, constants)
    if len(vocab) == vocab.num_ops:
        raise NoLeafCandidates("no constants and no selected Quantity/Date nodes")
    cand_embs = decoder.candidate_embeddings(vocab, sd_reprs)
    root_goal = h_sd.reshape((1, decoder.dim))
    alive = [_State(root_goal, (), (), 0.0)]
    finished: _State | None = None
    max_steps = 2 ** (max_depth + 1) - 1
    for _ in range(max_steps):
        goals = concat([state.goal for state in alive], axis=0)
        allow = np.array([len(state.frames) < max_depth for state in alive])
        lp, ctx = decoder.step_log_probs(goals, sd_reprs, cand_embs, allow, vocab.num_ops)
        # every allowed (state, token) child, in creation order
        allowed = np.ones(lp.data.shape, dtype=bool)
        allowed[~allow, :vocab.num_ops] = False
        rows, tokens = np.nonzero(allowed)
        logps = np.array([state.logp for state in alive])[rows] + lp.data[rows, tokens]
        closes = np.array([all(f.left_emb is not None for f in state.frames) for state in alive])
        finishing = closes[rows] & (tokens >= vocab.num_ops)
        if finishing.any():
            best = np.flatnonzero(finishing)[np.argmax(logps[finishing])]  # first of the best
            if finished is None or logps[best] > finished.logp:
                finished = _State(None, (), alive[rows[best]].tokens + (int(tokens[best]),),
                                  float(logps[best]))
        building = np.flatnonzero(~finishing)
        building = building[np.argsort(-logps[building], kind="stable")[:beam]]
        if not len(building) or (finished is not None and finished.logp >= logps[building[0]]):
            break  # no open child can still beat the finished tree
        children = []
        for c in building:
            i, token = int(rows[c]), int(tokens[c])
            children.append(_apply_token(decoder, alive[i], token, float(lp.data[i, token]),
                                         vocab, cand_embs, ctx.slice_rows(i, i + 1), 0))
        alive = children
    if finished is None:
        raise NoLeafCandidates("beam produced no finished tree within the step budget")
    return vocab.tree_from_tokens(list(finished.tokens)), finished.logp


def teacher_forced_log_probs(h_sd: Tensor, sd_reprs: Tensor, gold_tokens: list[int],
                             vocab: TreeVocab, decoder: TreeDecoder, max_depth: int = 4,
                             rng: np.random.Generator | None = None) -> list[Tensor]:
    """Per-step masked log-distributions along the gold pre-order sequence,
    for the tree loss. Uses the same transitions as decoding."""
    cand_embs = decoder.candidate_embeddings(vocab, sd_reprs)
    state = _State(h_sd.reshape((1, decoder.dim)), (), (), 0.0)
    out = []
    for token in gold_tokens:
        if state.goal is None:
            raise ValidationError("gold token sequence continues past a complete tree")
        allow_ops = len(state.frames) < max_depth
        lp, ctx = decoder.step_log_probs(state.goal, sd_reprs, cand_embs,
                                         allow_ops, vocab.num_ops, rng)
        out.append(lp)
        state = _apply_token(decoder, state, token, 0.0, vocab, cand_embs, ctx, 0)
    if state.goal is not None:
        raise ValidationError("gold token sequence does not complete a tree")
    return out


@dataclass
class Answer:
    answer_type: AnswerType
    value: object  # str | float | list[str]
    scale: Scale
    raw_value: float | None = None  # exact numeric value before display rounding
    expression: str | None = None


def span_to_text(seq: TokenSequence, start: int, end: int,
                 source_texts: dict[int | None, str]) -> str:
    """Reconstruct the surface string for tokens start..end inclusive by
    splicing char spans per source; distinct sources joined by a space.
    Char spans increase within a source, so a run i..j of one source is
    the text from starts[i] to ends[j]."""
    pieces = []
    i = start
    while i <= end:
        block = seq.block_ids[seq.source_ids[i]]
        j = min(end, seq.source_range(block)[1] - 1)
        pieces.append(source_texts[block][seq.starts[i]:seq.ends[j]])
        i = j + 1
    return " ".join(pieces)


def assemble_answer(atype: AnswerType, scale: Scale, seq: TokenSequence,
                    source_texts: dict[int | None, str],
                    span: tuple[int, int] | None = None,
                    tags: np.ndarray | None = None,
                    tree: TreeNode | None = None,
                    nodes: NodeSet | None = None) -> Answer:
    """Combine head outputs into the final typed answer. An Arithmetic
    answer's display value is rounded to 2 decimals; raw_value keeps the
    unrounded result, which scoring and the prediction dump use."""
    if atype == AnswerType.SPAN:
        if span is None:
            raise InconsistentComponents("Span answer without a span prediction")
        text = span_to_text(seq, span[0], span[1], source_texts).strip()
        if not text:
            raise InconsistentComponents("Span answer decoded to empty text")
        return Answer(atype, text, scale)
    if atype in (AnswerType.SPANS, AnswerType.COUNTING):
        if tags is None:
            raise InconsistentComponents(f"{atype.value} answer without token tags")
        raw_texts = [span_to_text(seq, s, e, source_texts).strip()
                     for s, e in bio_spans(tags)]
        raw_texts = [t for t in raw_texts if t]
        if atype == AnswerType.COUNTING:
            return Answer(atype, float(len(raw_texts)), scale, raw_value=float(len(raw_texts)))
        texts = []
        for t in raw_texts:
            if t not in texts:
                texts.append(t)
        if not texts:
            raise InconsistentComponents("Spans answer decoded to no spans")
        return Answer(atype, texts, scale)
    if tree is None or nodes is None:
        raise InconsistentComponents("Arithmetic answer without a decoded tree")
    raw = execute_tree(tree, nodes)
    if not math.isfinite(raw):
        raise NonFiniteResult(f"{serialize_tree(tree)} evaluates to {raw}")
    value = raw
    if value != int(value):
        value = round(value, 2)
    return Answer(atype, value, scale, raw_value=raw, expression=serialize_tree(tree))
