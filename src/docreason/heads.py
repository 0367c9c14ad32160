"""Prediction heads over GCN outputs: node selection, token masking, answer
type, extractive span, BIO tagging, and scale classification.

Heads return both the autodiff tensors (log-probabilities, for the loss)
and plain decoded results. All probability outputs are proper softmax
distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import Tensor, concat
from .document import TokenSequence
from .elements import NodeSet
from .errors import GoldOverCap, NoValidTokens, ValidationError
from .nn import FFN2


class AnswerType(str, Enum):
    SPAN = "Span"
    SPANS = "Spans"
    COUNTING = "Counting"
    ARITHMETIC = "Arithmetic"


ANSWER_TYPES = list(AnswerType)


class Scale(str, Enum):
    NONE = "None"
    THOUSAND = "Thousand"
    MILLION = "Million"
    BILLION = "Billion"
    PERCENT = "Percent"


SCALES = list(Scale)
# a token's BIO label: its row in tag_tokens' distribution
BIO_B, BIO_I, BIO_O = range(3)


@dataclass
class NodeSelection:
    selected: list[int]  # node ids, ascending
    probabilities: np.ndarray  # (N,) P(relevant)
    log_probs: Tensor  # (N, 2) for the loss


@dataclass
class UpdatedTokens:
    matrix: Tensor  # (valid, 2*dim): the rows of the valid positions, in order
    valid_mask: np.ndarray  # (len,) bool
    positions: np.ndarray  # (valid,) the valid positions, ascending


@dataclass
class HeadOutput:
    log_probs: Tensor
    probabilities: np.ndarray
    argmax: int


def classify_nodes(sd_reprs: Tensor, ffn: FFN2, max_nodes: int = 12,
                   rng: np.random.Generator | None = None) -> NodeSelection:
    """Per-node relevance; selected = P > 0.5, capped at the max_nodes
    highest probabilities with ties broken toward lower node ids."""
    log_probs = ffn(sd_reprs, rng).log_softmax()
    probs = np.exp(log_probs.data[:, 1])
    over = np.flatnonzero(probs > 0.5)
    kept = over[np.argsort(-probs[over], kind="stable")[:max_nodes]]
    return NodeSelection(selected=np.sort(kept).tolist(),
                         probabilities=probs, log_probs=log_probs)


def inject_gold_nodes(sel: NodeSelection, gold_nodes: set[int], max_nodes: int = 12,
                      train: bool = True) -> NodeSelection:
    """Training-only: force gold nodes into the selection, evicting the
    lowest-probability non-gold nodes if the cap would be exceeded."""
    if not train:
        raise ValidationError("gold node injection is a training-only operation")
    if len(gold_nodes) > max_nodes:
        raise GoldOverCap(f"{len(gold_nodes)} gold nodes exceed the cap of {max_nodes}")
    merged = set(sel.selected) | set(gold_nodes)
    if len(merged) > max_nodes:
        evictable = sorted((n for n in merged if n not in gold_nodes),
                           key=lambda n: (sel.probabilities[n], -n))
        for nid in evictable:
            if len(merged) <= max_nodes:
                break
            merged.discard(nid)
    return NodeSelection(selected=sorted(merged), probabilities=sel.probabilities,
                         log_probs=sel.log_probs)


def mask_and_update_tokens(token_embs: Tensor, sel: NodeSelection, nodes: NodeSet,
                           sd_reprs: Tensor, seq: TokenSequence) -> UpdatedTokens:
    """The tokens covered by a selected Question/Block node are valid; each
    gets the row concat(h_token, h_owner). No other token has a row."""
    owner_row = np.zeros(len(seq), dtype=np.int64)
    valid = np.zeros(len(seq), dtype=bool)
    sources = range(len(nodes))[nodes.sources]
    for i in sel.selected:
        if i in sources:
            lo, hi = nodes.nodes[i].token_range
            owner_row[lo:hi] = i
            valid[lo:hi] = True
    positions = np.flatnonzero(valid)
    matrix = concat([token_embs.take_rows(positions),
                     sd_reprs.take_rows(owner_row[positions])], axis=1)
    return UpdatedTokens(matrix=matrix, valid_mask=valid, positions=positions)


def _per_token(u: UpdatedTokens, ffn: FFN2, fill: float, rng: np.random.Generator | None,
               log_softmax: bool = False) -> Tensor:
    """`ffn` over the valid rows (log-softmaxed per row if asked), spread to
    one row per token with `fill` in every entry of the other rows."""
    n, k = len(u.valid_mask), len(u.positions)
    out = ffn(u.matrix, rng)
    if log_softmax:
        out = out.log_softmax()
    index = np.full(n, k)  # row k: the fill row
    index[u.positions] = np.arange(k)
    return concat([out, Tensor(np.full((1, out.data.shape[1]), fill))]).take_rows(index)


def predict_span(u: UpdatedTokens, start_ffn: FFN2, end_ffn: FFN2, max_span_len: int = 64,
                 rng: np.random.Generator | None = None) -> tuple[Tensor, Tensor, tuple[int, int]]:
    """Start/end distributions over valid positions plus the decoded pair
    (s, e), inclusive, maximizing P_start * P_end with s <= e and
    e - s < max_span_len."""
    if not u.valid_mask.any():
        raise NoValidTokens("span prediction over a fully masked sequence")
    n = len(u.valid_mask)
    # -1e9 at invalid positions: each adds exactly 0 to the softmax sum
    start_lp = _per_token(u, start_ffn, -1e9, rng).reshape((1, n)).log_softmax()
    end_lp = _per_token(u, end_ffn, -1e9, rng).reshape((1, n)).log_softmax()
    # scores[s, k] is the score of (s, s + k), -inf at invalid starts and ends
    # and past the end; the first maximum in row-major order has the lowest s, e.
    valid = u.valid_mask
    w = min(max_span_len, n)
    ends = np.full(n + w - 1, -np.inf)
    ends[:n][valid] = end_lp.data[0][valid]
    scores = np.where(valid[:, None], start_lp.data[0][:, None], -np.inf) \
        + sliding_window_view(ends, w)
    s, k = divmod(int(np.argmax(scores)), w)
    return start_lp, end_lp, (s, s + k)


def tag_tokens(u: UpdatedTokens, ffn: FFN2,
               rng: np.random.Generator | None = None) -> tuple[Tensor, np.ndarray]:
    """3-way B/I/O log-probabilities per token (0 at masked tokens, which
    the loss weights by 0) and each token's label, its first most likely
    one; masked tokens are forced to O."""
    log_probs = _per_token(u, ffn, 0.0, rng, log_softmax=True)
    return log_probs, np.where(u.valid_mask, log_probs.data.argmax(axis=1), BIO_O)


def bio_spans(labels: np.ndarray) -> list[tuple[int, int]]:
    """Decode (start, end) inclusive ranges. Lenient: an I without a
    preceding B opens a span. A span starts at a B, or at an I after an O
    or at position 0, and ends at a B or I that no I follows."""
    before = np.concatenate(([BIO_O], labels))[:-1]
    after = np.concatenate((labels, [BIO_O]))[1:]
    starts = (labels == BIO_B) | ((labels == BIO_I) & (before == BIO_O))
    ends = ((labels == BIO_B) | (labels == BIO_I)) & (after != BIO_I)
    return list(zip(np.flatnonzero(starts).tolist(), np.flatnonzero(ends).tolist()))


def classify_answer_type(h_sd: Tensor, ffn: FFN2,
                         rng: np.random.Generator | None = None) -> HeadOutput:
    """A class of the whole document, from its summary h_sd: the answer type,
    or, under its other name, the scale."""
    log_probs = ffn(h_sd.reshape((1, h_sd.data.shape[-1])), rng).log_softmax()
    probs = np.exp(log_probs.data[0])
    return HeadOutput(log_probs=log_probs, probabilities=probs, argmax=int(np.argmax(probs)))


classify_scale = classify_answer_type
