"""Corpus records to model-ready instances and supervision targets.

A corpus file is either a JSON array or JSON-lines of records:

    {"doc_id", "question", "pages", "blocks",
     "answer": {"type", "value", "scale", "evidence_node_refs",
                "expression" (Arithmetic only)}}

Evidence refs address inventory nodes positionally:
{"kind": "quantity", "block_id": 3, "index": 1} is the second quantity
extracted from block 3 (block_id null means the question). Expressions use
e#k for the k-th evidence ref and c#k for constants.
"""

from __future__ import annotations

import logging
import re
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .document import (CanonicalDocument, TokenSequence, ingest_document, read_json, tokenize,
                       transform_multipage)
from .elements import NodeKind, NodeSet, build_node_inventory
from .errors import DivisionByZero, DocReasonError, SchemaError, ValidationError
from .graphs import GraphKind, SemanticGraph, build_all_graphs
from .heads import BIO_B, BIO_I, BIO_O, AnswerType, Scale
from .tree import Answer, TreeNode, execute_tree, parse_tree, serialize_tree, tree_leaves

logger = logging.getLogger(__name__)

_REF_KINDS = {"question": NodeKind.QUESTION, "block": NodeKind.BLOCK,
              "quantity": NodeKind.QUANTITY, "date": NodeKind.DATE}


@dataclass
class Supervision:
    answer: Answer
    gold_nodes: set[int]
    gold_tree: TreeNode | None = None
    span: tuple[int, int] | None = None  # inclusive token indices
    bio_labels: np.ndarray | None = None  # heads.BIO_B/BIO_I/BIO_O per token

    @property
    def answer_type(self) -> AnswerType:
        return self.answer.answer_type


@dataclass
class Instance:
    qid: str
    question: str
    canon: CanonicalDocument
    seq: TokenSequence
    nodes: NodeSet
    graphs: dict[GraphKind, SemanticGraph]
    source_texts: dict[int | None, str]
    gold: Supervision | None = None


def load_records(path: str) -> list[dict]:
    """Records of a JSON array or JSONL file; an unreadable file or invalid
    JSON raises SchemaError naming the path."""
    records = read_json(path, lines=True)
    if not isinstance(records, list):
        raise SchemaError(f"{path}: top-level JSON must be a list")
    return records


def resolve_ref(nodes: NodeSet, ref: dict) -> int:
    if not isinstance(ref, dict) or "kind" not in ref:
        raise SchemaError(f"evidence ref must be an object with a kind: {ref!r}")
    kind = _REF_KINDS.get(ref["kind"]) if isinstance(ref["kind"], str) else None
    if kind is None:
        raise SchemaError(f"unknown evidence ref kind {ref['kind']!r}")
    block_id = ref.get("block_id")
    if kind == NodeKind.QUESTION:
        return nodes.question_node().node_id
    if kind == NodeKind.BLOCK:
        try:
            return nodes.block_node(block_id).node_id
        except KeyError:
            raise ValidationError(f"evidence ref names missing block {block_id!r}") from None
    index = ref.get("index", 0)
    for node in nodes.by_kind(kind):
        if node.block_id == block_id and node.occurrence == index:
            return node.node_id
    raise ValidationError(
        f"no {kind.value} node with occurrence {index!r} in "
        f"{'question' if block_id is None else f'block {block_id!r}'}")


def build_instance(record: dict, max_len: int = 256, with_gold: bool = True,
                   constants_max: int | None = None) -> Instance:
    """A record compiled for the model. With `constants_max`, a gold expression
    constant outside 1..constants_max, the decoder's, is a ValidationError."""
    doc = ingest_document(record)
    question = record.get("question")
    if not isinstance(question, str) or not question.strip():
        raise SchemaError(f"{doc.doc_id}: question must be a non-empty string")
    canon = transform_multipage(doc)
    seq = tokenize(canon, question, max_len)
    nodes = build_node_inventory(canon, question, seq)
    graphs = build_all_graphs(nodes)
    source_texts: dict[int | None, str] = {None: question}
    for block in canon.blocks:
        source_texts[block.block_id] = block.text
    inst = Instance(qid=doc.doc_id, question=question, canon=canon, seq=seq,
                    nodes=nodes, graphs=graphs, source_texts=source_texts)
    if with_gold and isinstance(record.get("answer"), dict):
        try:
            inst.gold = build_supervision(inst, record["answer"], constants_max)
        except DocReasonError as exc:  # each supervision error names its question once
            raise type(exc)(f"{inst.qid}: {exc}") from None
    return inst


def _find_span_tokens(inst: Instance, text: str,
                      block_ids: list[int]) -> tuple[int, tuple[int, int]]:
    """Locate a gold answer string inside one of the evidence blocks (every
    block, then the question, when none is given). Returns the node id of
    the Question/Block it was found in and the inclusive range of that
    source's tokens lying inside the match. The match is made in lowercase
    and mapped back to char offsets of the source text."""
    needle, seq = text.strip().lower(), inst.seq
    candidates: list[int | None] = list(block_ids) or [*seq.block_ranges, None]
    for bid in candidates:
        source_text = inst.source_texts[bid]
        lowered = source_text.lower()
        at = lowered.find(needle)
        if at < 0:
            continue
        lo, hi = at, at + len(needle)
        if len(lowered) > len(source_text):  # a letter such as İ lowercases to two
            bounds = list(accumulate((len(c.lower()) for c in source_text), initial=0))
            lo, hi = bisect_right(bounds, lo) - 1, bisect_left(bounds, hi)
        first, stop = seq.inside_range(bid, lo, hi)
        if first < stop:
            source = inst.nodes.question_node() if bid is None else inst.nodes.block_node(bid)
            return source.node_id, (first, stop - 1)
    raise ValidationError(f"answer text {text!r} not found in evidence blocks")


def _substitute_expression(expr: str, node_ids: list[int]) -> str:
    def repl(m: re.Match) -> str:
        k = int(m.group(1))
        if k >= len(node_ids):
            raise ValidationError(f"expression leaf e#{k} has no evidence ref")
        return f"n#{node_ids[k]}"
    return re.sub(r"e#(\d+)", repl, expr)


def build_supervision(inst: Instance, answer: dict,
                      constants_max: int | None = None) -> Supervision:
    try:
        atype = AnswerType(answer.get("type"))
    except ValueError:
        raise SchemaError(f"unknown answer type {answer.get('type')!r}") from None
    try:
        scale = Scale(answer.get("scale", "None"))
    except ValueError:
        raise SchemaError(f"unknown scale {answer.get('scale')!r}") from None
    refs = answer.get("evidence_node_refs", [])
    if not isinstance(refs, list):
        raise SchemaError("evidence_node_refs must be a list")
    ref_ids = [resolve_ref(inst.nodes, r) for r in refs]
    gold_nodes = set(ref_ids)
    # The owning Question/Block of every leaf ref is evidence too.
    for nid in list(gold_nodes):
        parent = inst.nodes.get(nid).parent_id
        if parent is not None:
            gold_nodes.add(parent)
    leaves = range(len(inst.nodes))[inst.nodes.leaves]
    value = answer.get("value")
    sup = Supervision(answer=Answer(atype, value, scale,
                                    raw_value=float(value) if isinstance(value, (int, float)) else None),
                      gold_nodes=gold_nodes)

    if atype == AnswerType.ARITHMETIC:
        expr = answer.get("expression")
        if not isinstance(expr, str):
            raise SchemaError("Arithmetic answer needs an expression")
        tree = parse_tree(_substitute_expression(expr, ref_ids))
        for leaf in tree_leaves(tree):
            if leaf.kind == "const" and constants_max and not 1 <= leaf.value <= constants_max:
                raise ValidationError(f"expression constant c#{leaf.value} is outside the "
                                      f"decoder's constants 1..{constants_max}")
            if leaf.kind != "node" or leaf.value in leaves:
                continue
            if not 0 <= leaf.value < len(inst.nodes):
                raise ValidationError(f"expression leaf n#{leaf.value} is not a node")
            raise ValidationError(f"expression leaf n#{leaf.value} is a "
                                  f"{inst.nodes.get(leaf.value).kind.value} node")
        sup.gold_tree = tree
        if isinstance(value, (int, float)):
            try:
                got = execute_tree(tree, inst.nodes)
            except DivisionByZero:
                raise ValidationError(f"expression {expr} divides by zero") from None
            if abs(got - float(value)) > 1e-6 * max(1.0, abs(float(value))):
                logger.warning("%s: expression %s executes to %r, gold value is %r",
                               inst.qid, serialize_tree(tree), got, value)
    elif atype == AnswerType.SPAN:
        if not isinstance(value, str):
            raise SchemaError("Span answer value must be a string")
        source, sup.span = _find_span_tokens(inst, value, _block_ids(inst, gold_nodes))
        gold_nodes.add(source)  # the source an answer is found in is evidence
    elif atype == AnswerType.SPANS:
        if (not isinstance(value, list) or len(value) < 2
                or not all(isinstance(text, str) for text in value)):
            raise SchemaError("Spans answer value must be a list of >= 2 strings")
        block_ids = _block_ids(inst, gold_nodes)
        found = [_find_span_tokens(inst, text, block_ids) for text in value]
        gold_nodes.update(source for source, _ in found)
        sup.bio_labels = _bio_from_ranges(len(inst.seq), [span for _, span in found])
    else:  # Counting
        element_ids = [n for n in gold_nodes if n in leaves]
        if not element_ids:
            raise ValidationError("Counting answer needs Quantity/Date evidence refs")
        if isinstance(value, (int, float)) and value != len(element_ids):
            logger.warning("%s: count %r differs from %d counted evidence nodes",
                           inst.qid, value, len(element_ids))
        sup.bio_labels = _bio_from_nodes(inst, element_ids)
    return sup


def _bio_from_ranges(length: int, ranges: list[tuple[int, int]]) -> np.ndarray:
    labels = np.full(length, BIO_O)
    for s, e in ranges:
        labels[s] = BIO_B
        labels[s + 1:e + 1] = BIO_I
    return labels


def _block_ids(inst: Instance, node_ids: set[int]) -> list[int]:
    """The block ids of the Block nodes among node_ids."""
    return [inst.nodes.get(n).block_id for n in node_ids
            if inst.nodes.get(n).kind == NodeKind.BLOCK]


def _bio_from_nodes(inst: Instance, node_ids: list[int]) -> np.ndarray:
    ranges = []
    for nid in sorted(node_ids):
        lo, hi = inst.nodes.get(nid).token_range
        ranges.append((lo, hi - 1))
    return _bio_from_ranges(len(inst.seq), ranges)


def check_corpus(path: str, max_len: int = 256, with_gold: bool = True,
                 constants_max: int | None = None) -> Iterator[Instance | DocReasonError]:
    """Per record of the corpus, its instance or the SchemaError or
    ValidationError that building it raised, naming the path and the
    record's index. doc_id keys the prediction dump and the graph files, so
    a doc_id seen in an earlier record is a ValidationError."""
    seen = set()
    for index, record in enumerate(load_records(path)):
        try:
            inst = build_instance(record, max_len, with_gold, constants_max)
            if inst.qid in seen:
                raise ValidationError(f"duplicate doc_id {inst.qid!r}")
        except (SchemaError, ValidationError) as exc:
            yield type(exc)(f"{path} record {index}: {exc}")
            continue
        seen.add(inst.qid)
        yield inst


def load_corpus(path: str, max_len: int = 256, with_gold: bool = True,
                constants_max: int | None = None) -> list[Instance]:
    """One instance per record; raises the error of the first bad record
    (see check_corpus)."""
    instances = []
    for inst in check_corpus(path, max_len, with_gold, constants_max):
        if isinstance(inst, DocReasonError):
            raise inst
        instances.append(inst)
    return instances
