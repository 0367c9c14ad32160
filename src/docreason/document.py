"""Document ingestion, multi-page flattening, and tokenization.

Input records describe a visually-rich document as pages plus layout blocks
with normalized bounding boxes (coordinates in 0..1000 relative to their
page). This module validates records, flattens multi-page documents onto a
single canonical canvas, and produces the token sequence the model consumes.
It also holds `read_json`, the one reader of every JSON input file.
"""

from __future__ import annotations

import json
import logging
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import compress
from operator import attrgetter, ne
from typing import NamedTuple

import numpy as np

from .errors import DegenerateGeometry, QuestionTooLong, SchemaError, ValidationError
from .vocab import token_slot, tokenize_text

logger = logging.getLogger(__name__)

COORD_MAX = 1000

_KNOWN_RECORD_FIELDS = {"doc_id", "question", "pages", "blocks", "answer"}
_KNOWN_PAGE_FIELDS = {"width", "height"}
_KNOWN_BLOCK_FIELDS = {"block_id", "page_index", "order", "text", "box"}


@dataclass(frozen=True)
class BoundingBox:
    x0: int
    y0: int
    x1: int
    y1: int

    def as_list(self) -> list[int]:
        return [self.x0, self.y0, self.x1, self.y1]


@dataclass(frozen=True)
class Page:
    width: int
    height: int


@dataclass(frozen=True)
class Block:
    block_id: int
    page_index: int
    order: int
    text: str
    box: BoundingBox


@dataclass
class Document:
    doc_id: str
    pages: list[Page]
    blocks: list[Block]


@dataclass
class CanonicalDocument:
    """Single-canvas view of a document: all boxes live in one 0..1000 frame.

    page_offsets[p] is the fractional vertical offset of page p on the
    canvas (p / num_pages), kept as an exact fraction of integers.
    """

    doc_id: str
    blocks: list[Block]
    page_offsets: list[float]


class Token(NamedTuple):
    """One token; a named tuple, which builds several times faster than a
    frozen dataclass and tokenize makes one per token of every record."""

    text: str
    block_id: int | None  # None means the token comes from the question
    start: int  # char span within the source text
    end: int
    box: BoundingBox | None


_START, _END = attrgetter("start"), attrgetter("end")

# The index arrays an instance keeps hold positions below its token and node
# counts; 32 bits halve what they take while the instance stays loaded.
INDEX_DTYPE = np.int32


@dataclass
class TokenSequence:
    """The model input: question tokens, then block tokens.

    Built once per instance, it also holds the integer arrays an embedding
    gathers by: `texts` are the distinct token texts in order of first use
    and `text_ids` each token's index into them; `slots` is each token's
    embedding-table slot (vocab.token_slot); `source_ids` is each token's
    source, 0 for the question and k for the k-th block in the sequence,
    and `source_boxes` holds one row of box coordinates per source (zeros
    for the question, which has no box). The index arrays are INDEX_DTYPE.
    """

    tokens: list[Token]
    question_len: int
    block_ranges: dict[int, tuple[int, int]] = field(init=False)
    texts: list[str] = field(init=False, repr=False, compare=False)
    text_ids: np.ndarray = field(init=False, repr=False, compare=False)
    slots: np.ndarray = field(init=False, repr=False, compare=False)
    source_ids: np.ndarray = field(init=False, repr=False, compare=False)
    source_boxes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.tokens)
        texts = [t.text for t in self.tokens]
        self.texts = list(dict.fromkeys(texts))
        index = dict(zip(self.texts, range(len(self.texts))))
        self.text_ids = np.fromiter(map(index.__getitem__, texts), INDEX_DTYPE, n)
        slots = np.fromiter(map(token_slot, self.texts), INDEX_DTYPE, len(self.texts))
        self.slots = slots[self.text_ids]
        # one range per run of tokens with one block id, cut where the id changes
        ids = [t.block_id for t in self.tokens]
        cuts = [0, *compress(range(1, n), map(ne, ids, ids[1:])), n]
        self.block_ranges = {ids[lo]: (lo, hi) for lo, hi in zip(cuts, cuts[1:])
                             if lo < hi and ids[lo] is not None}
        lengths = [self.question_len] + [hi - lo for lo, hi in self.block_ranges.values()]
        self.source_ids = np.repeat(np.arange(len(lengths), dtype=INDEX_DTYPE), lengths)
        self.source_boxes = np.array([[0, 0, 0, 0]] + [self.tokens[lo].box.as_list()
                                                       for lo, _ in self.block_ranges.values()])

    def __len__(self) -> int:
        return len(self.tokens)

    def question_range(self) -> tuple[int, int]:
        return (0, self.question_len)

    def source_range(self, block_id: int | None) -> tuple[int, int]:
        """Token positions of the question (block_id None) or of one block."""
        return self.question_range() if block_id is None else self.block_ranges[block_id]

    def overlap_range(self, block_id: int | None, start: int, end: int) -> tuple[int, int]:
        """(lo, hi): the tokens of one source whose char span overlaps
        [start, end). Tokens of a source have increasing, non-overlapping char
        spans, so those tokens are contiguous and two bisections find them."""
        lo, hi = self.source_range(block_id)
        first = bisect_right(self.tokens, start, lo, hi, key=_END)
        return first, max(first, bisect_left(self.tokens, end, lo, hi, key=_START))

    def inside_range(self, block_id: int | None, start: int, end: int) -> tuple[int, int]:
        """(lo, hi): the tokens of one source whose char span lies inside
        [start, end), found by two bisections as in overlap_range."""
        lo, hi = self.source_range(block_id)
        first = bisect_left(self.tokens, start, lo, hi, key=_START)
        return first, max(first, bisect_right(self.tokens, end, lo, hi, key=_END))


def read_json(path: str, lines: bool = False):
    """The JSON value held by the file at `path`. With `lines`, a text that
    does not start with '[' is JSON lines and reads as the list of its
    values. An unreadable file or invalid JSON raises SchemaError naming
    the path."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        if lines and not text.lstrip().startswith("["):
            return [json.loads(line) for line in text.splitlines() if line.strip()]
        return json.loads(text)
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise SchemaError(f"{path}: invalid JSON: {exc}") from None


def _require(cond: bool, msg: str):
    if not cond:
        raise SchemaError(msg)


def _is_int(value) -> bool:
    """A JSON integer: true and false are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_box(raw, where: str) -> BoundingBox:
    _require(isinstance(raw, list) and len(raw) == 4, f"{where}: box must be a 4-element list")
    vals = []
    for v in raw:
        _require(_is_int(v), f"{where}: box coordinates must be integers")
        vals.append(v)
    x0, y0, x1, y1 = vals
    if not (0 <= x0 <= x1 <= COORD_MAX and 0 <= y0 <= y1 <= COORD_MAX):
        raise ValidationError(f"{where}: box {vals} outside 0..{COORD_MAX} or inverted")
    return BoundingBox(x0, y0, x1, y1)


def _warn_unknown(obj: dict, known: set[str], where: str):
    for k in sorted(set(obj) - known):
        logger.warning("%s: ignoring unknown field %r", where, k)


def ingest_document(record: dict) -> Document:
    """Validate the document part of a corpus record and return a Document.

    Blocks come back sorted by (page_index, order). Raises SchemaError for
    structural problems and ValidationError for out-of-range values; unknown
    fields are logged and ignored.
    """
    _require(isinstance(record, dict), "record must be an object")
    _warn_unknown(record, _KNOWN_RECORD_FIELDS, "record")
    doc_id = record.get("doc_id")
    _require(isinstance(doc_id, str) and doc_id != "", "doc_id must be a non-empty string")

    raw_pages = record.get("pages")
    _require(isinstance(raw_pages, list) and len(raw_pages) > 0, f"{doc_id}: pages must be a non-empty list")
    pages = []
    for p, rp in enumerate(raw_pages):
        _require(isinstance(rp, dict), f"{doc_id}: page {p} must be an object")
        _warn_unknown(rp, _KNOWN_PAGE_FIELDS, f"{doc_id} page {p}")
        w, h = rp.get("width"), rp.get("height")
        _require(_is_int(w) and _is_int(h), f"{doc_id}: page {p} width/height must be integers")
        pages.append(Page(w, h))

    raw_blocks = record.get("blocks")
    _require(isinstance(raw_blocks, list), f"{doc_id}: blocks must be a list")
    blocks = []
    seen_ids: set[int] = set()
    for i, rb in enumerate(raw_blocks):
        _require(isinstance(rb, dict), f"{doc_id}: block {i} must be an object")
        _warn_unknown(rb, _KNOWN_BLOCK_FIELDS, f"{doc_id} block {i}")
        bid = rb.get("block_id")
        _require(_is_int(bid), f"{doc_id}: block {i} block_id must be an integer")
        if bid in seen_ids:
            raise ValidationError(f"{doc_id}: duplicate block_id {bid}")
        seen_ids.add(bid)
        page_index = rb.get("page_index")
        _require(_is_int(page_index), f"{doc_id}: block {bid} page_index must be an integer")
        if not 0 <= page_index < len(pages):
            raise ValidationError(f"{doc_id}: block {bid} page_index {page_index} out of range")
        order = rb.get("order")
        _require(_is_int(order), f"{doc_id}: block {bid} order must be an integer")
        text = rb.get("text")
        _require(isinstance(text, str), f"{doc_id}: block {bid} text must be a string")
        if text.strip() == "":
            raise ValidationError(f"{doc_id}: block {bid} has empty text")
        box = _check_box(rb.get("box"), f"{doc_id} block {bid}")
        blocks.append(Block(bid, page_index, order, text, box))

    blocks.sort(key=lambda b: (b.page_index, b.order))
    return Document(doc_id=doc_id, pages=pages, blocks=blocks)


def transform_multipage(doc: Document) -> CanonicalDocument:
    """Flatten all pages onto one canonical 0..1000 canvas, stacked vertically.

    Stretching every page to a common size and restacking cancels out in
    normalized coordinates, leaving x unchanged and
    y' = (y + 1000 * page) / num_pages.
    """
    for p, page in enumerate(doc.pages):
        if page.width <= 0 or page.height <= 0:
            raise DegenerateGeometry(f"{doc.doc_id}: page {p} has non-positive dimensions")
    n = len(doc.pages)
    out_blocks = []
    for b in doc.blocks:
        if n == 1:
            box = b.box
        else:
            p = b.page_index
            box = BoundingBox(
                b.box.x0,
                int(round((b.box.y0 + COORD_MAX * p) / n)),
                b.box.x1,
                int(round((b.box.y1 + COORD_MAX * p) / n)),
            )
        out_blocks.append(Block(b.block_id, b.page_index, b.order, b.text, box))
    return CanonicalDocument(doc_id=doc.doc_id, blocks=out_blocks,
                             page_offsets=[p / n for p in range(n)])


def tokenize(canon: CanonicalDocument, question: str, max_len: int = 256) -> TokenSequence:
    """Build the model input sequence: question tokens, then block tokens.

    The question is never truncated (QuestionTooLong if it alone exceeds
    max_len); document tokens are dropped from the tail once the budget is
    spent. Each token keeps a char span into its source text, and block
    tokens inherit their block's canonical box. Block tokens with equal
    texts share one string, so a loaded instance holds each text once.
    """
    q_tokens = [Token(t, None, s, e, None) for t, s, e in tokenize_text(question)]
    if len(q_tokens) > max_len:
        raise QuestionTooLong(
            f"{canon.doc_id}: question tokenizes to {len(q_tokens)} tokens (max {max_len})")
    tokens = list(q_tokens)
    texts = {t.text: t.text for t in q_tokens}
    for block in canon.blocks:
        if len(tokens) >= max_len:
            break
        for t, s, e in tokenize_text(block.text):
            tokens.append(Token(texts.setdefault(t, t), block.block_id, s, e, block.box))
            if len(tokens) >= max_len:
                break
    return TokenSequence(tokens=tokens, question_len=len(q_tokens))
