"""Document ingestion, multi-page flattening, and tokenization.

Input records describe a visually-rich document as pages plus layout blocks
with normalized bounding boxes (coordinates in 0..1000 relative to their
page). This module validates records, flattens multi-page documents onto a
single canonical canvas, and produces the token sequence the model consumes.
It also holds `read_json` and `write_atomic`, the one reader of every JSON
input file and the one writer of every output file.
"""

from __future__ import annotations

import json
import logging
import os
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

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


# The index arrays an instance keeps hold positions below its token and node
# counts; 32 bits halve what they take while the instance stays loaded.
INDEX_DTYPE = np.int32


@dataclass
class TokenSequence:
    """The model input, question tokens then block tokens, as columns.

    Token i has the text texts[text_ids[i]] (`texts` are the distinct texts
    in order of first use), the embedding-table slot slots[i]
    (vocab.token_slot), the char span starts[i]:ends[i] in its source, and
    the source source_ids[i]: 0 for the question, k for the k-th block.
    Per source, block_ids holds its block id (None for the question) and
    source_boxes its box (zeros for the question). Char spans increase
    within a source. The index arrays are INDEX_DTYPE; starts and ends are
    32-bit arrays, which bisect reads as they are.
    """

    texts: list[str]
    text_ids: np.ndarray
    slots: np.ndarray
    starts: array
    ends: array
    source_ids: np.ndarray
    block_ids: list[int | None]
    source_boxes: np.ndarray
    question_len: int = field(init=False)
    block_ranges: dict[int, tuple[int, int]] = field(init=False)

    def __post_init__(self):
        bounds = np.searchsorted(self.source_ids, np.arange(len(self.block_ids) + 1)).tolist()
        self.question_len = bounds[1]
        self.block_ranges = dict(zip(self.block_ids[1:], zip(bounds[1:], bounds[2:])))

    def __len__(self) -> int:
        return len(self.text_ids)

    def source_range(self, block_id: int | None) -> tuple[int, int]:
        """Token positions of the question (block_id None) or of one block."""
        return (0, self.question_len) if block_id is None else self.block_ranges[block_id]

    def overlap_range(self, block_id: int | None, start: int, end: int) -> tuple[int, int]:
        """(lo, hi): the tokens of one source whose char span overlaps
        [start, end). Tokens of a source have increasing, non-overlapping char
        spans, so those tokens are contiguous and two bisections find them."""
        lo, hi = self.source_range(block_id)
        first = bisect_right(self.ends, start, lo, hi)
        return first, max(first, bisect_left(self.starts, end, lo, hi))

    def inside_range(self, block_id: int | None, start: int, end: int) -> tuple[int, int]:
        """(lo, hi): the tokens of one source whose char span lies inside
        [start, end), found by two bisections as in overlap_range."""
        lo, hi = self.source_range(block_id)
        first = bisect_left(self.starts, start, lo, hi)
        return first, max(first, bisect_right(self.ends, end, lo, hi))


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


def write_atomic(path: str, *chunks) -> None:
    """Write the bytes-like `chunks` to `path + ".tmp"`, then rename it onto
    `path`, so no reader sees a partly written file. When the write or the
    rename fails, the temporary file is removed and the error re-raised."""
    tmp = path + ".tmp"
    f = open(tmp, "wb")
    try:
        with f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


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
    spent. Each token keeps a char span into its source text, and each block
    source keeps its block's canonical box.
    """
    pieces = tokenize_text(question)
    if len(pieces) > max_len:
        raise QuestionTooLong(
            f"{canon.doc_id}: question tokenizes to {len(pieces)} tokens (max {max_len})")
    sources, block_ids, boxes = [pieces], [None], [[0, 0, 0, 0]]
    budget = max_len - len(pieces)
    for block in canon.blocks:
        if budget <= 0:
            break
        pieces = tokenize_text(block.text)[:budget]
        budget -= len(pieces)
        sources.append(pieces)
        block_ids.append(block.block_id)
        boxes.append(block.box.as_list())
    index: dict[str, int] = {}
    text_ids, starts, ends = [], array("i"), array("i")
    for pieces in sources:
        for text, start, end in pieces:
            text_ids.append(index.setdefault(text, len(index)))
            starts.append(start)
            ends.append(end)
    text_ids = np.array(text_ids, dtype=INDEX_DTYPE)
    slots = np.fromiter(map(token_slot, index), INDEX_DTYPE, len(index))[text_ids]
    return TokenSequence(
        texts=list(index), text_ids=text_ids, slots=slots, starts=starts, ends=ends,
        source_ids=np.repeat(np.arange(len(sources), dtype=INDEX_DTYPE), list(map(len, sources))),
        block_ids=block_ids, source_boxes=np.array(boxes))
