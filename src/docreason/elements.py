"""Quantity/date extraction and the typed node inventory.

Every instance is reduced to four kinds of nodes: one Question node, one
Block node per layout block, and Quantity/Date nodes mined from the raw
text of those sources. Nodes carry char spans back into their source text
and the token range those spans cover, so they can be pooled from token
representations without searching the sequence again.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from calendar import monthrange
from collections.abc import Iterator
from itertools import chain
from dataclasses import dataclass, field
from datetime import MINYEAR
from enum import Enum

import numpy as np

from .document import INDEX_DTYPE, CanonicalDocument, TokenSequence
from .errors import EmptyInventory, IndexMismatch, ValidationError

MAX_BARE_YEAR = 2100
MIN_BARE_YEAR = 1900


class NodeKind(str, Enum):
    QUESTION = "question"
    BLOCK = "block"
    QUANTITY = "quantity"
    DATE = "date"


@dataclass(slots=True)
class QuantitySpan:
    value: float
    start: int
    end: int
    text: str
    is_percent: bool = False


@dataclass(slots=True)
class DateSpan:
    year: int
    month: int  # 0 when absent
    day: int  # 0 when absent
    start: int
    end: int
    text: str

    def key(self) -> tuple[int, int, int]:
        return (self.year, self.month, self.day)


_MONTHS = {
    "january": 1, "february": 2, "march": 3, "april": 4, "may": 5,
    "june": 6, "july": 7, "august": 8, "september": 9, "october": 10,
    "november": 11, "december": 12,
}
_MONTH_ABBR = {name[:3]: num for name, num in _MONTHS.items()}
_MONTH_PAT = "|".join(list(_MONTHS) + [f"{a}\\.?" for a in _MONTH_ABBR])

# Each branch can only start at a digit (day-month-year, bare year) or at a
# letter (the month and fiscal-year forms). A lookahead in front of each group
# skips it at every other position of digit-dense text; the branches keep
# their order among those that can start at one position, and their group
# names, which `lastgroup` reports.
_DATE_RE = re.compile(
    rf"""
    (?=\d)
    (?:(?P<dmy>\b(?P<dmy_d>[0-3]?\d)\s+(?P<dmy_m>{_MONTH_PAT})\s+(?P<dmy_y>\d{{4}})\b)
     | (?P<year>(?<![\d.,])(?<![$€£])(?P<year_y>\d{{4}})\b(?!\.\d)(?!\s?%)))
  | (?=[^\W\d_])
    (?:(?P<mdy>\b(?P<mdy_m>{_MONTH_PAT})\s+(?P<mdy_d>[0-3]?\d)\s*,\s*(?P<mdy_y>\d{{4}})\b)
     | (?P<my>\b(?P<my_m>{_MONTH_PAT})\s+(?P<my_y>\d{{4}})\b)
     | (?P<fy>\b(?:FY\s?|F)(?P<fy_y>\d{{4}}|\d{{2}})\b))
    """,
    re.IGNORECASE | re.VERBOSE,
)

# Likewise a quantity starts with a sign, a currency symbol, "(" or a digit.
_QUANT_RE = re.compile(
    r"""
    (?=[-+$€£(\d])
    (?:(?P<paren>\(\s*(?P<paren_cur>[$€£])?\s*(?P<paren_num>\d{1,3}(?:,\d{3})+|\d+)(?P<paren_frac>\.\d+)?\s*\))
     | (?P<plain>(?P<sign>[-+])?(?:(?P<cur>[$€£])\s?)?(?P<num>\d{1,3}(?:,\d{3})+|\d+)(?P<frac>\.\d+)?(?P<pct>\s?%)?))
    """,
    re.VERBOSE,
)


def _month_num(text: str) -> int:
    """The month a matched name or abbreviation names. It folds case as
    IGNORECASE matching does: casefold maps ſ to s. The other letters that
    match an ASCII one, İ and ı for i, fold to something else, but no month
    has an i among its first three letters, and those pick the abbreviation."""
    t = text.casefold().rstrip(".")
    return _MONTHS.get(t) or _MONTH_ABBR[t[:3]]


def extract_dates(text: str) -> list[DateSpan]:
    """Find date mentions: day-month-year, month-day-year, month-year,
    fiscal-year markers, and bare years 1900..2100. A day or month form that
    names no calendar date, such as 31 February 2017 or August 0000, is
    skipped."""
    out: list[DateSpan] = []
    for m in _DATE_RE.finditer(text):
        kind = m.lastgroup
        if kind == "year" or kind == "fy":  # a two-digit fiscal year is 20xx
            raw = m.group(kind + "_y")
            y, mo, d = int(raw) + 2000 if len(raw) == 2 else int(raw), 0, 0
            if not MIN_BARE_YEAR <= y <= MAX_BARE_YEAR:
                continue
        elif kind == "my":
            y, mo, d = int(m.group("my_y")), _month_num(m.group("my_m")), 0
            if y < MINYEAR:
                continue
        else:  # dmy or mdy
            year, month, day = m.group(kind + "_y", kind + "_m", kind + "_d")
            y, mo, d = int(year), _month_num(month), int(day)
            if y < MINYEAR or not 1 <= d <= monthrange(y, mo)[1]:
                continue
        start, end = m.span()
        out.append(DateSpan(y, mo, d, start, end, text[start:end]))
    return out


def extract_quantities(text: str) -> list[QuantitySpan]:
    """Find numeric mentions: signed/comma-grouped decimals, percentages,
    currency-prefixed amounts, and parenthesized negatives like (1,234)."""
    out: list[QuantitySpan] = []
    for m in _QUANT_RE.finditer(text):
        paren_num, paren_frac, sign, num, frac, pct = m.group(
            "paren_num", "paren_frac", "sign", "num", "frac", "pct")
        start, end = m.span()
        if paren_num is not None:
            value = -float((paren_num + (paren_frac or "")).replace(",", ""))
        else:
            value = float((num + (frac or "")).replace(",", ""))
            if sign == "-":
                value = -value
        out.append(QuantitySpan(value, start, end, text[start:end], pct is not None))
    return out


@dataclass(slots=True)
class ElementNode:
    node_id: int
    kind: NodeKind
    block_id: int | None  # None: the node's source text is the question
    parent_id: int | None  # containing Question/Block node, for leaf kinds
    start: int
    end: int
    text: str
    value: float | None = None
    is_percent: bool = False
    date_key: tuple[int, int, int] | None = None
    occurrence: int = 0  # index among same-kind nodes of the same source
    # (lo, hi): the token positions whose char span overlaps the node's
    # span, recorded by build_node_inventory; a node built by hand without
    # a sequence keeps (0, 0).
    token_range: tuple[int, int] = (0, 0)


_KIND_RANK = {kind: rank for rank, kind in enumerate(NodeKind)}


@dataclass
class NodeSet:
    """The inventory, laid out as node id = position with the kinds in runs
    [question | blocks | quantities | dates], which __post_init__ checks once
    and records as one slice per kind in `runs`, and as two joined runs:
    `sources` (Question + Block, the nodes that own their token ranges) and
    `leaves` (Quantity + Date, each mined from its source `parent_id`).
    Two integer arrays over it are built once: `node_of` / `token_of` list
    every (node, token) pair of the nodes' token ranges in node order. They
    are INDEX_DTYPE arrays, as the sequence's are."""

    nodes: list[ElementNode] = field(default_factory=list)
    runs: dict[NodeKind, slice] = field(init=False, repr=False, compare=False)
    sources: slice = field(init=False, repr=False, compare=False)
    leaves: slice = field(init=False, repr=False, compare=False)
    node_of: np.ndarray = field(init=False, repr=False, compare=False)
    token_of: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.nodes)
        if [m.node_id for m in self.nodes] != list(range(n)):
            raise IndexMismatch(f"node ids are not 0..{n - 1} in order")
        ranks = [_KIND_RANK[m.kind] for m in self.nodes]
        if ranks != sorted(ranks):
            raise IndexMismatch("node kinds are not grouped in NodeKind order")
        ends = [bisect_left(ranks, r) for r in range(len(NodeKind) + 1)]
        self.runs = {kind: slice(lo, hi) for kind, lo, hi in zip(NodeKind, ends, ends[1:])}
        self.sources, self.leaves = slice(0, ends[2]), slice(ends[2], n)
        bounds = chain.from_iterable([m.token_range for m in self.nodes])
        lo, hi = np.fromiter(bounds, INDEX_DTYPE, 2 * n).reshape(n, 2).T
        counts = hi - lo
        self.node_of = np.repeat(np.arange(n, dtype=INDEX_DTYPE), counts)
        first = lo - (np.cumsum(counts, dtype=INDEX_DTYPE) - counts)
        self.token_of = np.repeat(first, counts)
        self.token_of += np.arange(len(self.node_of), dtype=INDEX_DTYPE)

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[ElementNode]:
        return iter(self.nodes)

    def by_kind(self, kind: NodeKind) -> list[ElementNode]:
        return self.nodes[self.runs[kind]]

    def get(self, node_id: int) -> ElementNode:
        if not 0 <= node_id < len(self.nodes):
            raise ValidationError(f"node id {node_id} outside an inventory of {len(self.nodes)}")
        return self.nodes[node_id]

    def question_node(self) -> ElementNode:
        return self.nodes[0]

    def block_node(self, block_id: int) -> ElementNode:
        for n in self.by_kind(NodeKind.BLOCK):
            if n.block_id == block_id:
                return n
        raise KeyError(f"no block node for block_id {block_id}")


def _source_elements(text: str) -> tuple[list[QuantitySpan], list[DateSpan]]:
    """The quantities and dates of one source text; a quantity that overlaps
    a date is dropped. Both lists are sorted and free of overlaps within
    themselves, so one merge walk finds, for each quantity, the only date
    that can overlap it: the first that ends after the quantity starts."""
    dates = extract_dates(text)
    quantities, i = [], 0
    for q in extract_quantities(text):
        while i < len(dates) and dates[i].end <= q.start:
            i += 1
        if i == len(dates) or q.end <= dates[i].start:
            quantities.append(q)
    return quantities, dates


def build_node_inventory(canon: CanonicalDocument, question: str,
                         seq: TokenSequence) -> NodeSet:
    """Construct the full node inventory for one instance.

    Node ids are dense and deterministic: Question first, then Block nodes
    in document order, then Quantity nodes (question source first, then
    blocks, by char offset), then Date nodes in the same source order.
    Elements whose span has no surviving token (truncation) are dropped, as
    are blocks with no tokens at all. Date spans claim overlapping numeric
    spans, so a bare year never doubles as a quantity. Each node records the
    token range of `seq` it covers.
    """
    sources: list[tuple[int | None, str]] = [(None, question)]
    for block in canon.blocks:
        if block.block_id in seq.block_ranges:
            sources.append((block.block_id, block.text))
    if len(sources) == 1:
        raise EmptyInventory(f"{canon.doc_id}: no block has any tokens")

    # Source i is node i: the question, then the blocks.
    nodes = [ElementNode(0, NodeKind.QUESTION, None, None, 0, len(question), question,
                         token_range=seq.source_range(None))]
    for block_id, text in sources[1:]:
        nodes.append(ElementNode(len(nodes), NodeKind.BLOCK, block_id, None, 0, len(text), text,
                                 token_range=seq.source_range(block_id)))

    # zip(*) turns the per-source (quantities, dates) pairs into the quantity
    # spans of every source, then the date spans: the two leaf runs in order.
    for spans_per_source in zip(*[_source_elements(text) for _, text in sources]):
        for parent, ((block_id, _), spans) in enumerate(zip(sources, spans_per_source)):
            for occurrence, sp in enumerate(spans):
                lo, hi = seq.overlap_range(block_id, sp.start, sp.end)
                if hi == lo:
                    continue  # truncated away; its occurrence stays counted
                if isinstance(sp, QuantitySpan):
                    kind, value, is_percent, date_key = NodeKind.QUANTITY, sp.value, sp.is_percent, None
                else:
                    kind, value, is_percent, date_key = NodeKind.DATE, None, False, sp.key()
                nodes.append(ElementNode(len(nodes), kind, block_id, parent, sp.start, sp.end,
                                         sp.text, value, is_percent, date_key, occurrence,
                                         (lo, hi)))
    return NodeSet(nodes=nodes)
