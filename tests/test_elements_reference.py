"""The extraction and inventory code that the current one replaced, kept as a
byte-exact reference: a date scan that tries every branch at every
position, per-group match reads, an any() overlap filter and frozen
records. Every node field must come out the same on the bundled corpus,
on widened records and on generated texts.

The reference reads month names through elements._month_num: the code it
copies lowercased them, which raised KeyError on a month spelled with ſ.
It also skips a day or month form that names no calendar date, as the
extraction does, by asking datetime.date for the day.
"""

import datetime
import re
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import given

from docreason.document import Block, BoundingBox, CanonicalDocument, tokenize
from docreason.elements import (MAX_BARE_YEAR, MIN_BARE_YEAR, NodeKind, _month_num,
                                _source_elements, build_node_inventory, extract_dates,
                                extract_quantities)
from docreason.errors import EmptyInventory
from docreason.pipeline import build_instance, load_records
from test_elements_properties import FRAGMENTS, PROPERTY, TEXTS
from test_graphs import CORPUS, _widen

_MONTHS = ["january", "february", "march", "april", "may", "june", "july", "august",
           "september", "october", "november", "december"]
_MONTH_PAT = "|".join(_MONTHS + [f"{m[:3]}\\.?" for m in _MONTHS])

_REF_DATE_RE = re.compile(
    rf"""
    (?P<dmy>\b(?P<dmy_d>[0-3]?\d)\s+(?P<dmy_m>{_MONTH_PAT})\s+(?P<dmy_y>\d{{4}})\b)
  | (?P<mdy>\b(?P<mdy_m>{_MONTH_PAT})\s+(?P<mdy_d>[0-3]?\d)\s*,\s*(?P<mdy_y>\d{{4}})\b)
  | (?P<my>\b(?P<my_m>{_MONTH_PAT})\s+(?P<my_y>\d{{4}})\b)
  | (?P<fy>\b(?:FY\s?|F)(?P<fy_y>\d{{4}}|\d{{2}})\b)
  | (?P<year>(?<![\d.,])(?<![$€£])(?P<year_y>\d{{4}})\b(?!\.\d)(?!\s?%))
    """,
    re.IGNORECASE | re.VERBOSE,
)

_REF_QUANT_RE = re.compile(
    r"""
    (?P<paren>\(\s*(?P<paren_cur>[$€£])?\s*(?P<paren_num>\d{1,3}(?:,\d{3})+|\d+)(?P<paren_frac>\.\d+)?\s*\))
  | (?P<plain>(?P<sign>[-+])?(?:(?P<cur>[$€£])\s?)?(?P<num>\d{1,3}(?:,\d{3})+|\d+)(?P<frac>\.\d+)?(?P<pct>\s?%)?)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Quantity:
    value: float
    start: int
    end: int
    text: str
    is_percent: bool = False


@dataclass(frozen=True)
class _Date:
    year: int
    month: int
    day: int
    start: int
    end: int
    text: str

    def key(self):
        return (self.year, self.month, self.day)


@dataclass(frozen=True)
class _Node:
    node_id: int
    kind: NodeKind
    block_id: int | None
    parent_id: int | None
    start: int
    end: int
    text: str
    value: float | None = None
    is_percent: bool = False
    date_key: tuple[int, int, int] | None = None
    occurrence: int = 0
    token_range: tuple[int, int] = (0, 0)


def _is_calendar_date(y, mo, d):
    try:
        datetime.date(y, mo, d)
    except ValueError:
        return False
    return True


def _ref_dates(text):
    out = []
    for m in _REF_DATE_RE.finditer(text):
        if m.lastgroup is None:
            continue
        if m.group("dmy"):
            y, mo, d = int(m.group("dmy_y")), _month_num(m.group("dmy_m")), int(m.group("dmy_d"))
            if not _is_calendar_date(y, mo, d):
                continue
        elif m.group("mdy"):
            y, mo, d = int(m.group("mdy_y")), _month_num(m.group("mdy_m")), int(m.group("mdy_d"))
            if not _is_calendar_date(y, mo, d):
                continue
        elif m.group("my"):
            y, mo, d = int(m.group("my_y")), _month_num(m.group("my_m")), 0
            if not _is_calendar_date(y, mo, 1):
                continue
        elif m.group("fy"):
            raw = m.group("fy_y")
            y = int(raw) + 2000 if len(raw) == 2 else int(raw)
            mo = d = 0
            if not (MIN_BARE_YEAR <= y <= MAX_BARE_YEAR):
                continue
        else:
            y, mo, d = int(m.group("year_y")), 0, 0
            if not (MIN_BARE_YEAR <= y <= MAX_BARE_YEAR):
                continue
        out.append(_Date(y, mo, d, m.start(), m.end(), m.group(0)))
    return out


def _ref_quantities(text):
    out = []
    for m in _REF_QUANT_RE.finditer(text):
        if m.group("paren"):
            digits = m.group("paren_num") + (m.group("paren_frac") or "")
            value = -float(digits.replace(",", ""))
            out.append(_Quantity(value, m.start(), m.end(), m.group(0)))
            continue
        digits = m.group("num") + (m.group("frac") or "")
        value = float(digits.replace(",", ""))
        if m.group("sign") == "-":
            value = -value
        out.append(_Quantity(value, m.start(), m.end(), m.group(0),
                             is_percent=m.group("pct") is not None))
    return out


def _ref_source_elements(text):
    dates = _ref_dates(text)
    quantities = [q for q in _ref_quantities(text)
                  if not any(q.start < d.end and d.start < q.end for d in dates)]
    return quantities, dates


def _ref_inventory(canon, question, seq):
    sources = [(None, question)]
    for block in canon.blocks:
        if block.block_id in seq.block_ranges:
            sources.append((block.block_id, block.text))
    if len(sources) == 1:
        raise EmptyInventory(f"{canon.doc_id}: no block has any tokens")

    def token_range(block_id, start=None, end=None):
        if start is None:
            return seq.source_range(block_id)
        return seq.overlap_range(block_id, start, end)

    nodes = [_Node(0, NodeKind.QUESTION, None, None, 0, len(question), question,
                   token_range=token_range(None))]
    parent_of = {None: 0}
    for block_id, text in sources[1:]:
        nid = len(nodes)
        nodes.append(_Node(nid, NodeKind.BLOCK, block_id, None, 0, len(text), text,
                           token_range=token_range(block_id)))
        parent_of[block_id] = nid
    extracted = {block_id: _ref_source_elements(text) for block_id, text in sources}
    for kind in (NodeKind.QUANTITY, NodeKind.DATE):
        for block_id, _text in sources:
            quantities, dates = extracted[block_id]
            spans = quantities if kind == NodeKind.QUANTITY else dates
            occurrence = 0
            for sp in spans:
                lo, hi = token_range(block_id, sp.start, sp.end)
                if hi == lo:
                    occurrence += 1
                    continue
                nid = len(nodes)
                if kind == NodeKind.QUANTITY:
                    nodes.append(_Node(nid, kind, block_id, parent_of[block_id], sp.start, sp.end,
                                       sp.text, value=sp.value, is_percent=sp.is_percent,
                                       occurrence=occurrence, token_range=(lo, hi)))
                else:
                    nodes.append(_Node(nid, kind, block_id, parent_of[block_id], sp.start, sp.end,
                                       sp.text, date_key=sp.key(), occurrence=occurrence,
                                       token_range=(lo, hi)))
                occurrence += 1
    return nodes


def _assert_same_records(got, want):
    """Same length, and every field of every record has the same type and
    repr (so -0.0 differs from 0.0)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for f in fields(w):
            a, b = getattr(g, f.name), getattr(w, f.name)
            assert (type(a), repr(a)) == (type(b), repr(b)), (f.name, g, w)


def _assert_same_inventory(canon, question, seq):
    try:
        want = _ref_inventory(canon, question, seq)
    except EmptyInventory:
        with pytest.raises(EmptyInventory):
            build_node_inventory(canon, question, seq)
        return
    _assert_same_records(build_node_inventory(canon, question, seq).nodes, want)


def test_bundled_corpus():
    for record in load_records(CORPUS):
        for max_len in (256, 24):
            inst = build_instance(record, max_len=max_len, with_gold=False)
            _assert_same_inventory(inst.canon, inst.question, inst.seq)


def test_widened_records():
    rng = np.random.default_rng(13)
    for record in load_records(CORPUS)[:8]:
        wide = _widen(record, rng)
        for max_len in (1024, 160):
            inst = build_instance(wide, max_len=max_len, with_gold=False)
            _assert_same_inventory(inst.canon, inst.question, inst.seq)


def test_fragment_pairs():
    # Every two fragments side by side, so that one match can end exactly
    # where another starts.
    units = FRAGMENTS + ["-5", "(3)", "5%", "$7", "2019.", "FY19 ", "３ ", "２０１９ "]
    for a in units:
        for b in units:
            text = a + b
            _assert_same_records(extract_quantities(text), _ref_quantities(text))
            for got, want in zip(_source_elements(text), _ref_source_elements(text)):
                _assert_same_records(got, want)


def test_impossible_calendar_dates():
    """Day and month forms that name no calendar date are skipped by both;
    the leap day of a leap year is kept."""
    for text, kept in (("31 ſeptember 2019", 0), ("29 February 2019", 0),
                       ("Paid on February 29, 2019.", 0), ("August 0000", 0),
                       ("29 February 2020", 1), ("30 ſeptember 2019", 1)):
        want = _ref_dates(text)
        assert len(want) == kept, text
        _assert_same_records(extract_dates(text), want)


@PROPERTY
@given(TEXTS, TEXTS)
def test_generated_texts(question, text):
    _assert_same_records(extract_dates(text), _ref_dates(text))
    _assert_same_records(extract_quantities(text), _ref_quantities(text))
    for got, want in zip(_source_elements(text), _ref_source_elements(text)):
        _assert_same_records(got, want)
    canon = CanonicalDocument("d1", [Block(0, 0, 0, text, BoundingBox(10, 10, 700, 40))], [0.0])
    _assert_same_inventory(canon, question, tokenize(canon, question, max_len=1024))
