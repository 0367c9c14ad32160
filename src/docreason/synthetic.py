"""Deterministic synthetic corpus generator.

Produces small financial-report style documents with questions of all four
answer types and all five scales, used by the bundled training/acceptance
runs. Records are emitted as plain dicts; each reader compiles them, and the
tests build every generated record through the real ingestion and supervision
pipeline, so evidence refs and expression leaves are checked resolvable there.
"""

from __future__ import annotations

import json
import numpy as np

from .document import write_atomic
from .elements import _source_elements
from .heads import Scale

_COMPANIES = ["Acme Holdings", "Borealis Group", "Cedarwood Ltd", "Delta Ventures",
              "Eastgate Capital", "Fairmont Industries", "Glenview Partners",
              "Harborline Corp", "Ironbridge plc", "Juniper Systems"]
_METRICS = ["revenue", "operating income", "net profit", "total expenses",
            "cash reserves", "deferred tax", "interest expense",
            "segment sales", "lease liabilities", "gross margin"]
_REASONS = ["higher rental income from tenants", "growth in subscription renewals",
            "lower impairment charges on goodwill", "favourable currency movements",
            "stronger demand in overseas markets", "reduced headcount in support functions",
            "one-off recovery of doubtful receivables", "improved pricing on long term contracts",
            "the disposal of the logistics unit", "delays in planned maintenance spending",
            "early settlement of supplier invoices"]
_SEGMENTS = ["retail banking", "asset management", "consumer lending", "corporate advisory",
             "wealth planning", "trade finance", "digital payments", "insurance broking",
             "equipment leasing", "private equity"]
_SCALE_PHRASE = {Scale.NONE: "as reported", Scale.THOUSAND: "in thousands",
                 Scale.MILLION: "in millions", Scale.BILLION: "in billions",
                 Scale.PERCENT: "in percent"}


def _box(i: int) -> list[int]:
    top = 60 + 90 * i
    return [40, top, 960, top + 70]


def _make_blocks(texts: list[str], two_page: bool) -> tuple[list[dict], list[dict]]:
    pages = [{"width": 850, "height": 1100}]
    if two_page:
        pages.append({"width": 850, "height": 1100})
    blocks = []
    split = (len(texts) + 1) // 2 if two_page else len(texts)
    for i, text in enumerate(texts):
        page = 0 if i < split else 1
        blocks.append({"block_id": i, "page_index": page, "order": i,
                       "text": text, "box": _box(i if page == 0 else i - split)})
    return pages, blocks


def _quantity_ref(block_text: str, block_id: int, needle: str) -> dict:
    """Evidence ref for the quantity whose surface text is `needle`."""
    quantities, _dates = _source_elements(block_text)
    for q in quantities:
        if q.text.strip() == needle:
            return {"kind": "quantity", "block_id": block_id, "index": quantities.index(q)}
    raise AssertionError(f"quantity {needle!r} not extracted from {block_text!r}")


def _date_refs(block_text: str, block_id: int) -> list[dict]:
    _quantities, dates = _source_elements(block_text)
    return [{"kind": "date", "block_id": block_id, "index": i} for i in range(len(dates))]


def _quantity_refs(block_text: str, block_id: int) -> list[dict]:
    quantities, _dates = _source_elements(block_text)
    return [{"kind": "quantity", "block_id": block_id, "index": i}
            for i in range(len(quantities))]


def _fmt(v: float) -> str:
    return str(int(v)) if v == int(v) else f"{v:.1f}"


def _arithmetic_record(rng: np.random.Generator, qid: str, scale: Scale,
                       variant: int, two_page: bool) -> dict:
    company = str(rng.choice(_COMPANIES))
    metric = str(rng.choice(_METRICS))
    y2 = int(rng.integers(2016, 2020))
    y1 = y2 + 1
    header = f"Annual report of {company}, figures {_SCALE_PHRASE[scale]}."
    if variant == 0:
        # Change between two years: one operator. The two operand blocks
        # carry different element-child counts on purpose: with symmetrized
        # comparison graphs, structurally swappable operands would collapse
        # to identical node representations and the decoder could never
        # tell minuend from subtrahend.
        v1 = float(rng.integers(120, 1800))
        v2 = float(rng.integers(3, 110))
        b1 = f"The {metric} was {_fmt(v1)} in {y1}."
        b2 = f"A year before, the {metric} came to {_fmt(v2)}."
        refs = [_quantity_ref(b1, 1, _fmt(v1)), _quantity_ref(b2, 2, _fmt(v2))]
        expression = "(- e#0 e#1)"
        value = v1 - v2
        question = f"What was the change in {metric} from {y2} to {y1}?"
    elif variant == 1:
        # Average of two figures: two operators.
        v1 = float(rng.integers(100, 900))
        v2 = float(rng.integers(100, 900))
        b1 = f"The {metric} reached {_fmt(v1)} in {y1}."
        b2 = f"A year earlier the {metric} stood at {_fmt(v2)}."
        refs = [_quantity_ref(b1, 1, _fmt(v1)), _quantity_ref(b2, 2, _fmt(v2))]
        expression = "(/ (+ e#0 e#1) c#2)"
        value = (v1 + v2) / 2
        question = f"What was the average {metric} across {y2} and {y1}?"
    elif variant == 2:
        # Percentage change: three operators.
        v1 = float(rng.integers(200, 1500))
        v2 = float(rng.integers(40, 160))
        b1 = f"The {metric} of {_fmt(v1)} was recorded in {y1}."
        b2 = f"The prior year {metric} was {_fmt(v2)}."
        refs = [_quantity_ref(b1, 1, _fmt(v1)), _quantity_ref(b2, 2, _fmt(v2))]
        expression = "(* (/ (- e#0 e#1) e#1) c#100)"
        value = (v1 - v2) / v2 * 100
        question = f"What was the percentage change in {metric} between {y2} and {y1}?"
    else:
        # Year gap: subtraction over date leaves, one per block and with
        # unequal block structure (same rationale as variant 0).
        d1 = int(rng.integers(2018, 2022))
        d0 = int(rng.integers(2008, 2015))
        staff = int(rng.integers(110, 980))
        b1 = f"The head office opened in {d0}."
        b2 = f"The second campus followed in {d1}, with {staff} staff on site."
        refs = [{"kind": "date", "block_id": 2, "index": 0},
                {"kind": "date", "block_id": 1, "index": 0}]
        expression = "(- e#0 e#1)"
        value = float(d1 - d0)
        question = "How many years passed between the office and campus openings?"
    pages, blocks = _make_blocks([header, b1, b2], two_page)
    return {"doc_id": qid, "question": question, "pages": pages, "blocks": blocks,
            "answer": {"type": "Arithmetic", "value": value, "scale": scale.value,
                       "evidence_node_refs": refs, "expression": expression}}


def _span_record(rng: np.random.Generator, qid: str, two_page: bool) -> dict:
    # The evidence block carries a quantity and a date; blocks are told apart
    # in the semantic graph only through their element children, so an
    # element-free evidence block would be unselectable by construction.
    company = str(rng.choice(_COMPANIES))
    metric = str(rng.choice(_METRICS))
    reason = str(rng.choice(_REASONS))
    y = int(rng.integers(2016, 2021))
    amount = f"{rng.integers(150, 990)}.{rng.integers(1, 9)}"
    header = f"Commentary from {company}, figures as reported."
    b1 = (f"The movement in {metric} during {y} was mainly due to {reason}, "
          f"contributing {amount} overall.")
    b2 = f"Management expects the {metric} trend to continue."
    pages, blocks = _make_blocks([header, b1, b2], two_page)
    return {"doc_id": qid, "question": f"What drove the movement in {metric} in {y}?",
            "pages": pages, "blocks": blocks,
            "answer": {"type": "Span", "value": reason, "scale": "None",
                       "evidence_node_refs": [{"kind": "block", "block_id": 1}]}}


def _spans_record(rng: np.random.Generator, qid: str, two_page: bool) -> dict:
    company = str(rng.choice(_COMPANIES))
    k = int(rng.integers(2, 4))
    segments = [str(s) for s in rng.choice(_SEGMENTS, size=k, replace=False)]
    y = int(rng.integers(2016, 2021))
    clients = f"{rng.integers(2, 9)},{rng.integers(100, 999)}"
    header = f"Segment note of {company}, figures as reported."
    listing = ", ".join(segments[:-1]) + " and " + segments[-1]
    b1 = (f"The reportable segments are {listing}, together serving "
          f"{clients} clients during {y}.")
    b2 = "Each segment is reviewed by the board quarterly."
    pages, blocks = _make_blocks([header, b1, b2], two_page)
    return {"doc_id": qid, "question": f"Which segments does {company} report?",
            "pages": pages, "blocks": blocks,
            "answer": {"type": "Spans", "value": segments, "scale": "None",
                       "evidence_node_refs": [{"kind": "block", "block_id": 1}]}}


def _counting_record(rng: np.random.Generator, qid: str, two_page: bool) -> dict:
    company = str(rng.choice(_COMPANIES))
    header = f"Operational summary of {company}, figures as reported."
    if rng.integers(0, 2) == 0:
        years = sorted(rng.choice(np.arange(2010, 2022), size=int(rng.integers(2, 5)),
                                  replace=False).tolist())
        listing = ", ".join(str(y) for y in years[:-1]) + " and " + str(years[-1])
        b1 = f"New branches opened in {listing}."
        question = "In how many years did new branches open?"
        refs = _date_refs(b1, 1)
    else:
        values = rng.choice(np.arange(11, 98), size=int(rng.integers(2, 5)),
                            replace=False)
        dividends = [str(int(v)) for v in values.tolist()]
        listing = ", ".join(dividends[:-1]) + " and " + dividends[-1]
        b1 = f"Dividends of {listing} cents per share were declared."
        question = "How many dividend declarations are listed?"
        refs = _quantity_refs(b1, 1)
    b2 = f"The registrar of {company} maintains the full schedule."
    pages, blocks = _make_blocks([header, b1, b2], two_page)
    return {"doc_id": qid, "question": question, "pages": pages, "blocks": blocks,
            "answer": {"type": "Counting", "value": float(len(refs)), "scale": "None",
                       "evidence_node_refs": refs}}


def generate_corpus(n: int = 50, seed: int = 2024) -> list[dict]:
    """Build n records. They are not compiled here: the tests build each
    one with its gold supervision, and every reader compiles its own."""
    rng = np.random.default_rng(seed)
    scales = list(Scale)
    records = []
    arith_count = 0
    for i in range(n):
        qid = f"syn-{i:04d}"
        two_page = i % 5 == 4
        slot = i % 4
        if slot == 0:
            record = _arithmetic_record(rng, qid, scales[arith_count % len(scales)],
                                        arith_count % 4, two_page)
            arith_count += 1
        elif slot == 1:
            record = _span_record(rng, qid, two_page)
        elif slot == 2:
            record = _spans_record(rng, qid, two_page)
        else:
            record = _counting_record(rng, qid, two_page)
        records.append(record)
    return records


def write_corpus(path: str, n: int = 50, seed: int = 2024):
    text = json.dumps(generate_corpus(n, seed), indent=2, sort_keys=True) + "\n"
    write_atomic(path, text.encode())
