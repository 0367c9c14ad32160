"""Quantity/date extraction and node inventory construction."""

from dataclasses import replace

import numpy as np
import pytest

from docreason.document import ingest_document, tokenize, transform_multipage
from docreason.elements import (
    NodeKind,
    NodeSet,
    build_node_inventory,
    extract_dates,
    extract_quantities,
)
from docreason.errors import EmptyInventory, IndexMismatch, ValidationError


def _canon(texts, pages=1):
    record = {
        "doc_id": "d1",
        "pages": [{"width": 800, "height": 1000}] * pages,
        "blocks": [
            {"block_id": i, "page_index": min(i, pages - 1), "order": i,
             "text": t, "box": [10, 10 + 40 * i, 700, 40 + 40 * i]}
            for i, t in enumerate(texts)
        ],
    }
    return transform_multipage(ingest_document(record))


def _inventory(canon, question):
    return build_node_inventory(canon, question, tokenize(canon, question))


class TestQuantities:
    def test_fixture_values(self):
        cases = {
            "Revenue was 1,731 last year.": [1731.0],
            "margin of 93.8% overall": [93.8],
            "a swing from -4.2 to +7": [-4.2, 7.0],
            "losses of (1,234) were booked": [-1234.0],
            "costs of ($12.5) in total": [-12.5],
            "$1,731 and then $44": [1731.0, 44.0],
            "no numbers here": [],
        }
        for text, want in cases.items():
            got = [q.value for q in extract_quantities(text)]
            assert got == want, text

    def test_percent_flag(self):
        spans = extract_quantities("93.8% of 200")
        assert [q.is_percent for q in spans] == [True, False]

    def test_spans_cover_source_text(self):
        text = "from (1,234) up to +56.7% overall"
        for q in extract_quantities(text):
            assert text[q.start:q.end] == q.text

    def test_formatted_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            value = round(float(rng.uniform(-1e6, 1e6)), 2)
            text = f"Total came to {value:,.2f} overall."
            spans = extract_quantities(text)
            assert any(abs(q.value - value) < 1e-9 for q in spans), text


class TestDates:
    def test_fixture_keys(self):
        cases = {
            "on 14 August 2019 we closed": [(2019, 8, 14)],
            "on August 14, 2019 we closed": [(2019, 8, 14)],
            "during March 2018 only": [(2018, 3, 0)],
            "in FY2019 and FY 19": [(2019, 0, 0), (2019, 0, 0)],
            "since 2016.": [(2016, 0, 0)],
            "Dec. 31, 2020 balance": [(2020, 12, 31)],
        }
        for text, want in cases.items():
            got = [d.key() for d in extract_dates(text)]
            assert got == want, text

    def test_bare_year_bounds(self):
        assert extract_dates("value 1899 here") == []
        assert extract_dates("value 2101 here") == []
        assert [d.year for d in extract_dates("1900 to 2100")] == [1900, 2100]

    def test_impossible_calendar_dates_are_skipped(self):
        assert [d.key() for d in extract_dates("on 29 February 2020")] == [(2020, 2, 29)]
        assert [d.key() for d in extract_dates("on February 29, 2020")] == [(2020, 2, 29)]
        for text in ("on 29 February 2019", "on February 29, 2019", "on 31 April 2018",
                     "on April 31, 2018", "on 31 February 2017", "in August 0000",
                     "on 14 August 0000", "on August 14, 0000", "on 0 March 2018"):
            assert extract_dates(text) == [], text
        # the skipped date's numbers are quantities again, as for day 32
        assert [q.value for q in extract_quantities("on 31 April 2018")] == [31.0, 2018.0]

    def test_bare_year_not_inside_amounts(self):
        # decimals, currency amounts, and percentages are not years
        assert extract_dates("grew by 2019.5 points") == []
        assert extract_dates("paid $2019 for it") == []
        assert extract_dates("reached 2019% of plan") == []

    def test_months_spelled_with_case_fold_letters(self):
        # IGNORECASE matches ſ to s, the Kelvin sign to k, and İ and ı to i,
        # so each such spelling of a name or abbreviation names its month.
        folds = {"s": "ſ", "k": "K", "i": "İı"}
        names = ["january", "february", "march", "april", "may", "june", "july", "august",
                 "september", "october", "november", "december"]
        for month, name in enumerate(names, start=1):
            for word in (name, name[:3], name[:3] + "."):
                variants = {word.upper(), word.title()}
                for i, letter in enumerate(word):
                    variants.update(word[:i] + c + word[i + 1:] for c in folds.get(letter, ""))
                for letter, chars in folds.items():
                    variants.update(word.replace(letter, c) for c in chars)
                for v in variants:
                    text = f"{v} 2019; 14 {v} 2019; {v} 14, 2019"
                    assert [d.key() for d in extract_dates(text)] == \
                        [(2019, month, 0), (2019, month, 14), (2019, month, 14)], text

    def test_spans_cover_source_text(self):
        text = "between March 2018 and 14 August 2019"
        for d in extract_dates(text):
            assert text[d.start:d.end] == d.text


class TestInventory:
    def test_id_order_is_question_blocks_quantities_dates(self):
        canon = _canon(["Revenue was 1,731 in 2019.", "Costs hit 44 in 2020."])
        nodes = _inventory(canon, "What was revenue in 2019?")
        kinds = [n.kind for n in nodes]
        assert kinds == [
            NodeKind.QUESTION,
            NodeKind.BLOCK, NodeKind.BLOCK,
            NodeKind.QUANTITY, NodeKind.QUANTITY,
            NodeKind.DATE, NodeKind.DATE, NodeKind.DATE,
        ]
        assert [n.node_id for n in nodes] == list(range(len(nodes)))

    def test_question_elements_come_before_block_elements(self):
        canon = _canon(["Costs hit 44."])
        nodes = _inventory(canon, "Is 7 enough?")
        quantities = nodes.by_kind(NodeKind.QUANTITY)
        assert [q.value for q in quantities] == [7.0, 44.0]
        assert quantities[0].block_id is None
        assert quantities[1].block_id == 0

    def test_parents_point_at_containing_source(self):
        canon = _canon(["Revenue was 1,731 in 2019."])
        nodes = _inventory(canon, "How much in 2018?")
        for n in nodes:
            if n.kind in (NodeKind.QUESTION, NodeKind.BLOCK):
                assert n.parent_id is None
            elif n.block_id is None:
                assert n.parent_id == nodes.question_node().node_id
            else:
                assert n.parent_id == nodes.block_node(n.block_id).node_id

    def test_dates_claim_overlapping_numbers(self):
        canon = _canon(["Opened in 2019."])
        nodes = _inventory(canon, "When did it open?")
        assert nodes.by_kind(NodeKind.QUANTITY) == []
        assert [d.date_key for d in nodes.by_kind(NodeKind.DATE)] == [(2019, 0, 0)]

    def test_occurrence_counts_per_source(self):
        canon = _canon(["Paid 5 then 5 then 9.", "Paid 5 again."])
        nodes = _inventory(canon, "How much was paid?")
        occ = [(q.block_id, q.value, q.occurrence)
               for q in nodes.by_kind(NodeKind.QUANTITY)]
        assert occ == [(0, 5.0, 0), (0, 5.0, 1), (0, 9.0, 2), (1, 5.0, 0)]

    def test_truncation_drops_elements_but_keeps_occurrence_slots(self):
        canon = _canon(["first 11 and then at the very end 22"])
        seq = tokenize(canon, "How much?", max_len=8)
        nodes = build_node_inventory(canon, "How much?", seq)
        quantities = nodes.by_kind(NodeKind.QUANTITY)
        assert [(q.value, q.occurrence) for q in quantities] == [(11.0, 0)]

    def test_fully_truncated_document_is_empty(self):
        canon = _canon(["plenty of words before any numbers show up 77"])
        seq = tokenize(canon, "How much?", max_len=3)
        with pytest.raises(EmptyInventory):
            build_node_inventory(canon, "How much?", seq)

    def test_get_checks_dense_ids(self):
        canon = _canon(["Paid 5."])
        nodes = _inventory(canon, "How much?")
        assert nodes.get(0).kind == NodeKind.QUESTION
        for node_id in (-1, len(nodes)):
            with pytest.raises(ValidationError):
                nodes.get(node_id)
        with pytest.raises(KeyError):
            nodes.block_node(99)

    def test_kinds_are_recorded_as_runs(self):
        canon = _canon(["Revenue was 1,731 in 2019.", "Costs hit 44."])
        nodes = _inventory(canon, "What was revenue in 2019?")
        runs = [(k, r.start, r.stop) for k, r in nodes.runs.items()]
        assert runs == [(NodeKind.QUESTION, 0, 1), (NodeKind.BLOCK, 1, 3),
                        (NodeKind.QUANTITY, 3, 5), (NodeKind.DATE, 5, 7)]
        for kind in NodeKind:
            assert nodes.by_kind(kind) == [n for n in nodes if n.kind == kind]
        assert nodes.question_node() is nodes.nodes[0]
        no_dates = NodeSet(nodes=nodes.by_kind(NodeKind.QUESTION) + nodes.by_kind(NodeKind.BLOCK))
        assert no_dates.by_kind(NodeKind.DATE) == [] and no_dates.runs[NodeKind.DATE] == slice(3, 3)

    def test_ids_must_be_positions(self):
        nodes = _inventory(_canon(["Paid 5 in 2019."]), "How much?").nodes
        for bad in (nodes[1:], nodes[:2] + nodes[3:], nodes[:1] + nodes[:1],
                    [replace(nodes[0], node_id=1)]):
            with pytest.raises(IndexMismatch, match="ids"):
                NodeSet(nodes=bad)
        NodeSet(nodes=nodes[:-1])  # a prefix is still a layout


class TestTokenIndices:
    def test_question_and_block_cover_their_ranges(self):
        canon = _canon(["Revenue was 1,731 in 2019."])
        seq = tokenize(canon, "What was revenue?")
        nodes = build_node_inventory(canon, "What was revenue?", seq)
        q = nodes.question_node()
        assert list(range(*q.token_range)) == list(range(*seq.source_range(None)))
        b = nodes.block_node(0)
        assert list(range(*b.token_range)) == list(range(*seq.block_ranges[0]))

    def test_element_tokens_carry_its_digits(self):
        canon = _canon(["Revenue was 1,731 in 2019."])
        seq = tokenize(canon, "What was revenue?")
        nodes = build_node_inventory(canon, "What was revenue?", seq)
        for n in nodes:
            if n.kind not in (NodeKind.QUANTITY, NodeKind.DATE):
                continue
            idx = list(range(*n.token_range))
            assert idx, n
            joined = "".join(seq.texts[seq.text_ids[i]] for i in idx)
            assert n.text.replace(",", "") in joined.replace(",", "") or joined

    def test_element_indices_stay_inside_their_source(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            amounts = rng.integers(1, 9999, size=3)
            texts = [f"Paid {amounts[0]} and {amounts[1]}.",
                     f"Then {amounts[2]} more."]
            canon = _canon(texts)
            seq = tokenize(canon, "How much was paid?")
            nodes = build_node_inventory(canon, "How much was paid?", seq)
            for n in nodes:
                idx = list(range(*n.token_range))
                if n.block_id is None:
                    lo, hi = seq.source_range(None)
                else:
                    lo, hi = seq.block_ranges[n.block_id]
                assert all(lo <= i < hi for i in idx)
