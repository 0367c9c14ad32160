"""Tokenizer, record ingestion, page flattening, and token provenance."""

import hashlib

import numpy as np
import pytest

from docreason.document import (
    COORD_MAX,
    ingest_document,
    tokenize,
    transform_multipage,
)
from docreason.errors import (
    DegenerateGeometry,
    QuestionTooLong,
    SchemaError,
    ValidationError,
)
from docreason.vocab import (VOCAB_SIZE, build_vocab, pretokenize, split_word,
                             tokenize_text)


def _record(pages=1, texts=("Revenue was 1,731 in 2019.",)):
    return {
        "doc_id": "d1",
        "pages": [{"width": 800, "height": 1000}] * pages,
        "blocks": [
            {"block_id": i, "page_index": min(i, pages - 1), "order": i,
             "text": t, "box": [10, 10 + 40 * i, 700, 40 + 40 * i]}
            for i, t in enumerate(texts)
        ],
    }


class TestVocab:
    def test_size_is_exact(self):
        assert len(build_vocab()) == len(set(build_vocab())) == VOCAB_SIZE

    def test_entries_are_pinned(self):
        """Each entry's index is a token's embedding-table row."""
        digest = hashlib.sha256("\n".join(build_vocab()).encode()).hexdigest()
        assert digest == "e3a2c497a9248a11558cb831649f56be4a863134ee68bf0bb0597f6b35b6de0b"

    def test_byte_fallback_covers_anything(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            word = "".join(chr(rng.integers(0x20, 0x2FFF)) for _ in range(6))
            pieces = split_word(word)
            assert pieces, word
            # char spans tile the word
            assert pieces[0][1] == 0 and pieces[-1][2] == len(word)

    def test_digit_runs_are_atomic(self):
        texts = {
            "1,731": ["1", ",", "731"],
            "$1,731": ["$", "1", ",", "731"],
            "93.8%": ["93", ".", "8", "%"],
            "FY2019": ["f", "##y", "2019"],
        }
        for text, want in texts.items():
            got = [t for t, _, _ in tokenize_text(text)]
            assert got == want, text

    def test_char_spans_point_into_source(self):
        text = "Net revenue grew 12.5% during FY2019, reaching $1,731."
        for tok, s, e in tokenize_text(text):
            piece = text[s:e]
            assert tok.replace("##", "") == piece.lower() or tok.startswith("<0x"), (
                tok,
                piece,
            )

    def test_pretokenize_splits_words_digits_punct(self):
        got = [t for t, _, _ in pretokenize("abc12,34 x.y")]
        assert got == ["abc", "12", ",", "34", "x", ".", "y"]

    def test_deterministic_across_calls(self):
        a = tokenize_text("Operating margin 42.1% (restated)")
        b = tokenize_text("Operating margin 42.1% (restated)")
        assert a == b


class TestIngest:
    def test_blocks_sorted_by_page_then_order(self):
        rec = _record(pages=2, texts=("first", "second", "third"))
        rec["blocks"][0]["page_index"] = 1
        rec["blocks"][0]["order"] = 9
        doc = ingest_document(rec)
        assert [b.block_id for b in doc.blocks] == [1, 2, 0]

    def test_missing_fields_raise_schema_error(self):
        for strip in ("doc_id", "pages", "blocks"):
            rec = _record()
            del rec[strip]
            with pytest.raises(SchemaError):
                ingest_document(rec)

    def test_bad_box_raises(self):
        rec = _record()
        rec["blocks"][0]["box"] = [10, 10, 5, 40]  # x1 < x0
        with pytest.raises(ValidationError):
            ingest_document(rec)
        rec = _record()
        rec["blocks"][0]["box"] = [0, 0, 1001, 10]
        with pytest.raises(ValidationError):
            ingest_document(rec)

    def test_boolean_page_size_is_a_schema_error(self):
        for key in ("width", "height"):
            rec = _record()
            rec["pages"][0][key] = True
            with pytest.raises(SchemaError, match="width/height must be integers"):
                ingest_document(rec)

    def test_duplicate_block_id_raises(self):
        rec = _record(texts=("a b", "c d"))
        rec["blocks"][1]["block_id"] = 0
        with pytest.raises(ValidationError):
            ingest_document(rec)

    def test_empty_block_text_raises(self):
        rec = _record(texts=("   ",))
        with pytest.raises(ValidationError):
            ingest_document(rec)

    def test_unknown_fields_warn_but_pass(self, caplog):
        rec = _record()
        rec["extra"] = 1
        rec["blocks"][0]["font"] = "serif"
        with caplog.at_level("WARNING"):
            ingest_document(rec)
        assert any("unknown field" in m for m in caplog.messages)


class TestMultipage:
    def test_single_page_is_identity(self):
        doc = ingest_document(_record())
        canon = transform_multipage(doc)
        assert canon.blocks[0].box == doc.blocks[0].box
        assert canon.page_offsets == [0.0]

    def test_three_pages_band_offsets_are_exact_fractions(self):
        rec = _record(pages=3, texts=("a b", "c d", "e f"))
        for i, b in enumerate(rec["blocks"]):
            b["page_index"] = i
        canon = transform_multipage(ingest_document(rec))
        assert canon.page_offsets == [0.0, 1 / 3, 2 / 3]

    def test_y_maps_into_page_band(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            rec = _record(pages=n, texts=tuple(f"t {i}" for i in range(n)))
            for i, b in enumerate(rec["blocks"]):
                b["page_index"] = i
                y0 = int(rng.integers(0, 900))
                b["box"] = [5, y0, 900, y0 + 50]
            canon = transform_multipage(ingest_document(rec))
            for b in canon.blocks:
                lo = COORD_MAX * b.page_index / n
                hi = COORD_MAX * (b.page_index + 1) / n
                assert lo - 1 <= b.box.y0 <= b.box.y1 <= hi + 1

    def test_within_page_order_preserved(self):
        rec = _record(pages=2, texts=("a b", "c d", "e f", "g h"))
        ys = [100, 400, 100, 400]
        for i, b in enumerate(rec["blocks"]):
            b["page_index"] = i // 2
            b["box"] = [5, ys[i], 900, ys[i] + 50]
        canon = transform_multipage(ingest_document(rec))
        got = [b.box.y0 for b in canon.blocks]
        assert got == sorted(got)

    def test_degenerate_page_raises(self):
        rec = _record()
        rec["pages"][0]["height"] = 0
        with pytest.raises(DegenerateGeometry):
            transform_multipage(ingest_document(rec))


class TestTokenize:
    def test_question_first_then_blocks(self):
        canon = transform_multipage(ingest_document(_record(texts=("alpha beta", "gamma"))))
        seq = tokenize(canon, "what is alpha?")
        assert seq.question_len > 0
        block_ids = [seq.block_ids[k] for k in seq.source_ids]
        assert block_ids[:seq.question_len] == [None] * seq.question_len
        assert block_ids[seq.question_len] == 0

    def test_block_ranges_cover_sequence(self):
        canon = transform_multipage(ingest_document(_record(texts=("alpha beta", "gamma delta"))))
        seq = tokenize(canon, "which?")
        lo, hi = seq.source_range(None)
        assert (lo, hi) == (0, seq.question_len)
        covered = set(range(hi))
        for s, e in seq.block_ranges.values():
            covered.update(range(s, e))
        assert covered == set(range(len(seq)))

    def test_truncation_drops_tail_blocks(self):
        canon = transform_multipage(
            ingest_document(_record(texts=("one two three four", "five six seven"))))
        seq = tokenize(canon, "q?", max_len=6)
        assert len(seq) == 6
        assert 1 not in seq.block_ranges or seq.block_ranges[1][1] <= 6

    def test_question_too_long_raises(self):
        canon = transform_multipage(ingest_document(_record()))
        with pytest.raises(QuestionTooLong):
            tokenize(canon, "many words " * 30, max_len=10)

    def test_tokens_inherit_block_box(self):
        canon = transform_multipage(ingest_document(_record()))
        seq = tokenize(canon, "q?")
        for k in seq.source_ids[seq.question_len:]:
            assert seq.source_boxes[k].tolist() == canon.blocks[0].box.as_list()

    def test_char_spans_recover_block_text(self):
        text = "Cash of $1,204.5 was held."
        canon = transform_multipage(ingest_document(_record(texts=(text,))))
        seq = tokenize(canon, "how much cash?")
        s, e = seq.block_ranges[0]
        assert text[seq.starts[s]:seq.ends[e - 1]].strip() == text.strip()
