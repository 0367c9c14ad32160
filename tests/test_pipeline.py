"""Corpus loading, evidence resolution, and supervision derivation."""

import json
import logging

import numpy as np
import pytest

from docreason.elements import NodeKind
from docreason.errors import SchemaError, ValidationError
from docreason.graphs import GraphKind
from docreason.heads import BIO_B, BIO_I, BIO_O, AnswerType, Scale
from docreason.pipeline import (
    _find_span_tokens,
    build_instance,
    build_supervision,
    load_corpus,
    load_records,
    resolve_ref,
)
from docreason.synthetic import generate_corpus, write_corpus
from docreason.tree import execute_tree, serialize_tree


def _record(answer=None):
    rec = {
        "doc_id": "q1",
        "question": "What was the change in revenue between 2018 and 2019?",
        "pages": [{"width": 800, "height": 1000}],
        "blocks": [
            {"block_id": 0, "page_index": 0, "order": 0,
             "text": "Revenue was 1,731 in 2019.", "box": [10, 10, 700, 40]},
            {"block_id": 1, "page_index": 0, "order": 1,
             "text": "Revenue was 1,401 in 2018.", "box": [10, 50, 700, 80]},
        ],
    }
    if answer is not None:
        rec["answer"] = answer
    return rec


class TestLoading:
    def test_json_array_and_jsonl_load_identically(self, tmp_path):
        records = [_record(), dict(_record(), doc_id="q2")]
        array_path = tmp_path / "a.json"
        jsonl_path = tmp_path / "b.jsonl"
        array_path.write_text(json.dumps(records))
        jsonl_path.write_text("\n".join(json.dumps(r) for r in records))
        assert load_records(str(array_path)) == load_records(str(jsonl_path))

    def test_blank_jsonl_lines_are_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(_record()) + "\n\n\n")
        assert len(load_records(str(path))) == 1

    def test_instance_has_all_four_graphs(self):
        inst = build_instance(_record())
        assert set(inst.graphs) == set(GraphKind)
        assert inst.source_texts[None] == inst.question
        assert inst.source_texts[0].startswith("Revenue was 1,731")

    def test_missing_question_is_a_schema_error(self):
        rec = _record()
        del rec["question"]
        with pytest.raises(SchemaError):
            build_instance(rec)


class TestEvidenceRefs:
    def test_positional_resolution(self):
        inst = build_instance(_record())
        nodes = inst.nodes
        assert resolve_ref(nodes, {"kind": "question"}) == 0
        assert resolve_ref(nodes, {"kind": "block", "block_id": 1}) == \
            nodes.block_node(1).node_id
        q0 = resolve_ref(nodes, {"kind": "quantity", "block_id": 0, "index": 0})
        assert nodes.get(q0).value == 1731.0
        d1 = resolve_ref(nodes, {"kind": "date", "block_id": 1, "index": 0})
        assert nodes.get(d1).date_key == (2018, 0, 0)

    def test_question_elements_use_null_block(self):
        inst = build_instance(_record())
        d = resolve_ref(inst.nodes, {"kind": "date", "block_id": None, "index": 0})
        assert inst.nodes.get(d).block_id is None
        assert inst.nodes.get(d).date_key == (2018, 0, 0)

    def test_supervision_errors_name_the_question_once(self):
        refs = [{"kind": "quantity", "block_id": 0, "index": 0}]
        bad_answers = [
            {"type": "Bogus"},
            {"type": "Span", "scale": "Bogus"},
            {"type": "Span", "evidence_node_refs": {}},
            {"type": "Span", "evidence_node_refs": ["quantity"]},
            {"type": "Span", "evidence_node_refs": [{"kind": "paragraph"}]},
            {"type": "Span", "evidence_node_refs": [{"kind": "block", "block_id": 7}]},
            {"type": "Span", "evidence_node_refs": [{"kind": "date", "block_id": 0,
                                                     "index": 3}]},
            {"type": "Span", "value": "no such text", "evidence_node_refs": refs},
            {"type": "Arithmetic", "value": 1.0, "evidence_node_refs": refs},
            {"type": "Arithmetic", "expression": "(- e#0 e#7)", "evidence_node_refs": refs},
            {"type": "Arithmetic", "expression": "(- e#0", "evidence_node_refs": refs},
            {"type": "Arithmetic", "expression": "(/ e#0 c#0)", "value": 1.0,
             "evidence_node_refs": refs},
            {"type": "Spans", "value": "one", "evidence_node_refs": refs},
            {"type": "Counting", "evidence_node_refs": [{"kind": "block", "block_id": 0}]},
        ]
        for answer in bad_answers:
            with pytest.raises((SchemaError, ValidationError)) as exc:
                build_instance(_record(answer))
            message = str(exc.value)
            assert message.startswith("q1: ") and message.count("q1") == 1, message

    def test_bad_refs_raise(self):
        inst = build_instance(_record())
        with pytest.raises(SchemaError):
            resolve_ref(inst.nodes, {"kind": "paragraph"})
        with pytest.raises(SchemaError):
            resolve_ref(inst.nodes, "quantity")
        with pytest.raises(SchemaError):
            resolve_ref(inst.nodes, {"kind": ["quantity"]})
        with pytest.raises(ValidationError):
            resolve_ref(inst.nodes, {"kind": "block", "block_id": 9})
        with pytest.raises(ValidationError):
            resolve_ref(inst.nodes, {"kind": "quantity", "block_id": 0, "index": 5})


class TestArithmeticSupervision:
    def _answer(self):
        return {
            "type": "Arithmetic", "value": 330.0, "scale": "Million",
            "evidence_node_refs": [
                {"kind": "quantity", "block_id": 0, "index": 0},
                {"kind": "quantity", "block_id": 1, "index": 0},
            ],
            "expression": "(- e#0 e#1)",
        }

    def test_expression_leaves_substitute_evidence(self):
        inst = build_instance(_record(self._answer()))
        sup = inst.gold
        assert sup.answer_type is AnswerType.ARITHMETIC
        assert execute_tree(sup.gold_tree, inst.nodes) == 330.0
        assert serialize_tree(sup.gold_tree).startswith("(- n#")

    def test_gold_nodes_include_owning_blocks(self):
        inst = build_instance(_record(self._answer()))
        kinds = {inst.nodes.get(n).kind for n in inst.gold.gold_nodes}
        assert NodeKind.BLOCK in kinds and NodeKind.QUANTITY in kinds

    def test_execution_mismatch_warns(self, caplog):
        answer = dict(self._answer(), value=999.0)
        with caplog.at_level(logging.WARNING, logger="docreason.pipeline"):
            build_instance(_record(answer))
        assert any("executes to" in r.message for r in caplog.records)

    def test_a_constant_outside_the_decoders_is_rejected_before_the_value_check(self, caplog):
        # value 999 would warn; the constant is checked first, so only the error shows
        answer = dict(self._answer(), value=999.0, expression="(* (- e#0 e#1) (/ c#50 c#50))")
        for constants_max in (10, 49):
            with caplog.at_level(logging.WARNING, logger="docreason.pipeline"), \
                    pytest.raises(ValidationError, match=r"^q1: expression constant c#50 is "
                                  rf"outside the decoder's constants 1\.\.{constants_max}$"):
                build_instance(_record(answer), constants_max=constants_max)
            assert not caplog.records
        for constants_max in (50, None):
            assert build_instance(_record(answer), constants_max=constants_max).gold.gold_tree

    def test_unresolved_expression_leaf_raises(self):
        answer = dict(self._answer(), expression="(- e#0 e#7)")
        with pytest.raises(ValidationError):
            build_instance(_record(answer))

    def test_expression_dividing_by_zero_names_the_question(self):
        for expr in ("(/ e#0 c#0)", "(/ e#0 (- e#1 e#1))"):
            with pytest.raises(ValidationError, match=r"^q1: .* divides by zero$"):
                build_instance(_record(dict(self._answer(), expression=expr)))

    def test_expression_leaf_outside_the_inventory_raises(self):
        for expr in ("(- e#0 n#9999)", "(- e#0 c#1.5)", "("):
            with pytest.raises(ValidationError):
                build_instance(_record(dict(self._answer(), expression=expr)))

    def test_missing_expression_is_a_schema_error(self):
        answer = self._answer()
        del answer["expression"]
        with pytest.raises(SchemaError):
            build_instance(_record(answer))


class TestOtherSupervision:
    def test_span_maps_to_token_range(self):
        answer = {"type": "Span", "value": "1,731", "scale": "Thousand",
                  "evidence_node_refs": [{"kind": "block", "block_id": 0}]}
        inst = build_instance(_record(answer))
        s, e = inst.gold.span
        text = "".join(inst.seq.texts[i] for i in inst.seq.text_ids[s:e + 1])
        assert text.replace("##", "") == "1,731"

    def test_span_not_in_evidence_raises(self):
        answer = {"type": "Span", "value": "no such text", "scale": "None",
                  "evidence_node_refs": [{"kind": "block", "block_id": 0}]}
        with pytest.raises(ValidationError):
            build_instance(_record(answer))

    @pytest.mark.parametrize("refs", ["absent", [], [{"kind": "question"}]])
    def test_the_source_of_an_answer_is_gold_without_block_refs(self, refs):
        question = {None} if refs == [{"kind": "question"}] else set()

        def gold(atype, value):
            answer = {"type": atype, "value": value, "scale": "None"}
            if refs != "absent":
                answer["evidence_node_refs"] = refs
            inst = build_instance(_record(answer))
            return inst, {inst.nodes.get(n).block_id for n in inst.gold.gold_nodes}

        inst, sources = gold("Span", "1,401")
        assert sources == {1} | question
        s, e = inst.gold.span
        assert inst.seq.block_ids[inst.seq.source_ids[s]] == 1
        assert inst.seq.block_ids[inst.seq.source_ids[e]] == 1
        assert gold("Spans", ["1,731", "1,401"])[1] == {0, 1} | question
        # a string in no block is found in the question, whose node is gold
        inst, sources = gold("Span", "change in revenue")
        assert sources == {None}
        assert inst.nodes.question_node().node_id in inst.gold.gold_nodes

    def test_span_ranges_match_the_token_scan_on_the_bundled_corpus(self):
        def scan(inst, text, block_ids):
            """The per-token scan the bisections replaced: the first source
            holding the string, and the tokens inside the match."""
            needle = text.strip().lower()
            for bid in list(block_ids) or [*inst.seq.block_ranges, None]:
                at = inst.source_texts[bid].lower().find(needle)
                if at < 0:
                    continue
                lo, hi = inst.seq.source_range(bid)
                covered = [i for i in range(lo, hi)
                           if inst.seq.starts[i] >= at
                           and inst.seq.ends[i] <= at + len(needle)]
                if covered:
                    return bid, (covered[0], covered[-1])
            return None

        checked = 0
        for record in load_records("data/synthetic-50.json"):
            answer = record["answer"]
            if answer["type"] not in ("Span", "Spans"):
                continue
            inst = build_instance(record)
            # the bundled records reference the answer's block, so gold is
            # exactly the refs and their owners
            gold = {resolve_ref(inst.nodes, ref) for ref in answer["evidence_node_refs"]}
            gold |= {inst.nodes.get(n).parent_id for n in gold} - {None}
            assert inst.gold.gold_nodes == gold
            ref_blocks = [ref["block_id"] for ref in answer["evidence_node_refs"]
                          if ref["kind"] == "block"]
            texts = [answer["value"]] if answer["type"] == "Span" else answer["value"]
            for text in texts:
                for block_ids in (ref_blocks, []):
                    bid, span = scan(inst, text, block_ids)
                    source, got = _find_span_tokens(inst, text, block_ids)
                    assert got == span and inst.nodes.get(source).block_id == bid
                    checked += 1
        assert checked > 40

    def test_a_letter_whose_lowercase_is_longer_does_not_shift_the_span(self):
        # "İ".lower() is two characters, so each İ in front of the answer
        # moves its match in text.lower() one character further on.
        record = load_records("data/synthetic-50.json")[1]
        assert record["answer"]["type"] == "Span"

        def gold_tokens(prefix):
            edited = json.loads(json.dumps(record))
            edited["blocks"][1]["text"] = prefix + edited["blocks"][1]["text"]
            inst = build_instance(edited)
            s, e = inst.gold.span
            return [inst.seq.texts[i] for i in inst.seq.text_ids[s:e + 1]]

        want = gold_tokens("")
        assert " ".join(want) == record["answer"]["value"]
        for prefix in ("İ ", "İİ İ ", "Xİ-İ: "):
            assert gold_tokens(prefix) == want, prefix

    def test_spans_needs_at_least_two_values(self):
        for value in (["1,731"], ["1,731", None], ["1,731", ["1,401"]]):
            answer = {"type": "Spans", "value": value, "scale": "None",
                      "evidence_node_refs": [{"kind": "block", "block_id": 0}]}
            with pytest.raises(SchemaError, match="list of >= 2 strings"):
                build_instance(_record(answer))

    def test_spans_bio_marks_each_value(self):
        answer = {"type": "Spans", "value": ["1,731", "1,401"], "scale": "None",
                  "evidence_node_refs": [{"kind": "block", "block_id": 0},
                                         {"kind": "block", "block_id": 1}]}
        inst = build_instance(_record(answer))
        labels = inst.gold.bio_labels
        assert len(labels) == len(inst.seq)
        starts = np.flatnonzero(labels == BIO_B)
        assert len(starts) == 2  # "1", ",", "731" and "1", ",", "401"
        assert np.flatnonzero(labels == BIO_I).tolist() == [s + k for s in starts for k in (1, 2)]
        assert (labels == BIO_O).sum() == len(labels) - 6

    def test_counting_bio_comes_from_evidence_nodes(self):
        answer = {"type": "Counting", "value": 2, "scale": "None",
                  "evidence_node_refs": [
                      {"kind": "quantity", "block_id": 0, "index": 0},
                      {"kind": "quantity", "block_id": 1, "index": 0}]}
        inst = build_instance(_record(answer))
        assert (inst.gold.bio_labels == BIO_B).sum() == 2

    def test_counting_value_other_than_the_count_warns(self, caplog):
        for value in (3, 2.5, float("nan"), float("inf")):
            answer = {"type": "Counting", "value": value, "scale": "None",
                      "evidence_node_refs": [
                          {"kind": "quantity", "block_id": 0, "index": 0},
                          {"kind": "quantity", "block_id": 1, "index": 0}]}
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="docreason.pipeline"):
                build_instance(_record(answer))
            assert any("differs from 2 counted" in r.message for r in caplog.records), value

    def test_counting_without_element_refs_raises(self):
        answer = {"type": "Counting", "value": 2, "scale": "None",
                  "evidence_node_refs": [{"kind": "block", "block_id": 0}]}
        with pytest.raises(ValidationError):
            build_instance(_record(answer))

    def test_unknown_type_and_scale_are_schema_errors(self):
        with pytest.raises(SchemaError):
            build_instance(_record({"type": "Ranking", "value": 1, "scale": "None"}))
        with pytest.raises(SchemaError):
            build_instance(_record({"type": "Span", "value": "1,731",
                                    "scale": "Trillion"}))


class TestGenerator:
    def test_every_generated_record_builds_with_gold(self):
        """The generator emits records uncompiled, so this is their check: the
        bundled corpus, and held-out sizes at seeds below and above 2**32
        (5484000685 is the held-out seed bench/run.py derives from --seed 1;
        its derived seeds all have bit 32 set)."""
        for n, seed in ((50, 2024), (100, 7), (100, 2**32 + 1), (100, 5484000685)):
            for record in generate_corpus(n=n, seed=seed):
                inst = build_instance(record)
                assert inst.gold is not None, (seed, record["doc_id"])
                assert inst.gold.gold_nodes, (seed, record["doc_id"])

    def test_all_answer_types_appear(self):
        types = {r["answer"]["type"] for r in generate_corpus(n=20, seed=3)}
        assert types == {"Span", "Spans", "Counting", "Arithmetic"}

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_corpus(str(a), n=10, seed=5)
        write_corpus(str(b), n=10, seed=5)
        assert a.read_bytes() == b.read_bytes()

    def test_write_corpus_writes_the_bundled_file(self, tmp_path):
        path = tmp_path / "corpus.json"
        write_corpus(str(path))
        with open("data/synthetic-50.json", "rb") as f:
            assert path.read_bytes() == f.read()
        assert list(tmp_path.iterdir()) == [path]

    def test_bundled_corpus_loads_and_matches_generator(self):
        instances = load_corpus("data/synthetic-50.json")
        assert len(instances) == 50
        regenerated = generate_corpus(n=50, seed=2024)
        assert [i.qid for i in instances] == [r["doc_id"] for r in regenerated]

    def test_arithmetic_expressions_execute_to_gold(self):
        rng = np.random.default_rng(0)
        for record in generate_corpus(n=40, seed=int(rng.integers(1 << 30))):
            if record["answer"]["type"] != "Arithmetic":
                continue
            inst = build_instance(record)
            got = execute_tree(inst.gold.gold_tree, inst.nodes)
            want = record["answer"]["value"]
            assert abs(got - want) <= 1e-6 * max(1.0, abs(want))
