"""Properties: `validate` on a corpus or config with one value of the wrong
JSON type, and `train` on a record whose evidence refs are rewritten, exit
0, 2, 3 or 4 with at most one stderr line, never with a traceback; `graphs`
and `predict` on such a corpus, and `eval --predictions` on a dump with one
value replaced or one key dropped, exit 0 or 2. `validate` on records whose
doc_ids hold line breaks writes one stderr line per bad record. Values of
the right JSON type that are out of range (an expression constant the
decoder cannot write) or odd (block text with letters that match ASCII ones
only under case folding) exit 0 or 2, and so does `validate`, `graphs` or
`train` on a record with any number, string or list replaced by an
out-of-range number, an odd string or an empty list."""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docreason.cli import main
from docreason.config import SETTING_TYPES
from docreason.pipeline import load_records

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "data", "synthetic-50.json")
with open(CORPUS, encoding="utf-8") as _f:
    TYPED_RECORDS = json.load(_f)[:4]  # Arithmetic, Span, Spans, Counting
RECORDS = TYPED_RECORDS[:3]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=6)


def _json_type(value) -> str:
    for kinds, name in ((bool, "boolean"), ((int, float), "number"), (str, "string"),
                        (list, "array"), (dict, "object")):
        if isinstance(value, kinds):
            return name
    return "null"


def _paths(value, prefix=()):
    """Every key/index path into a JSON value."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


PATHS = [(i, path) for i, record in enumerate(RECORDS) for path in _paths(record)]


def _run(command: str, files: dict[str, object], *extra: str) -> tuple[int, str]:
    """Run a `docreason` command in process on the given JSON files (the
    directory that holds them is `{tmp}` in `extra`) and return its exit
    code and stderr."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        for name, value in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as f:
                json.dump(value, f)
        args = [a.format(tmp=tmp) for a in extra]
        code = main([command, "--corpus", os.path.join(tmp, "corpus.json"), *args])
    return code, err.getvalue()


def _assert_contract(code: int, err: str, codes=(0, 2, 3, 4)):
    assert code in codes, err
    assert len(err.splitlines()) <= 1 and "Traceback" not in err, err


def _at(value, path):
    for key in path:
        value = value[key]
    return value


def _with_a_value_of_another_type(where, data) -> list[dict]:
    """RECORDS with the value at `where` replaced by one of another JSON type."""
    index, path = where
    records = json.loads(json.dumps(RECORDS))
    parent = _at(records[index], path[:-1])
    old = parent[path[-1]]
    parent[path[-1]] = data.draw(JSON_VALUES.filter(lambda v: _json_type(v) != _json_type(old)))
    return records


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PATHS), st.data())
def test_a_record_value_of_another_json_type(where, data):
    records = _with_a_value_of_another_type(where, data)
    _assert_contract(*_run("validate", {"corpus.json": records}))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PATHS), st.data())
def test_graphs_on_a_record_value_of_another_json_type(where, data):
    records = _with_a_value_of_another_type(where, data)
    _assert_contract(*_run("graphs", {"corpus.json": records}, "--out-dir", "{tmp}/graphs"),
                     codes=(0, 2))


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """(checkpoint path, prediction dump) of a dim-8 model trained one epoch
    on RECORDS."""
    out = str(tmp_path_factory.mktemp("trained"))
    checkpoint = os.path.join(out, "checkpoint.ckpt")
    for command, extra in (("train", ("--epochs", "1", "--dim", "8")),
                           ("predict", ("--checkpoint", checkpoint))):
        code, err = _run(command, {"corpus.json": RECORDS}, "--out-dir", out, *extra)
        assert code == 0, err
    return checkpoint, load_records(os.path.join(out, "predictions.jsonl"))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(PATHS), st.data())
def test_predict_on_a_record_value_of_another_json_type(trained, where, data):
    records = _with_a_value_of_another_type(where, data)
    _assert_contract(*_run("predict", {"corpus.json": records}, "--checkpoint", trained[0],
                           "--out-dir", "{tmp}"), codes=(0, 2))


@settings(max_examples=60, deadline=None)
@given(st.data(), JSON_VALUES, st.booleans())
def test_eval_on_a_mutated_prediction_dump(trained, data, value, drop):
    dump = json.loads(json.dumps(trained[1]))
    path = data.draw(st.sampled_from(list(_paths(dump))))
    parent = _at(dump, path[:-1])
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    _assert_contract(*_run("eval", {"corpus.json": RECORDS, "predictions.json": dump},
                           "--predictions", "{tmp}/predictions.json", "--out-dir", "{tmp}/eval"),
                     codes=(0, 2))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SETTING_TYPES)), JSON_VALUES)
def test_a_config_value_of_any_json_type(key, value):
    code, err = _run("validate", {"corpus.json": RECORDS, "config.json": {key: value}},
                     "-c", "{tmp}/config.json")
    _assert_contract(code, err)



@settings(max_examples=40, deadline=None)
@given(st.sampled_from(range(len(TYPED_RECORDS))),
       st.sampled_from(("absent", "empty", "question", "another block",
                        "a quantity of another block")),
       st.integers(0, 3), st.data())
def test_train_on_a_record_with_rewritten_evidence_refs(index, rewrite, seed, data):
    record = json.loads(json.dumps(TYPED_RECORDS[index]))
    answer = record["answer"]
    named = {ref.get("block_id") for ref in answer.pop("evidence_node_refs")}
    other = data.draw(st.sampled_from([b["block_id"] for b in record["blocks"]
                                       if b["block_id"] not in named]))
    refs = {"empty": [], "question": [{"kind": "question"}],
            "another block": [{"kind": "block", "block_id": other}],
            "a quantity of another block": [{"kind": "quantity", "block_id": other,
                                             "index": 0}]}.get(rewrite)
    if refs is not None:
        answer["evidence_node_refs"] = refs
    _assert_contract(*_run("train", {"corpus.json": [record]}, "--out-dir", "{tmp}",
                           "--epochs", "1", "--dim", "8", "--seed", str(seed)))


@settings(max_examples=30, deadline=None)
@given(st.integers(-10, 200) | st.integers(-10**9, 10**9), st.integers(1, 100))
def test_train_with_an_expression_constant_of_any_size(constant, constants_max):
    record = json.loads(json.dumps(TYPED_RECORDS[0]))
    answer = record["answer"]  # times constant/constant: the gold value still holds
    answer["expression"] = f"(* {answer['expression']} (/ c#{constant} c#{constant}))"
    _assert_contract(*_run("train", {"corpus.json": [record]}, "--out-dir", "{tmp}",
                           "--epochs", "1", "--dim", "8", "--constants-max", str(constants_max)),
                     codes=(0, 2))


# per JSON type, values of that type that are out of range or odd
SAME_TYPE_VALUES = {"number": [-1, 0, 10**9, 1e300, 2**63],
                    "string": ["", " ", "((", "c#0", "e#9"], "array": [[]]}
SAME_TYPE_PATHS = [(i, path) for i, path in PATHS
                   if _json_type(_at(RECORDS[i], path)) in SAME_TYPE_VALUES]
COMMAND_ARGS = {"validate": (), "graphs": ("--out-dir", "{tmp}/graphs"),
                "train": ("--out-dir", "{tmp}", "--epochs", "1", "--dim", "8")}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(SAME_TYPE_PATHS), st.data(), st.sampled_from(sorted(COMMAND_ARGS)))
def test_a_record_value_of_the_same_json_type_out_of_range_or_odd(where, data, command):
    index, path = where
    records = json.loads(json.dumps(RECORDS))
    parent = _at(records[index], path[:-1])
    parent[path[-1]] = data.draw(st.sampled_from(SAME_TYPE_VALUES[_json_type(parent[path[-1]])]))
    _assert_contract(*_run(command, {"corpus.json": records}, *COMMAND_ARGS[command]),
                     codes=(0, 2))


CASE_FOLD_TEXT = ["ſ", "\u212a", "İ", "ı", "ſeptember 2019", "14 ſep. 2019", "aprİl 3, 2017",
                  "ſEPT. 2019", "F\u212a19", "３ ſep 2019", "²"]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(i, k) for i, r in enumerate(RECORDS) for k in range(len(r["blocks"]))]),
       st.sampled_from(CASE_FOLD_TEXT), st.floats(0, 1), st.booleans())
def test_validate_on_block_text_with_case_fold_letters(where, fragment, at, replace_s):
    index, block = where
    records = json.loads(json.dumps(RECORDS))
    target = records[index]["blocks"][block]
    text = target["text"].replace("s", "ſ") if replace_s else target["text"]
    cut = int(at * len(text))
    target["text"] = text[:cut] + fragment + text[cut:]
    _assert_contract(*_run("validate", {"corpus.json": records}), codes=(0, 2))


# every character str.splitlines ends a line at
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
TEXT = st.text(st.characters(blacklist_categories=("Cs",)) | st.sampled_from(LINE_BREAKS),
               max_size=6)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(TEXT, st.sampled_from(LINE_BREAKS), TEXT, st.booleans()),
                min_size=len(RECORDS), max_size=len(RECORDS)))
def test_validate_on_doc_ids_with_line_breaks(drawn):
    records = json.loads(json.dumps(RECORDS))
    for i, (record, (head, brk, tail, bad)) in enumerate(zip(records, drawn)):
        record["doc_id"] = f"{head}{brk}{tail}#{i}"  # "#i": no two are equal
        if bad:
            record["answer"]["evidence_node_refs"] = [{"kind": "block", "block_id": 99}]
    code, err = _run("validate", {"corpus.json": records})
    bad = sum(d[-1] for d in drawn)
    assert code == (2 if bad else 0), err
    assert "Traceback" not in err and len(err.splitlines()) == bad, err
