"""Property: `validate` on a corpus or config with one value of the wrong
JSON type exits 0, 2, 3 or 4 with at most one stderr line, never with a
traceback."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from docreason.cli import main
from docreason.config import SETTING_TYPES

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "data", "synthetic-50.json")
with open(CORPUS, encoding="utf-8") as _f:
    RECORDS = json.load(_f)[:3]

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


def _validate(files: dict[str, object], *extra: str) -> tuple[int, str]:
    """Run `docreason validate` in process on the given JSON files and
    return its exit code and stderr."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        for name, value in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as f:
                json.dump(value, f)
        args = [a.format(tmp=tmp) for a in extra]
        code = main(["validate", "--corpus", os.path.join(tmp, "corpus.json"), *args])
    return code, err.getvalue()


def _assert_contract(code: int, err: str):
    assert code in (0, 2, 3, 4), err
    assert len(err.splitlines()) <= 1 and "Traceback" not in err, err


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PATHS), st.data())
def test_a_record_value_of_another_json_type(where, data):
    index, path = where
    records = json.loads(json.dumps(RECORDS))
    parent = records[index]
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    parent[path[-1]] = data.draw(JSON_VALUES.filter(lambda v: _json_type(v) != _json_type(old)))
    _assert_contract(*_validate({"corpus.json": records}))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SETTING_TYPES)), JSON_VALUES)
def test_a_config_value_of_any_json_type(key, value):
    code, err = _validate({"corpus.json": RECORDS, "config.json": {key: value}},
                          "-c", "{tmp}/config.json")
    _assert_contract(code, err)
