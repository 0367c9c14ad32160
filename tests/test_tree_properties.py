"""Property tests on generated expression trees: the string form and the
token form both round-trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docreason.errors import ValidationError
from docreason.tree import OPS, TreeNode, TreeVocab, parse_tree, serialize_tree

LEAVES = st.one_of(st.builds(TreeNode, st.just("const"), st.integers(1, 100)),
                   st.builds(TreeNode, st.just("node"), st.integers(0, 10_000)))
TREES = st.recursive(
    LEAVES,
    lambda kids: st.builds(lambda op, a, b: TreeNode("op", op, (a, b)),
                           st.sampled_from(OPS), kids, kids),
    max_leaves=24)
PROPERTY = settings(max_examples=200, derandomize=True, deadline=None)


def _leaves(t):
    if t.kind != "op":
        return [t]
    return _leaves(t.children[0]) + _leaves(t.children[1])


def _vocab(t, extra_constants, extra_nodes):
    consts = {leaf.value for leaf in _leaves(t) if leaf.kind == "const"} | set(extra_constants)
    nodes = {leaf.value for leaf in _leaves(t) if leaf.kind == "node"} | set(extra_nodes)
    return TreeVocab(sorted(nodes), constants=sorted(consts))


@PROPERTY
@given(TREES)
def test_serialize_parse_round_trip(t):
    text = serialize_tree(t)
    assert parse_tree(text) == t
    assert serialize_tree(parse_tree(text)) == text


@PROPERTY
@given(TREES, st.sets(st.integers(1, 100), max_size=5), st.sets(st.integers(0, 10_000), max_size=5))
def test_tokens_round_trip(t, extra_constants, extra_nodes):
    vocab = _vocab(t, extra_constants, extra_nodes)
    tokens = vocab.tokens_for_tree(t)
    assert len(tokens) == 2 * len(_leaves(t)) - 1
    assert all(0 <= tok < len(vocab) for tok in tokens)
    assert vocab.tree_from_tokens(tokens) == t


@PROPERTY
@given(TREES)
def test_a_token_prefix_or_an_extra_token_is_not_one_tree(t):
    vocab = _vocab(t, (), ())
    tokens = vocab.tokens_for_tree(t)
    if len(tokens) > 1:
        with pytest.raises(ValidationError):
            vocab.tree_from_tokens(tokens[:-1])
    with pytest.raises(ValidationError):
        vocab.tree_from_tokens(tokens + tokens[-1:])
