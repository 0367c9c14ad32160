"""Property test of the checkpoint format: any float64 parameters and any
JSON meta come back exactly, and equal inputs give equal files."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from docreason.autodiff import Tensor
from docreason.nn import load_checkpoint, save_checkpoint

SPECIAL = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072e-308,
           np.finfo(np.float64).max]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True,
                                                        allow_subnormal=True))
PARAMS = st.dictionaries(
    st.text(max_size=8),
    arrays(np.float64, st.lists(st.integers(0, 4), max_size=3).map(tuple), elements=VALUES),
    max_size=5)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8)
PROPERTY = settings(max_examples=150, derandomize=True, deadline=None)


@PROPERTY
@given(PARAMS, st.dictionaries(st.text(), JSON, max_size=4))
def test_round_trip_is_byte_exact_and_repeatable(params, meta):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.ckpt"), Path(tmp, "b.ckpt")
        save_checkpoint(str(first), {k: Tensor(v) for k, v in params.items()}, meta)
        save_checkpoint(str(second), {k: Tensor(v) for k, v in params.items()}, meta)
        assert first.read_bytes() == second.read_bytes()
        loaded, loaded_meta = load_checkpoint(str(first))
    assert loaded_meta == meta
    assert list(loaded) == sorted(params)
    for name, want in params.items():
        got = loaded[name]
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.flags.writeable
        assert got.flags.aligned and got.flags.c_contiguous
