"""Gradient correctness for the tape, checked against finite differences."""

import numpy as np
import pytest

from docreason.autodiff import (
    RowSparse,
    Tensor,
    add_masked,
    concat,
    dropout,
    finite_difference,
    scatter_add,
)
from docreason.errors import NonFiniteLoss, ShapeMismatch


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def _check(loss_fn, param: Tensor, tol: float = 1e-6) -> None:
    param.zero_grad()
    loss_fn().backward()
    numeric = finite_difference(loss_fn, param)
    assert param.grad is not None
    assert _rel_err(param.grad, numeric) < tol


class TestElementwiseOps:
    def test_add_mul_div(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
            b = Tensor(rng.normal(size=(3, 4)) + 3.0, requires_grad=True)
            _check(lambda: ((a * b + a) / b).sum(), a)
            _check(lambda: ((a * b + a) / b).sum(), b)

    def test_broadcast_row_and_scalar(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        row = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        _check(lambda: (a + row).sum(), row)
        _check(lambda: (a * 2.5 - 1.0).sum(), a)

    def test_neg_sub(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(5,)), requires_grad=True)
        _check(lambda: (1.0 - a).sum(), a)
        _check(lambda: (-a * a).sum(), a)

    def test_nonlinearities(self):
        rng = np.random.default_rng(3)
        for op in ("relu", "tanh", "gelu", "exp"):
            # keep relu inputs away from the kink at 0
            x = rng.normal(size=(3, 5))
            x[np.abs(x) < 0.05] = 0.5
            t = Tensor(x, requires_grad=True)
            _check(lambda: getattr(t, op)().sum(), t)

    def test_gelu_matches_the_pow_form(self):
        x = np.random.default_rng(4).normal(scale=3.0, size=(64, 48))
        x[0, :4] = [0.0, -0.0, 1e-300, -40.0]
        c, a = np.sqrt(2.0 / np.pi), 0.044715
        want = 0.5 * x * (1.0 + np.tanh(c * (x + a * x**3)))
        got = Tensor(x).gelu().data
        cube = 0.5 * x * (1.0 + np.tanh(c * (x + a * (x * x * x))))
        assert got.tobytes() == cube.tobytes()  # in place, same operation order
        np.testing.assert_array_equal(got[0, :4], want[0, :4])
        # below x ~ -2, 1 + tanh(...) is near 0 and one ulp of tanh is a large
        # relative change of either form, so there the error is bounded
        # relative to |x|; above it, relative to gelu(x) itself
        assert (np.abs(got - want) <= 1e-14 * np.maximum(np.abs(want), np.abs(x))).all()
        upper = x > -2.0
        np.testing.assert_allclose(got[upper], want[upper], rtol=1e-14, atol=0)


class TestShapeOps:
    def test_matmul(self):
        rng = np.random.default_rng(5)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        _check(lambda: (a @ b).sum(), a)
        _check(lambda: (a @ b).sum(), b)

    def test_matmul_shape_errors(self):
        a = Tensor(np.zeros((3, 4)))
        with pytest.raises(ShapeMismatch):
            a @ Tensor(np.zeros((3, 4)))
        with pytest.raises(ShapeMismatch):
            a @ Tensor(np.zeros(4))

    def test_reshape(self):
        rng = np.random.default_rng(6)
        a = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 1, 4)))
        _check(lambda: (a.reshape((3, 1, 4)) * w).sum(), a)

    def test_take_rows_scatter_adds_duplicates(self):
        # the same row gathered twice must receive twice the gradient
        a = Tensor(np.arange(6, dtype=float).reshape(3, 2), requires_grad=True)
        out = a.take_rows([1, 1, 2]).sum()
        out.backward()
        np.testing.assert_array_equal(a.grad, [[0, 0], [2, 2], [1, 1]])

    def test_take_rows_fd(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        _check(lambda: (a.take_rows([0, 2, 2, 4]) * a.take_rows([1, 1, 3, 3])).sum(), a)

    def test_slice_rows(self):
        rng = np.random.default_rng(8)
        a = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        _check(lambda: (a.slice_rows(1, 4) * 3.0).sum(), a)

    def test_concat_and_stack(self):
        rng = np.random.default_rng(9)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        _check(lambda: (concat([a, b], axis=1) * concat([b, a], axis=1)).sum(), a)
        _check(lambda: concat([a, b], axis=0).sum(), b)
        r1 = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        r2 = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        _check(lambda: (concat([r1, r2], axis=0) * concat([r2, r1], axis=0)).sum(), r1)


class TestReductions:
    def test_sum_axes(self):
        rng = np.random.default_rng(10)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        _check(lambda: (a.sum(axis=0) * a.sum(axis=0)).sum(), a)
        _check(lambda: a.sum(axis=1, keepdims=True).sum(), a)

    def test_mean(self):
        rng = np.random.default_rng(11)
        a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        _check(lambda: (a.mean(axis=1) * a.mean(axis=1)).sum(), a)
        _check(lambda: a.mean(), a)


class TestSoftmax:
    def test_log_softmax_fd(self):
        rng = np.random.default_rng(12)
        a = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 6)))
        _check(lambda: (a.log_softmax() * w).sum(), a)

    def test_log_softmax_stable_for_large_logits(self):
        a = Tensor(np.array([[1000.0, 0.0, -1000.0]]))
        out = a.log_softmax()
        assert np.all(np.isfinite(out.data))
        assert abs(out.data[0, 0]) < 1e-9  # winner carries ~all the mass

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = Tensor(rng.normal(size=(4, 7)) * 10)
            np.testing.assert_allclose(a.softmax().data.sum(axis=1), 1.0, atol=1e-12)

    def test_masked_softmax_ignores_masked_positions(self):
        logits = Tensor(np.array([[5.0, 1.0, 3.0]]), requires_grad=True)
        keep = np.array([[True, False, True]])
        lp = add_masked(logits, keep).log_softmax()
        probs = np.exp(lp.data[0])
        assert probs[1] < 1e-12
        np.testing.assert_allclose(probs[[0, 2]].sum(), 1.0, atol=1e-12)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRowSparseGradients:
    """take_rows on a leaf sends a RowSparse; read densified, it must equal
    the dense scatter-add (np.add.at into a zero table) bit for bit."""

    def test_leaf_gradient_equals_the_dense_scatter_add(self):
        rng = np.random.default_rng(11)
        table = Tensor(rng.normal(size=(9, 4)), requires_grad=True)
        # row 5 three times (its contributions cancel to exactly 0 below),
        # row 2 twice, rows 0, 4, 6, 8 never
        idx = np.array([5, 2, 7, 5, 2, 1, 3, 5])
        w = rng.normal(size=(len(idx), 4))
        w[7] = -(w[0] + w[3])  # (0 + w0 + w3) + w7 == 0 exactly
        expect = np.zeros((9, 4))
        np.add.at(expect, idx, w)
        assert not expect[5].any()
        (table.take_rows(idx) * Tensor(w)).sum().backward()
        g = table.raw_grad
        assert isinstance(g, RowSparse)
        np.testing.assert_array_equal(g.rows, [1, 2, 3, 5, 7])
        assert _same_bits(table.grad, expect)

    def test_accumulates_over_gathers_and_backward_calls(self):
        rng = np.random.default_rng(12)
        table = Tensor(rng.normal(size=(12, 3)), requires_grad=True)
        expect = np.zeros((12, 3))
        for call in range(2):
            firsts, seconds = rng.integers(0, 12, size=7), rng.integers(0, 6, size=4)
            w1, w2 = rng.normal(size=(7, 3)), rng.normal(size=(4, 3))
            loss = (table.take_rows(firsts) * Tensor(w1)).sum() \
                + (table.take_rows(seconds) * Tensor(w2)).sum()
            loss.backward()
            # the dense tape: one zero table per gather, summed, then added
            # to what the last call left
            acc1, acc2 = np.zeros((12, 3)), np.zeros((12, 3))
            np.add.at(acc1, firsts, w1)
            np.add.at(acc2, seconds, w2)
            expect = expect + (acc2 + acc1)
            assert isinstance(table.raw_grad, RowSparse)
            assert _same_bits(table.grad, expect), call
        np.testing.assert_array_equal(table.raw_grad.rows, np.flatnonzero(expect.any(axis=1)))

    def test_a_leaf_also_read_densely_gets_a_dense_sum(self):
        rng = np.random.default_rng(13)
        table = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        idx = np.array([4, 1, 4])
        w, c = rng.normal(size=(3, 2)), rng.normal(size=(6, 2))
        ((table.take_rows(idx) * Tensor(w)).sum() + (table * Tensor(c)).sum()).backward()
        expect = np.zeros((6, 2))
        np.add.at(expect, idx, w)
        expect = expect + c
        assert type(table.raw_grad) is np.ndarray
        assert _same_bits(table.grad, expect)

    def test_gathers_from_computed_tensors_stay_dense(self):
        a = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
        h = a * 2.0
        h.take_rows([3, 3, 0]).sum().backward()
        assert type(a.raw_grad) is np.ndarray
        np.testing.assert_array_equal(a.grad, [[2, 2], [0, 0], [0, 0], [4, 4]])

    def test_one_dimensional_leaf_and_an_empty_gather(self):
        v = Tensor(np.arange(5.0), requires_grad=True)
        (v.take_rows([3, 0, 3]) * Tensor(np.array([1.0, 2.0, 4.0]))).sum().backward()
        np.testing.assert_array_equal(v.grad, [2, 0, 0, 5, 0])
        t = Tensor(np.ones((3, 2)), requires_grad=True)
        (t.take_rows(np.array([], dtype=int)).sum() + t.take_rows([1]).sum()).backward()
        np.testing.assert_array_equal(t.grad, [[0, 0], [1, 1], [0, 0]])

    def test_constants_receive_no_gradient(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        const = Tensor(np.full((2, 2), 3.0))
        ((const @ w) * const + const).sum().backward()
        assert const.raw_grad is None
        np.testing.assert_array_equal(w.grad, [[18, 18], [18, 18]])


def _add_at(idx, g, shape):
    """The scatter scatter_add replaced: np.add.at into a zero table."""
    acc = np.zeros(shape)
    np.add.at(acc, idx, g)
    return acc


class TestScatterAdd:
    """scatter_add against np.add.at into a zero table, bit for bit."""

    def test_repeats_a_hot_slot_and_negative_zero(self):
        rng = np.random.default_rng(21)
        # slot 3 read ~200 times, as the ',' token of a wide record is
        idx = rng.permutation(np.concatenate([np.full(200, 3), rng.integers(0, 40, 300)]))
        g = rng.normal(size=(len(idx), 32)) * 10.0 ** rng.integers(-8, 8, size=(len(idx), 1))
        g[::7] = -0.0
        g[idx == 11] = -0.0  # a row whose every contribution is -0.0
        want = _add_at(idx, g, (40, 32))
        got = scatter_add(idx, g, (40, 32))
        assert _same_bits(got, want)
        assert not np.signbit(got[11]).any()

    def test_empty_index_one_and_three_dimensional_values(self):
        empty = np.array([], dtype=np.intp)
        assert _same_bits(scatter_add(empty, np.zeros((0, 5)), (4, 5)), np.zeros((4, 5)))
        rng = np.random.default_rng(22)
        idx = rng.integers(0, 6, 25)
        for tail in ((), (3, 2)):
            g = rng.normal(size=(25, *tail))
            g[:4] = -0.0
            assert _same_bits(scatter_add(idx, g, (6, *tail)), _add_at(idx, g, (6, *tail)))
        idx2 = rng.integers(0, 6, size=(5, 3))  # a 2-D index: g is idx.shape + row shape
        g = rng.normal(size=(5, 3, 4))
        assert _same_bits(scatter_add(idx2, g, (6, 4)), _add_at(idx2, g, (6, 4)))

    def test_random_cases(self):
        rng = np.random.default_rng(23)
        for case in range(300):
            n, m, d = int(rng.integers(1, 50)), int(rng.integers(0, 120)), int(rng.integers(1, 9))
            idx = rng.integers(0, n, m)
            g = rng.normal(size=(m, d)) * 10.0 ** rng.integers(-12, 12, size=(m, d))
            g[rng.random((m, d)) < 0.1] = -0.0
            assert _same_bits(scatter_add(idx, g, (n, d)), _add_at(idx, g, (n, d))), case


def _union_add(a, b):
    """RowSparse + RowSparse as a union: the left block assigned into zero
    rows, the right one added."""
    rows = np.union1d(a.rows, b.rows)
    values = np.zeros((len(rows),) + a.shape[1:])
    values[np.searchsorted(rows, a.rows)] = a.values
    values[np.searchsorted(rows, b.rows)] += b.values
    return RowSparse(rows, values, a.shape)


class TestRowSparseSum:
    def test_in_place_sum_equals_the_union_chain(self):
        """`acc += part` and `acc + part` over 80 parts against the union
        chain: the same rows and bytes, -0.0 included, and most parts add
        into the block they found."""
        rng = np.random.default_rng(24)
        parts = []
        for k in range(80):
            # the universe grows early, so later parts mostly fall inside it
            rows = np.unique(rng.integers(0, 20 + min(k, 10) * 4, int(rng.integers(0, 12))))
            values = rng.normal(size=(len(rows), 3))
            values[rng.random(values.shape) < 0.2] = -0.0
            parts.append(RowSparse(rows, values, (60, 3)))
        kept = [p.values.tobytes() for p in parts]
        chain = summed = parts[0]
        acc = RowSparse(parts[0].rows.copy(), parts[0].values.copy(), (60, 3))
        in_place = 0
        for part in parts[1:]:
            chain = _union_add(chain, part)
            summed = summed + part
            block = acc.values
            acc += part
            in_place += acc.values is block
            for got in (acc, summed):
                np.testing.assert_array_equal(got.rows, chain.rows)
                assert _same_bits(got.values, chain.values)
        assert in_place >= 40 and np.signbit(chain.values).any()
        assert [p.values.tobytes() for p in parts] == kept  # `+` and `+=` leave parts as they were

    def test_a_dense_part_densifies(self):
        acc = RowSparse(np.array([1]), np.array([[-0.0, 2.0]]), (3, 2))
        dense = np.ones((3, 2))
        acc += dense
        assert type(acc) is np.ndarray
        assert _same_bits(acc, RowSparse(np.array([1]), np.array([[-0.0, 2.0]]), (3, 2)) + dense)


class TestBackwardSemantics:
    def test_grad_accumulates_across_backward_calls(self):
        a = Tensor(np.ones(3), requires_grad=True)
        (a * 2.0).sum().backward()
        first = a.grad.copy()
        (a * 2.0).sum().backward()
        np.testing.assert_array_equal(a.grad, 2 * first)

    def test_diamond_graph_sums_paths(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        b = a * 3.0
        (b + b * b).sum().backward()  # d/da (3a + 9a^2) = 3 + 18a
        np.testing.assert_allclose(a.grad, [3 + 18 * 2.0])

    def test_a_backward_returning_too_few_gradients_fails(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        out = Tensor._result(a.data + b.data, (a, b), lambda g: (g,))  # no entry for b
        with pytest.raises(ValueError):
            out.sum().backward()

    def test_backward_requires_scalar(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ShapeMismatch):
            (a * 2).backward()

    def test_non_finite_loss_raises(self):
        a = Tensor(np.array([1.0, 0.0]), requires_grad=True)
        for loss in (lambda: (a / 0.0).sum(), lambda: (a * 0.0 / 0.0).sum()):  # inf, nan
            with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(NonFiniteLoss):
                loss().backward()


class TestDropout:
    def test_inference_is_identity(self):
        x = Tensor(np.arange(12, dtype=float).reshape(3, 4))
        out = dropout(x, 0.5, None)
        assert out is x

    def test_inverted_scaling_preserves_mean(self):
        rng = np.random.default_rng(14)
        x = Tensor(np.ones((200, 50)))
        out = dropout(x, 0.3, rng)
        assert abs(out.data.mean() - 1.0) < 0.02
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 1.0 / 0.7, atol=1e-12)

    def test_seeded_mask_is_reproducible(self):
        x = Tensor(np.ones((6, 6)))
        a = dropout(x, 0.5, np.random.default_rng(5))
        b = dropout(x, 0.5, np.random.default_rng(5))
        np.testing.assert_array_equal(a.data, b.data)

    def test_draws_one_uniform_per_entry(self):
        for shape in ((7, 3), (1, 5), (0, 4)):
            got, want = np.random.default_rng(8), np.random.default_rng(8)
            out = dropout(Tensor(np.ones(shape)), 0.4, got)
            keep = want.random(shape) >= 0.4
            assert got.bit_generator.state == want.bit_generator.state
            assert out.data.tobytes() == (keep / 0.6).tobytes()


class TestPropertyFuzz:
    def test_random_expression_graphs_match_fd(self):
        """Compose random op chains and gradcheck the leaf each time."""
        rng = np.random.default_rng(99)
        for trial in range(20):
            x = Tensor(rng.uniform(0.3, 1.5, size=(3, 4)), requires_grad=True)
            w = Tensor(rng.normal(size=(4, 3)))
            v = Tensor(rng.normal(size=(3, 6)))

            def loss():
                h = (x @ w).tanh()
                h = concat([h, h * 0.5], axis=1)
                return (h.log_softmax() * v).mean() + x.mean()

            x.zero_grad()
            loss().backward()
            numeric = finite_difference(loss, x)
            assert _rel_err(x.grad, numeric) < 1e-5, f"trial {trial}"
