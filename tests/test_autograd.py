"""Reverse-mode autodiff checked against central finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from socialstance import autograd as ag


def numeric_grad(fn, x, eps=1e-6):
    """Central-difference gradient of a scalar fn at x."""
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + eps
        hi = fn(x)
        xf[i] = orig - eps
        lo = fn(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2 * eps)
    return grad


def check_grad(build, x0, atol=1e-7, rtol=1e-5):
    """build(tensor) -> scalar Tensor; compares backward grad to FD."""
    x = ag.Tensor(x0.copy(), requires_grad=True)
    out = build(x)
    out.backward()
    fd = numeric_grad(lambda arr: float(build(ag.Tensor(arr)).data), x0.copy())
    np.testing.assert_allclose(x.grad, fd, atol=atol, rtol=rtol)


class TestElementwise:
    def test_add_mul_broadcast(self):
        rng = np.random.default_rng(0)
        a0 = rng.standard_normal((3, 4))
        b0 = rng.standard_normal(4)

        a = ag.Tensor(a0, requires_grad=True)
        b = ag.Tensor(b0, requires_grad=True)
        out = ag.tsum(ag.mul(ag.add(a, b), ag.add(a, 2.0)))
        out.backward()

        fd_a = numeric_grad(lambda arr: float(((arr + b0) * (arr + 2.0)).sum()), a0.copy())
        fd_b = numeric_grad(lambda arr: float(((a0 + arr) * (a0 + 2.0)).sum()), b0.copy())
        np.testing.assert_allclose(a.grad, fd_a, atol=1e-6)
        np.testing.assert_allclose(b.grad, fd_b, atol=1e-6)

    def test_div(self):
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal(5) + 3.0
        check_grad(lambda x: ag.tsum(ag.div(1.0, x)), x0)

    def test_relu_and_leaky(self):
        x0 = np.array([-2.0, -0.5, 0.3, 1.7])
        check_grad(lambda x: ag.tsum(ag.relu(x)), x0)
        check_grad(lambda x: ag.tsum(ag.leaky_relu(x, 0.2)), x0)

    def test_exp_log(self):
        rng = np.random.default_rng(2)
        x0 = rng.random(6) + 0.5
        check_grad(lambda x: ag.tsum(ag.exp(x)), x0)
        check_grad(lambda x: ag.tsum(ag.log(x)), x0)

    def test_clip_min_blocks_grad_below_floor(self):
        x0 = np.array([0.5, 2.0])
        x = ag.Tensor(x0, requires_grad=True)
        out = ag.tsum(ag.log(ag.clip_min(x, 1.0)))
        out.backward()
        np.testing.assert_allclose(x.grad, [0.0, 0.5])


class TestMatmul:
    def test_all_rank_combinations(self):
        rng = np.random.default_rng(3)
        m, k, n = 3, 4, 2
        cases = [
            ((m, k), (k, n)),
            ((k,), (k, n)),
            ((m, k), (k,)),
            ((k,), (k,)),
        ]
        for sa, sb in cases:
            a0 = rng.standard_normal(sa)
            b0 = rng.standard_normal(sb)
            a = ag.Tensor(a0, requires_grad=True)
            b = ag.Tensor(b0, requires_grad=True)
            out = ag.tsum(ag.matmul(a, b))
            out.backward()
            fd_a = numeric_grad(lambda arr: float((arr @ b0).sum()), a0.copy())
            fd_b = numeric_grad(lambda arr: float((a0 @ arr).sum()), b0.copy())
            np.testing.assert_allclose(a.grad, fd_a, atol=1e-6, err_msg=f"{sa}@{sb}")
            np.testing.assert_allclose(b.grad, fd_b, atol=1e-6, err_msg=f"{sa}@{sb}")

    def test_rank3_rejected(self):
        a = ag.Tensor(np.zeros((2, 2, 2)))
        b = ag.Tensor(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            ag.matmul(a, b)

    @pytest.mark.parametrize("sa, sb", [((), (2,)), ((2,), ()), ((), ())])
    def test_scalar_rejected(self, sa, sb):
        with pytest.raises(ValueError):
            ag.matmul(ag.Tensor(np.ones(sa)), ag.Tensor(np.ones(sb)))


class TestGatherScatter:
    def test_getitem_repeated_rows_accumulate(self):
        x0 = np.arange(6.0).reshape(3, 2)
        idx = np.array([0, 2, 0, 0])
        x = ag.Tensor(x0, requires_grad=True)
        out = ag.tsum(ag.getitem(x, idx))
        out.backward()
        # row 0 gathered three times, row 1 never, row 2 once
        np.testing.assert_array_equal(x.grad, [[3.0, 3.0], [0.0, 0.0], [1.0, 1.0]])

    def test_getitem_slice(self):
        x0 = np.arange(12.0).reshape(4, 3)
        check_grad(lambda x: ag.tsum(ag.getitem(x, slice(1, 3))), x0)

    def test_segment_sum_forward_and_grad(self):
        x0 = np.arange(8.0).reshape(4, 2)
        seg = np.array([1, 0, 1, 3])
        x = ag.Tensor(x0, requires_grad=True)
        out = ag.segment_sum(x, seg, 5)
        expected = np.zeros((5, 2))
        for row, s in zip(x0, seg):
            expected[s] += row
        np.testing.assert_array_equal(out.data, expected)
        # weight each segment differently so the gradient is distinguishable
        w = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
        ag.tsum(ag.mul(out, ag.Tensor(w))).backward()
        np.testing.assert_array_equal(x.grad, w[seg].repeat(2, axis=1))

    def test_concat_splits_gradient(self):
        a0 = np.ones((2, 2))
        b0 = np.ones((3, 2))
        a = ag.Tensor(a0, requires_grad=True)
        b = ag.Tensor(b0, requires_grad=True)
        joined = ag.concat([a, b], axis=0)
        ag.tsum(ag.mul(joined, ag.Tensor(np.arange(10.0).reshape(5, 2)))).backward()
        np.testing.assert_array_equal(a.grad, [[0.0, 1.0], [2.0, 3.0]])
        np.testing.assert_array_equal(b.grad, [[4.0, 5.0], [6.0, 7.0], [8.0, 9.0]])


@st.composite
def scatter_cases(draw):
    """Rows of 1-D or 2-D values, a bucket index per row (repeats, empty
    buckets and buckets past the largest index included), and a bucket
    count."""
    used = draw(st.integers(1, 6))
    n_rows = draw(st.integers(0, 24))
    index = np.array(draw(st.lists(st.integers(0, used - 1), min_size=n_rows,
                                   max_size=n_rows)), dtype=np.intp)
    tail = draw(st.sampled_from([(), (1,), (3,)]))
    values = draw(hnp.arrays(np.float64, (n_rows,) + tail,
                             elements=st.floats(-1e6, 1e6)))
    return values, index, used + draw(st.integers(0, 3))


def add_at_oracle(values, index, num_segments):
    out = np.zeros((num_segments,) + values.shape[1:])
    np.add.at(out, index, values)
    return out


class TestScatterMatchesAddAt:
    """The bincount scatter sums each bucket in row order, as np.add.at
    does, so both agree bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(scatter_cases())
    def test_segment_sum_forward(self, case):
        values, index, num_segments = case
        got = ag.segment_sum(ag.Tensor(values), index, num_segments).data
        want = add_at_oracle(values, index, num_segments)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(scatter_cases())
    def test_getitem_backward(self, case):
        upstream, index, num_rows = case
        x = ag.Tensor(np.zeros((num_rows,) + upstream.shape[1:]), requires_grad=True)
        ag.tsum(ag.mul(ag.getitem(x, index), ag.Tensor(upstream))).backward()
        want = add_at_oracle(upstream, index, num_rows)
        assert x.grad.shape == want.shape
        assert x.grad.tobytes() == want.tobytes()


    @pytest.mark.parametrize("shape, key", [
        ((4, 3), (np.array([0, 2, 2, 3, 0, 2]), np.array([1, 0, 0, 2, 1, 0]))),
        ((5,), 3),
        ((4, 3), 2),
        ((4, 3), np.array([-1, 0, -1, -4, 3, -1])),
        ((4, 3), (np.array([-1, 1, -1, 3]), -2)),
        ((6, 2), slice(1, None, 2)),
        ((4, 3), np.array([True, False, True, True])),
        ((4, 3), np.arange(12).reshape(4, 3) % 5 < 2),
    ], ids=["rows-cols", "int-of-1d", "int-of-2d", "negative", "negative-pair",
            "slice", "row-mask", "element-mask"])
    def test_getitem_backward_key_kinds(self, shape, key):
        """Every key kind goes through the one scatter. The index keys
        pick some element three or more times, so a change of summation
        order shows in the last bits."""
        rng = np.random.default_rng(11)
        x = ag.Tensor(np.zeros(shape), requires_grad=True)
        picked = ag.getitem(x, key)
        upstream = rng.standard_normal(picked.data.shape)
        ag.tsum(ag.mul(picked, ag.Tensor(upstream))).backward()
        want = np.zeros(shape)
        np.add.at(want, key, upstream)
        assert x.grad.shape == want.shape
        assert x.grad.tobytes() == want.tobytes()


class TestShape:
    def test_sum_axis_and_reshape(self):
        rng = np.random.default_rng(4)
        x0 = rng.standard_normal((3, 4))
        check_grad(lambda x: ag.tsum(ag.mul(ag.tsum(x, axis=0), np.arange(4.0))), x0)
        check_grad(lambda x: ag.tsum(ag.mul(ag.reshape(x, (2, 6)),
                                            np.arange(12.0).reshape(2, 6))), x0)

    def test_mean(self):
        x0 = np.arange(6.0)
        x = ag.Tensor(x0, requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, np.full(6, 1 / 6))


class TestGraph:
    def test_diamond_reuse_accumulates(self):
        # y = x*x + x: dy/dx = 2x + 1
        x = ag.Tensor(np.array(3.0), requires_grad=True)
        y = ag.add(ag.mul(x, x), x)
        y.backward()
        np.testing.assert_allclose(x.grad, 7.0)

    def test_diamond_frees_interior_gradients(self):
        # y is consumed twice (y * y and + y): its gradient sums both shares
        # before its VJP runs, and every interior node drops its gradient
        # once that VJP has run; only the leaf keeps one.
        x0 = np.array([0.3, -1.2, 2.0])

        def build(x):
            y = ag.mul(x, x)
            return ag.tsum(ag.add(ag.mul(y, y), y))

        check_grad(build, x0)
        x = ag.Tensor(x0.copy(), requires_grad=True)
        y = ag.mul(x, x)
        square = ag.mul(y, y)
        both = ag.add(square, y)
        out = ag.tsum(both)
        out.backward()
        np.testing.assert_allclose(x.grad, 4 * x0 ** 3 + 2 * x0)
        assert all(node.grad is None for node in (y, square, both, out))

    def test_deep_chain_no_recursion_error(self):
        x = ag.Tensor(np.array(1.0), requires_grad=True)
        y = x
        for _ in range(5000):
            y = ag.add(y, 0.0)
        y.backward()
        np.testing.assert_allclose(x.grad, 1.0)

    def test_backward_requires_scalar(self):
        x = ag.Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError):
            x.backward()

    def test_random_compositions(self):
        """Random softmax-cross-entropy-shaped pipelines vs finite differences."""
        rng = np.random.default_rng(9)
        for trial in range(10):
            n, d, h = 4, 5, 3
            w0 = rng.standard_normal((d, h)) * 0.7
            x0 = rng.standard_normal((n, d))
            target = int(rng.integers(h))

            def build(w):
                hidden = ag.relu(ag.matmul(ag.Tensor(x0), w))
                pooled = ag.tsum(hidden, axis=0)
                shifted = pooled - float(np.max((x0 @ w.data).clip(0).sum(0)))
                z = ag.exp(shifted)
                p = ag.div(z, ag.tsum(z))
                return -ag.log(ag.clip_min(ag.getitem(p, target), 1e-12))

            check_grad(build, w0, atol=1e-5, rtol=1e-4)


def composed_position_sum(w, hist):
    """The getitem / mul / add chain that ag.position_sum fuses."""
    total = None
    for m in range(hist.shape[1]):
        term = w[m] * ag.Tensor(hist[:, m, :])
        total = term if total is None else total + term
    return total


class TestPositionSum:
    def test_matches_composed_chain_bytes(self):
        rng = np.random.default_rng(6)
        hist = rng.standard_normal((9, 4, 5))
        hist[:, 3, :] = 0.0  # an empty history slot
        w0 = rng.standard_normal(4)
        g = -np.abs(rng.standard_normal((9, 5)))
        outs, grads = [], []
        for route in (ag.position_sum, composed_position_sum):
            w = ag.Tensor(w0.copy(), requires_grad=True)
            out = route(w, hist)
            ag.tsum(out * ag.Tensor(g)).backward()
            outs.append(out.data.tobytes())
            grads.append(w.grad.tobytes())
        assert outs[0] == outs[1]
        assert grads[0] == grads[1]

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        hist = rng.standard_normal((6, 3, 4))
        check_grad(lambda w: ag.tsum(ag.mul(ag.position_sum(w, hist), hist[:, 0, :])),
                   rng.standard_normal(3))

