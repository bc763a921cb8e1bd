"""Finite-difference verification of every autodiff op."""

import numpy as np
import pytest

import fashiongraph.autodiff as ad
from fashiongraph.autodiff import Tensor


def numeric_grad(f, arrays, index, eps=1e-6):
    """Central difference of scalar-valued f w.r.t. arrays[index]."""
    base = arrays[index]
    grad = np.zeros_like(base)
    flat = base.ravel()
    for k in range(flat.size):
        idx = np.unravel_index(k, base.shape)
        orig = base[idx]
        base[idx] = orig + eps
        plus = f(arrays)
        base[idx] = orig - eps
        minus = f(arrays)
        base[idx] = orig
        grad[idx] = (plus - minus) / (2 * eps)
    return grad


def check_op(build, shapes, seed=0, atol=1e-7):
    """Compare backward gradients of a scalar graph against central differences."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) for s in shapes]

    def value(arrs):
        with ad.no_grad():
            return build([Tensor(a) for a in arrs]).item()

    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(tensors)
    out.backward()
    for i, t in enumerate(tensors):
        expected = numeric_grad(value, arrays, i)
        got = t.grad if t.grad is not None else np.zeros_like(arrays[i])
        np.testing.assert_allclose(got, expected, atol=atol, err_msg=f"input {i}")


def test_add_sub_mul_div_broadcast():
    check_op(lambda ts: ad.sum_((ts[0] + ts[1]) * ts[2] - ts[1] / ts[3]),
             [(3, 4), (4,), (3, 4), (3, 1)], seed=1)


def test_scalar_operands():
    check_op(lambda ts: ad.sum_(2.0 * ts[0] + ts[0] / 3.0 - (1.0 - ts[0])), [(5,)])


def test_matmul_plain():
    check_op(lambda ts: ad.sum_(ad.matmul(ts[0], ts[1])), [(3, 4), (4, 5)])


def test_matmul_batched_broadcast():
    # (n, d) @ (H, d, d) broadcasts over heads; gradient sums back.
    check_op(lambda ts: ad.sum_(ad.matmul(ts[0], ts[1])), [(5, 3), (4, 3, 3)])


def test_gather_axis0_and_axis1():
    idx = np.array([0, 2, 2, 1])
    check_op(lambda ts: ad.sum_(ad.gather(ts[0], idx, axis=0) * 1.5), [(3, 4)])
    check_op(lambda ts: ad.sum_(ad.gather(ts[0], idx, axis=1)), [(2, 3)])


def test_segment_sum():
    seg = np.array([0, 0, 2, 1, 2])
    check_op(
        lambda ts: ad.sum_(ad.segment_sum(ts[0], seg, 3, axis=0)
                           * ad.segment_sum(ts[0], seg, 3, axis=0)),
        [(5, 2)],
    )


def test_segment_sum_axis1():
    seg = np.array([1, 0, 1, 1])
    check_op(lambda ts: ad.sum_(ad.segment_sum(ts[0], seg, 2, axis=1) * 2.0), [(3, 4)])


def test_concat_and_narrow():
    check_op(lambda ts: ad.sum_(ad.concat([ts[0], ts[1]], axis=1)
                                * ad.concat([ts[1], ts[0]], axis=1)), [(2, 3), (2, 3)])
    check_op(lambda ts: ad.sum_(ad.narrow(ts[0], 1, 1, 3) * 3.0), [(2, 4)])


def test_nonlinearities():
    check_op(lambda ts: ad.sum_(ad.leaky_relu(ts[0], 0.2)), [(4, 3)], seed=3)
    check_op(lambda ts: ad.sum_(ad.tanh(ts[0])), [(6,)])
    check_op(lambda ts: ad.sum_(ad.exp(ts[0])), [(6,)])
    check_op(lambda ts: ad.sum_(ad.softplus(ts[0])), [(6,)], seed=5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("slope", [0.0, 0.2, 1.0])
def test_leaky_relu_is_the_sign_lookup_with_and_without_a_tape(dtype, slope):
    # The max form and its lazy gradient equal scaling each entry by 1 or
    # slope by its sign, bit for bit, on and off the tape.
    x = np.random.default_rng(4).normal(size=(5, 7)).astype(dtype)
    x[0, :3] = [0.0, -0.0, -1e30]
    scale = np.where(x >= 0, dtype(1.0), dtype(slope)).astype(dtype)
    with ad.no_grad():
        off = ad.leaky_relu(Tensor(x, requires_grad=True), slope)
    leaf = Tensor(x, requires_grad=True)
    on = ad.leaky_relu(leaf, slope)
    assert off._backward is None and on._backward is not None
    g = np.random.default_rng(5).normal(size=x.shape).astype(dtype)
    on.backward(g)
    for y in (off.data, on.data):
        assert y.dtype == dtype
        np.testing.assert_array_equal(y, x * scale)
    assert leaf.grad.dtype == dtype
    np.testing.assert_array_equal(leaf.grad, g * scale)


def test_reductions_and_shapes():
    check_op(lambda ts: ad.sum_(ad.mean(ts[0], axis=0)
                                * ad.sum_(ts[0], axis=1, keepdims=True)),
             [(3, 3)])
    check_op(lambda ts: ad.sum_(ad.reshape(ts[0], (6,)) * np.arange(6.0)), [(2, 3)])
    check_op(lambda ts: ad.sum_(ad.transpose(ts[0], (1, 0, 2)) * 2.0), [(2, 3, 4)])
    check_op(lambda ts: ad.mean(ts[0], axis=(0, 1)), [(2, 5)])


def test_segment_softmax_grad_and_sums():
    seg = np.array([0, 0, 0, 1, 1, 2])
    check_op(
        lambda ts: ad.sum_(ad.segment_softmax(ts[0], seg, 3, axis=1)
                           * np.arange(12.0).reshape(2, 6)),
        [(2, 6)],
        seed=2,
    )
    rng = np.random.default_rng(0)
    logits = Tensor(rng.normal(size=(4, 6)) * 50)  # large spread: stability matters
    alpha = ad.segment_softmax(logits, seg, 3, axis=1).data
    for s in range(3):
        np.testing.assert_allclose(alpha[:, seg == s].sum(axis=1), 1.0, atol=1e-12)


def test_reused_node_accumulates():
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = x * x + x * 2.0  # x used three times
    y.backward()
    np.testing.assert_allclose(x.grad, [8.0])


def test_backward_frees_the_tape_and_a_second_walk_raises():
    x = Tensor(np.array([3.0, -1.0]), requires_grad=True)
    shared = x * x
    y = ad.sum_(shared * 2.0)
    other = ad.sum_(shared)
    y.backward()
    np.testing.assert_array_equal(x.grad, [12.0, -4.0])
    assert y.grad is None and y._parents == () and shared._parents == ()
    with pytest.raises(RuntimeError, match="already walked by backward"):
        y.backward()
    with pytest.raises(RuntimeError, match="already walked by backward"):
        other.backward()  # reaches the walked node ``shared``
    np.testing.assert_array_equal(x.grad, [12.0, -4.0])  # no stale step through it
    z = ad.sum_(x * x)  # a graph built again walks as before
    z.backward()
    np.testing.assert_array_equal(x.grad, [18.0, -6.0])


def test_softplus_stability():
    big = Tensor(np.array([1000.0, -1000.0]))
    out = ad.softplus(big).data
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out[0], 1000.0)
    assert out[1] == 0.0 or out[1] < 1e-300


def test_no_grad_skips_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        y = x * 2.0
    assert y._backward is None and not y.requires_grad


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_dtype_preserved_float32():
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    y = ad.mean(ad.leaky_relu(x * 2.0 - 0.5, 0.2) / 3.0)
    assert y.data.dtype == np.float32
    y.backward()
    assert np.asarray(x.grad).dtype == np.float32
