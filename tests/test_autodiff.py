"""Tape primitives: forward values, shape errors, and gradients vs finite differences."""

import numpy as np
import numpy.testing as npt
import pytest

from sase import autodiff as ad
from sase.autodiff import (
    Tape,
    Tensor,
    backward,
    finite_difference_grad,
    parameter,
    zero_grads,
)
from sase.errors import ShapeError


def assert_grads_close(analytic, numeric, rtol=1e-4, atol=1e-7):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    err = np.abs(analytic - numeric)
    bound = atol + rtol * np.maximum(np.abs(analytic), np.abs(numeric))
    worst = np.max(err - bound)
    assert worst <= 0, f"gradient mismatch: max excess {worst:.3e}\nanalytic={analytic}\nnumeric={numeric}"


def tape_grad(f, x0):
    """Gradient of scalar-valued ``f`` (built from primitives) at x0, via the tape."""
    leaf = parameter(x0)
    with Tape():
        out = f(leaf)
        backward(out)
    return leaf.grad


# ---------------------------------------------------------------------------
# forward values


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = Tensor(np.eye(2))
    npt.assert_array_equal(ad.matmul(a, eye).data, a.data)


def test_tanh_at_zero():
    z = ad.tanh(Tensor(np.zeros((3, 2))))
    npt.assert_array_equal(z.data, np.zeros((3, 2)))


def test_reduce_mean_value():
    m = ad.reduce_mean(Tensor([1.0, 2.0, 3.0, 4.0]))
    assert m.data == pytest.approx(2.5)


def test_scalar_operands():
    x = Tensor([1.0, 2.0])
    npt.assert_allclose((x * 3.0).data, [3.0, 6.0])
    npt.assert_allclose((1.0 - x).data, [0.0, -1.0])
    npt.assert_allclose((x / 2.0).data, [0.5, 1.0])


# ---------------------------------------------------------------------------
# shape errors


def test_elementwise_shape_mismatch():
    with pytest.raises(ShapeError, match="add"):
        ad.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError, match="matmul"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_slice_rejects_integer_index():
    with pytest.raises(ShapeError, match="slice"):
        ad.slice_(Tensor(np.zeros((3, 3))), (1,))


def test_broadcast_incompatible():
    with pytest.raises(ShapeError, match="broadcast"):
        ad.broadcast_to(Tensor(np.zeros((3, 2))), (3, 5))


# ---------------------------------------------------------------------------
# backward basics


def test_quadratic_gradient():
    x = parameter([1.0, 2.0, 3.0])
    with Tape():
        loss = ad.reduce_sum(ad.mul(x, x))
        backward(loss)
    npt.assert_allclose(x.grad, [2.0, 4.0, 6.0])


def test_constant_valued_root_gives_zero_grads():
    x = parameter([1.0, -2.0])
    with Tape():
        loss = ad.reduce_sum(ad.mul(x, Tensor([0.0, 0.0])))
        backward(loss)
    npt.assert_array_equal(x.grad, [0.0, 0.0])


def test_detached_root_rejected():
    t = Tensor(1.0)
    with pytest.raises(ValueError, match="detached"):
        backward(t)


def test_nonscalar_root_rejected():
    x = parameter([1.0, 2.0])
    with Tape():
        y = ad.mul(x, x)
        with pytest.raises(ValueError, match="scalar"):
            backward(y)


def test_grad_accumulates_until_zeroed():
    x = parameter([1.0, 1.0])
    for _ in range(2):
        with Tape():
            backward(ad.reduce_sum(x * x))
    npt.assert_allclose(x.grad, [4.0, 4.0])
    zero_grads([x])
    assert x.grad is None


def test_backward_linearity():
    rng = np.random.default_rng(7)
    x0 = rng.uniform(-2, 2, size=(4, 3))

    def roots(leaf):
        a = ad.reduce_sum(ad.tanh(leaf))
        b = ad.reduce_sum(ad.mul(leaf, leaf))
        return a, b

    x = parameter(x0)
    with Tape():
        a, b = roots(x)
        backward(a)
    ga = x.grad.copy()
    zero_grads([x])
    with Tape():
        a, b = roots(x)
        backward(b)
    gb = x.grad.copy()
    zero_grads([x])
    with Tape():
        a, b = roots(x)
        backward(ad.add(a, b))
    npt.assert_allclose(x.grad, ga + gb, rtol=1e-12)


def test_no_recording_outside_tape():
    x = parameter([1.0, 2.0])
    y = ad.mul(x, x)
    assert y._node_id is None and y._tape is None


# ---------------------------------------------------------------------------
# per-primitive gradient checks against central finite differences


UNARY_CASES = [
    ("tanh", lambda t: ad.tanh(t)),
    ("exp", lambda t: ad.exp(t)),
    ("sigmoid", lambda t: ad.sigmoid(t)),
    ("neg", lambda t: ad.neg(t)),
    ("leaky_relu", lambda t: ad.leaky_relu(t)),
    ("transpose", lambda t: ad.transpose(t)),
    ("reshape", lambda t: ad.reshape(t, (6,))),
    ("reduce_sum_ax0", lambda t: ad.reduce_sum(t, axis=0)),
    ("reduce_mean_ax1", lambda t: ad.reduce_mean(t, axis=1, keepdims=True)),
    ("slice", lambda t: t[0:2, 1:3]),
    ("clamp", lambda t: ad.clamp_min(t, 0.25)),
]


@pytest.mark.parametrize("name,op", UNARY_CASES, ids=[c[0] for c in UNARY_CASES])
def test_unary_gradients_match_fd(name, op):
    rng = np.random.default_rng(hash(name) % 2**32)
    x0 = rng.uniform(-2.0, 2.0, size=(2, 3))
    w = rng.uniform(-1.0, 1.0, size=(1,))  # random projection makes the root scalar

    def scalar_fn(t):
        return ad.reduce_sum(ad.mul(op(t), ad.as_tensor(np.full(op(Tensor(x0)).shape, w[0]))))

    g = tape_grad(scalar_fn, x0)
    fd = finite_difference_grad(lambda a: scalar_fn(Tensor(a)).data.item(), x0)
    assert_grads_close(g, fd)


@pytest.mark.parametrize("name", ["log", "sqrt"])
def test_positive_domain_gradients_match_fd(name):
    rng = np.random.default_rng(3)
    x0 = rng.uniform(0.5, 2.0, size=(2, 3))
    op = {"log": ad.log, "sqrt": ad.sqrt}[name]
    g = tape_grad(lambda t: ad.reduce_sum(op(t)), x0)
    fd = finite_difference_grad(lambda a: ad.reduce_sum(op(Tensor(a))).data.item(), x0)
    assert_grads_close(g, fd)


def test_binary_gradients_match_fd():
    rng = np.random.default_rng(11)
    a0 = rng.uniform(-2, 2, size=(3, 2))
    b0 = rng.uniform(0.5, 2.0, size=(3, 2))
    for op in (ad.add, ad.sub, ad.mul, ad.div):
        a, b = parameter(a0), parameter(b0)
        with Tape():
            backward(ad.reduce_sum(op(a, b)))
        fd_a = finite_difference_grad(lambda x: ad.reduce_sum(op(Tensor(x), Tensor(b0))).data.item(), a0)
        fd_b = finite_difference_grad(lambda x: ad.reduce_sum(op(Tensor(a0), Tensor(x))).data.item(), b0)
        assert_grads_close(a.grad, fd_a)
        assert_grads_close(b.grad, fd_b)


def test_matmul_gradients_match_fd():
    rng = np.random.default_rng(13)
    a0 = rng.uniform(-2, 2, size=(3, 4))
    b0 = rng.uniform(-2, 2, size=(4, 2))
    mask = rng.uniform(-1, 1, size=(3, 2))

    def loss_from(a, b):
        return ad.reduce_sum(ad.mul(ad.matmul(a, b), ad.as_tensor(mask)))

    a, b = parameter(a0), parameter(b0)
    with Tape():
        backward(loss_from(a, b))
    assert_grads_close(a.grad, finite_difference_grad(lambda x: loss_from(Tensor(x), Tensor(b0)).data.item(), a0))
    assert_grads_close(b.grad, finite_difference_grad(lambda x: loss_from(Tensor(a0), Tensor(x)).data.item(), b0))


def test_concat_and_broadcast_gradients_match_fd():
    rng = np.random.default_rng(17)
    a0 = rng.uniform(-2, 2, size=(2, 3))
    b0 = rng.uniform(-2, 2, size=(2, 3))
    proj = rng.uniform(-1, 1, size=(4, 3))

    def loss_from(a, b):
        joined = ad.concat([a, b], axis=0)
        scaled = ad.mul(joined, ad.broadcast_to(ad.reshape(ad.reduce_mean(a, axis=0, keepdims=True), (1, 3)), (4, 3)))
        return ad.reduce_sum(ad.mul(scaled, ad.as_tensor(proj)))

    a, b = parameter(a0), parameter(b0)
    with Tape():
        backward(loss_from(a, b))
    assert_grads_close(a.grad, finite_difference_grad(lambda x: loss_from(Tensor(x), Tensor(b0)).data.item(), a0))
    assert_grads_close(b.grad, finite_difference_grad(lambda x: loss_from(Tensor(a0), Tensor(x)).data.item(), b0))


def test_composite_graph_matches_fd():
    """A deep mixed graph exercising most primitives at once."""
    rng = np.random.default_rng(23)
    x0 = rng.uniform(-2, 2, size=(4, 4))

    def f(t):
        h = ad.tanh(ad.matmul(t, ad.transpose(t)))
        h = ad.add(h, ad.broadcast_to(ad.reduce_mean(h, axis=1, keepdims=True), (4, 4)))
        h = ad.div(h, ad.add(ad.exp(ad.reduce_mean(h)), 2.0))
        h = ad.concat([h[0:2, :], ad.leaky_relu(h[2:4, :])], axis=0)
        return ad.reduce_sum(ad.mul(h, h))

    g = tape_grad(f, x0)
    fd = finite_difference_grad(lambda a: f(Tensor(a)).data.item(), x0)
    assert_grads_close(g, fd)


def test_reused_tensor_accumulates_through_both_paths():
    x = parameter([1.5])
    with Tape():
        y = ad.mul(x, x)          # x^2
        z = ad.add(y, ad.mul(x, Tensor([3.0])))  # x^2 + 3x
        backward(ad.reduce_sum(z))
    npt.assert_allclose(x.grad, [2 * 1.5 + 3.0])
