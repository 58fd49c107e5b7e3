"""Layer primitives against hand and naive-loop oracles."""

import numpy as np
import pytest

from sase.autodiff import Tape, Tensor, backward, reduce_sum
from sase.errors import ShapeError
from sase.layers import (
    conv2d,
    instance_norm,
    layer_norm,
    linear,
    softmax,
)

from helpers import (
    check_param_gradients,
    composed_instance_norm,
    composed_layer_norm,
    patch_matrix_conv2d,
)


def _naive_conv2d(x, w, b, padding, stride):
    """Direct 4-loop cross-correlation; the independent oracle."""
    c_out, c_in, kh, kw = w.shape
    ph, pw = padding
    sh, sw = stride
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    f_out = (x.shape[1] + 2 * ph - kh) // sh + 1
    k_out = (x.shape[2] + 2 * pw - kw) // sw + 1
    out = np.zeros((c_out, f_out, k_out))
    for o in range(c_out):
        for i in range(f_out):
            for j in range(k_out):
                window = xp[:, i * sh:i * sh + kh, j * sw:j * sw + kw]
                out[o, i, j] = (window * w[o]).sum() + b[o]
    return out


def _value_and_grads(fn, arrays, seed):
    """fn(*arrays) and the tape gradient of <fn(*arrays), probe> w.r.t. each
    array, for a random probe drawn from ``seed``."""
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape():
        out = fn(*inputs)
        probe = np.random.default_rng(seed).normal(size=out.shape)
        grads = backward(reduce_sum(out * Tensor(probe)))
    return out.data, [grads[t] for t in inputs]


def _assert_matches_oracle(fn, oracle, arrays, seed):
    out, grads = _value_and_grads(fn, arrays, seed)
    want, want_grads = _value_and_grads(oracle, arrays, seed)
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-10)
    for got, ref in zip(grads, want_grads):
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# linear

def test_linear_identity():
    x = Tensor(np.arange(6.0).reshape(3, 2))
    out = linear(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
    np.testing.assert_array_equal(out.data, x.data)


def test_linear_zero_weight_gives_bias_columns():
    out = linear(Tensor(np.ones((4, 5))), Tensor(np.zeros((2, 4))),
                 Tensor(np.array([3.0, -1.0])))
    np.testing.assert_array_equal(out.data, np.tile([[3.0], [-1.0]], (1, 5)))


def test_linear_matches_dense_oracle():
    rng = np.random.default_rng(0)
    w, x, b = rng.normal(size=(3, 2)), rng.normal(size=(2, 5)), rng.normal(size=3)
    out = linear(Tensor(x), Tensor(w), Tensor(b))
    np.testing.assert_allclose(out.data, np.dot(w, x) + b[:, None], atol=1e-12)


def test_linear_shape_mismatch():
    with pytest.raises(ShapeError):
        linear(Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 5))))


# ---------------------------------------------------------------------------
# conv2d

def test_conv_delta_kernel_is_identity():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 6, 7))
    w = np.zeros((1, 1, 5, 5))
    w[0, 0, 2, 2] = 1.0
    out = conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(1)))
    np.testing.assert_allclose(out.data, x, atol=1e-12)


def test_conv_ones_kernel_sums_window():
    x = np.full((1, 8, 8), 2.0)
    w = np.ones((1, 1, 5, 5))
    out = conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(1)))
    np.testing.assert_allclose(out.data[0, 2:-2, 2:-2], 50.0, atol=1e-12)


@pytest.mark.parametrize("stride", [(1, 1), (2, 1), (1, 2)])
def test_conv_matches_naive_loop(stride):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 6, 5))
    w = rng.normal(size=(2, 3, 3, 3))
    b = rng.normal(size=2)
    out = conv2d(Tensor(x), Tensor(w), Tensor(b), padding=(1, 1), stride=stride)
    np.testing.assert_allclose(out.data, _naive_conv2d(x, w, b, (1, 1), stride),
                               atol=1e-12)


def test_conv_random_1x4x4_matches_naive():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 4, 4))
    w = rng.normal(size=(1, 1, 5, 5))
    b = rng.normal(size=1)
    out = conv2d(Tensor(x), Tensor(w), Tensor(b))
    np.testing.assert_allclose(out.data, _naive_conv2d(x, w, b, (2, 2), (1, 1)),
                               atol=1e-12)


@pytest.mark.parametrize("f,k", [(1, 1), (2, 3), (5, 1), (9, 8)])
def test_conv_5x5_preserves_spatial_shape(f, k):
    out = conv2d(Tensor(np.zeros((2, f, k))), Tensor(np.zeros((4, 2, 5, 5))),
                 Tensor(np.zeros(4)))
    assert out.shape == (4, f, k)


def test_conv_channel_mismatch_rejected():
    with pytest.raises(ShapeError):
        conv2d(Tensor(np.zeros((3, 4, 4))), Tensor(np.zeros((1, 2, 3, 3))),
               Tensor(np.zeros(1)))


def test_conv_gradients_match_fd():
    rng = np.random.default_rng(4)
    params = {
        "x": Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True),
        "w": Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True),
        "b": Tensor(rng.normal(size=3), requires_grad=True),
    }
    probe = rng.normal(size=(3, 5, 4))

    def forward():
        out = conv2d(params["x"], params["w"], params["b"], padding=(1, 1))
        return reduce_sum(out * Tensor(probe))

    check_param_gradients(params, forward)


CONV_CASES = [
    # (c_in, c_out, f, k, kernel, padding, stride)
    (3, 2, 7, 6, (3, 3), (1, 1), (1, 1)),
    (3, 2, 7, 6, (3, 3), (1, 1), (2, 1)),
    (3, 2, 7, 6, (3, 3), (1, 1), (1, 2)),
    (4, 3, 5, 6, (1, 1), (0, 0), (1, 1)),
    (1, 4, 9, 8, (5, 5), (2, 2), (1, 1)),
    (2, 3, 9, 1, (5, 5), (2, 2), (1, 1)),
    (2, 3, 9, 8, (5, 3), (0, 1), (2, 3)),
    (3, 2, 6, 7, (2, 4), (0, 0), (1, 1)),
]


@pytest.mark.parametrize("c_in,c_out,f,k,kernel,padding,stride", CONV_CASES)
def test_conv_matches_patch_matrix_oracle(c_in, c_out, f, k, kernel, padding,
                                          stride):
    rng = np.random.default_rng(c_in * 100 + f * 10 + k)
    arrays = (rng.normal(size=(c_in, f, k)),
              rng.normal(size=(c_out, c_in) + kernel), rng.normal(size=c_out))

    def conv(fn):
        return lambda x, w, b: fn(x, w, b, padding=padding, stride=stride)

    _assert_matches_oracle(conv(conv2d), conv(patch_matrix_conv2d), arrays,
                           seed=k)


@pytest.mark.parametrize("padding,stride", [((1, 1), (2, 1)), ((0, 0), (1, 2)),
                                            ((2, 1), (2, 2))])
def test_strided_conv_gradients_match_fd(padding, stride):
    rng = np.random.default_rng(14)
    params = {
        "x": Tensor(rng.normal(size=(2, 6, 5)), requires_grad=True),
        "w": Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True),
        "b": Tensor(rng.normal(size=3), requires_grad=True),
    }
    shape = conv2d(params["x"], params["w"], params["b"], padding=padding,
                   stride=stride).shape
    probe = rng.normal(size=shape)

    def forward():
        out = conv2d(params["x"], params["w"], params["b"], padding=padding,
                     stride=stride)
        return reduce_sum(out * Tensor(probe))

    check_param_gradients(params, forward)


def test_conv_records_one_node():
    params = [Tensor(np.ones(s), requires_grad=True)
              for s in ((2, 4, 4), (3, 2, 5, 5), (3,))]
    with Tape() as tape:
        conv2d(*params)
    assert [node.name for node in tape.nodes] == ["conv2d"]


# ---------------------------------------------------------------------------
# fused norms against the composed oracles

NORM_CASES = [
    (instance_norm, composed_instance_norm, (3, 5, 4)),
    (instance_norm, composed_instance_norm, (1, 6, 1)),
    (layer_norm, composed_layer_norm, (6, 4)),
    (layer_norm, composed_layer_norm, (5, 1)),
]


@pytest.mark.parametrize("norm,oracle,shape", NORM_CASES)
def test_norm_matches_composed_oracle(norm, oracle, shape):
    rng = np.random.default_rng(sum(shape))
    arrays = (3.0 * rng.normal(size=shape) + 1.0, rng.normal(size=shape[0]),
              rng.normal(size=shape[0]))
    _assert_matches_oracle(norm, oracle, arrays, seed=len(shape))


@pytest.mark.parametrize("norm,shape", [(instance_norm, (2, 4, 1)),
                                        (layer_norm, (7, 1))])
def test_norm_gradients_match_fd_on_single_frame(norm, shape):
    rng = np.random.default_rng(15)
    params = {
        "x": Tensor(rng.normal(size=shape), requires_grad=True),
        "scale": Tensor(rng.normal(size=shape[0]), requires_grad=True),
        "shift": Tensor(rng.normal(size=shape[0]), requires_grad=True),
    }
    probe = rng.normal(size=shape)

    def forward():
        out = norm(params["x"], params["scale"], params["shift"])
        return reduce_sum(out * Tensor(probe))

    check_param_gradients(params, forward)


@pytest.mark.parametrize("norm,shape", [(instance_norm, (2, 3, 4)),
                                        (layer_norm, (6, 4))])
def test_norm_records_one_node(norm, shape):
    with Tape() as tape:
        norm(Tensor(np.ones(shape), requires_grad=True), np.ones(shape[0]),
             np.zeros(shape[0]))
    assert len(tape) == 1


def test_norm_rejects_mismatched_affine():
    with pytest.raises(ShapeError):
        layer_norm(Tensor(np.zeros((4, 3))), Tensor(np.ones(3)),
                   Tensor(np.zeros(3)))


# ---------------------------------------------------------------------------
# instance norm

def test_instance_norm_moments():
    # input variance ~100 so the 1e-5 epsilon perturbs far below tolerance
    rng = np.random.default_rng(5)
    x = 10.0 * rng.normal(size=(3, 8, 9))
    out = instance_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)))
    flat = out.data.reshape(3, -1)
    assert np.abs(flat.mean(axis=1)).max() < 1e-10
    assert np.abs(flat.var(axis=1) - 1.0).max() < 1e-6


def test_instance_norm_constant_channel_is_damped():
    out = instance_norm(Tensor(np.full((2, 4, 4), 7.0)), Tensor(np.ones(2)),
                        Tensor(np.zeros(2)))
    assert np.abs(out.data).max() < 1e-2


def test_instance_norm_affine():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 4, 5))
    base = instance_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)))
    scaled = instance_norm(Tensor(x), Tensor(np.array([2.0, 3.0])),
                           Tensor(np.array([1.0, -1.0])))
    np.testing.assert_allclose(scaled.data[0], base.data[0] * 2.0 + 1.0, atol=1e-12)
    np.testing.assert_allclose(scaled.data[1], base.data[1] * 3.0 - 1.0, atol=1e-12)


def test_instance_norm_gradients_match_fd():
    rng = np.random.default_rng(7)
    params = {
        "x": Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True),
        "scale": Tensor(rng.normal(size=2), requires_grad=True),
        "shift": Tensor(rng.normal(size=2), requires_grad=True),
    }
    probe = rng.normal(size=(2, 3, 4))

    def forward():
        out = instance_norm(params["x"], params["scale"], params["shift"])
        return reduce_sum(out * Tensor(probe))

    check_param_gradients(params, forward)


# ---------------------------------------------------------------------------
# layer norm

def test_layer_norm_per_frame_moments():
    rng = np.random.default_rng(8)
    x = 10.0 * rng.normal(size=(64, 5))
    out = layer_norm(Tensor(x), Tensor(np.ones(64)), Tensor(np.zeros(64)))
    assert np.abs(out.data.mean(axis=0)).max() < 1e-10
    assert np.abs(out.data.var(axis=0) - 1.0).max() < 1e-6


def test_layer_norm_gradients_match_fd():
    rng = np.random.default_rng(9)
    params = {
        "x": Tensor(rng.normal(size=(6, 4)), requires_grad=True),
        "gamma": Tensor(rng.normal(size=6), requires_grad=True),
        "beta": Tensor(rng.normal(size=6), requires_grad=True),
    }
    probe = rng.normal(size=(6, 4))

    def forward():
        out = layer_norm(params["x"], params["gamma"], params["beta"])
        return reduce_sum(out * Tensor(probe))

    check_param_gradients(params, forward)


# ---------------------------------------------------------------------------
# softmax

# one vector (the speaker posterior) and one matrix (attention rows)
SOFTMAX_SHAPES = ((6,), (4, 5))


def test_softmax_uniform():
    for shape in SOFTMAX_SHAPES:
        np.testing.assert_allclose(softmax(Tensor(np.full(shape, 3.3))).data,
                                   1.0 / shape[-1], atol=1e-12)


def test_softmax_closed_form():
    out = softmax(Tensor(np.array([[0.0, np.log(3.0)], [np.log(4.0), 0.0]])))
    np.testing.assert_allclose(out.data, [[0.25, 0.75], [0.8, 0.2]], atol=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(10)
    for shape in SOFTMAX_SHAPES:
        x = rng.normal(size=shape)
        a = softmax(Tensor(x)).data
        b = softmax(Tensor(x + 123.4)).data
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_softmax_rows_stochastic():
    rng = np.random.default_rng(11)
    for shape in SOFTMAX_SHAPES:
        out = softmax(Tensor(rng.normal(size=shape) * 4))
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
        assert (out.data > 0).all() and (out.data < 1).all()


def _check_softmax_gradients(shape, seed):
    rng = np.random.default_rng(seed)
    params = {"x": Tensor(rng.normal(size=shape), requires_grad=True)}
    probe = rng.normal(size=shape)

    def forward():
        return reduce_sum(softmax(params["x"]) * Tensor(probe))

    check_param_gradients(params, forward)


def test_softmax_gradients_match_fd():
    _check_softmax_gradients((4, 5), seed=12)


def test_softmax_vec_gradients_match_fd():
    _check_softmax_gradients((6,), seed=13)
