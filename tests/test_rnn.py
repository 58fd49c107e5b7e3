"""Recurrent layers against scalar hand oracles."""

import numpy as np
import pytest

from sase.autodiff import Tensor, reduce_sum
from sase.errors import ShapeError
from sase.rnn import BiRnnSpec, _direction, birnn, init_birnn

from helpers import check_param_gradients


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def test_gru_matches_scalar_hand_trace():
    # h=1, K=2; gate rows [r, z, n]
    w_x = Tensor(np.array([[0.5], [-0.3], [0.8]]))
    w_h = Tensor(np.array([[0.2], [0.4], [-0.6]]))
    b = Tensor(np.array([0.1, -0.2, 0.3]))
    x = Tensor(np.array([[1.0, -2.0]]))

    z0 = _sigmoid(-0.3 - 0.2)
    n0 = np.tanh(0.8 + 0.3)
    h0 = (1 - z0) * n0
    r1 = _sigmoid(0.5 * -2 + 0.1 + 0.2 * h0)
    z1 = _sigmoid(-0.3 * -2 - 0.2 + 0.4 * h0)
    n1 = np.tanh(0.8 * -2 + 0.3 + r1 * (-0.6 * h0))
    h1 = (1 - z1) * n1 + z1 * h0

    out = _direction(x, w_x, w_h, b, reverse=False, cell="gru")
    np.testing.assert_allclose(out.data, [[h0, h1]], atol=1e-14)


def test_lstm_matches_scalar_hand_trace():
    # h=1, K=2; gate rows [i, f, o, g]
    w_x = Tensor(np.array([[0.4], [-0.2], [0.6], [0.3]]))
    w_h = Tensor(np.array([[0.1], [0.5], [-0.4], [0.2]]))
    b = Tensor(np.array([0.05, 0.1, -0.1, 0.2]))
    x = Tensor(np.array([[1.0, 0.5]]))

    i0 = _sigmoid(0.4 + 0.05)
    f0 = _sigmoid(-0.2 + 0.1)
    o0 = _sigmoid(0.6 - 0.1)
    g0 = np.tanh(0.3 + 0.2)
    c0 = i0 * g0
    h0 = o0 * np.tanh(c0)
    i1 = _sigmoid(0.4 * 0.5 + 0.05 + 0.1 * h0)
    f1 = _sigmoid(-0.2 * 0.5 + 0.1 + 0.5 * h0)
    o1 = _sigmoid(0.6 * 0.5 - 0.1 - 0.4 * h0)
    g1 = np.tanh(0.3 * 0.5 + 0.2 + 0.2 * h0)
    c1 = f1 * c0 + i1 * g1
    h1 = o1 * np.tanh(c1)

    out = _direction(x, w_x, w_h, b, reverse=False, cell="lstm")
    np.testing.assert_allclose(out.data, [[h0, h1]], atol=1e-14)


def _tied_params(rng, spec, prefix):
    """Both directions share weights so reversal symmetry is exact."""
    params = {}
    init_birnn(rng, params, prefix, spec)
    for layer in range(spec.layers):
        for suffix in ("w_x", "w_h", "b"):
            fw = params[f"{prefix}.l{layer}.fw.{suffix}"]
            params[f"{prefix}.l{layer}.bw.{suffix}"] = fw
    return params


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_time_reversal_symmetry(cell):
    rng = np.random.default_rng(20)
    spec = BiRnnSpec(cell, input_dim=3, hidden_dim=2)
    params = _tied_params(rng, spec, "r")
    x = rng.normal(size=(3, 6))

    fwd = birnn(Tensor(x), params, "r", spec).data
    rev = birnn(Tensor(x[:, ::-1].copy()), params, "r", spec).data
    swapped = np.concatenate([fwd[2:], fwd[:2]], axis=0)
    np.testing.assert_allclose(rev, swapped[:, ::-1], atol=1e-12)


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_single_frame_sequence(cell):
    rng = np.random.default_rng(21)
    spec = BiRnnSpec(cell, input_dim=4, hidden_dim=3)
    params = _tied_params(rng, spec, "r")
    out = birnn(Tensor(rng.normal(size=(4, 1))), params, "r", spec)
    assert out.shape == (6, 1)
    # tied weights on one frame: both directions compute the same state
    np.testing.assert_allclose(out.data[:3], out.data[3:], atol=1e-14)


@pytest.mark.parametrize("layers", [1, 2])
def test_output_dim_is_twice_hidden(layers):
    rng = np.random.default_rng(22)
    spec = BiRnnSpec("gru", input_dim=5, hidden_dim=4, layers=layers)
    params = {}
    init_birnn(rng, params, "r", spec)
    out = birnn(Tensor(rng.normal(size=(5, 7))), params, "r", spec)
    assert out.shape == (8, 7)


def test_input_dim_mismatch_rejected():
    rng = np.random.default_rng(23)
    spec = BiRnnSpec("gru", input_dim=5, hidden_dim=4)
    params = {}
    init_birnn(rng, params, "r", spec)
    with pytest.raises(ShapeError):
        birnn(Tensor(np.zeros((4, 7))), params, "r", spec)


def test_bad_spec_rejected():
    with pytest.raises(ValueError):
        BiRnnSpec("rnn", input_dim=4, hidden_dim=4)


def test_recurrent_init_is_orthogonal():
    rng = np.random.default_rng(24)
    spec = BiRnnSpec("lstm", input_dim=3, hidden_dim=5)
    params = {}
    init_birnn(rng, params, "r", spec)
    w_h = params["r.l0.fw.w_h"].data
    for gate in range(4):
        block = w_h[gate * 5:(gate + 1) * 5]
        np.testing.assert_allclose(block @ block.T, np.eye(5), atol=1e-12)
    assert not params["r.l0.fw.b"].data.any()


@pytest.mark.parametrize("cell,layers", [("gru", 1), ("gru", 2), ("lstm", 1)])
def test_birnn_gradients_match_fd(cell, layers):
    rng = np.random.default_rng(25)
    spec = BiRnnSpec(cell, input_dim=3, hidden_dim=2, layers=layers)
    params = {}
    init_birnn(rng, params, "r", spec)
    x = Tensor(rng.normal(size=(3, 4)))
    probe = Tensor(rng.normal(size=(4, 4)))

    def forward():
        return reduce_sum(birnn(x, params, "r", spec) * probe)

    check_param_gradients(params, forward)
