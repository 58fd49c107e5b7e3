"""Bidirectional GRU/LSTM layers.

Input weights for all gates are fused into one matrix so the input
projection is a single matmul per sequence; the recurrent projection
stays per-step. Gate row order: GRU [r, z, n], LSTM [i, f, o, g].
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import (Tensor, as_tensor, broadcast_to, concat, matmul, reshape,
                       sigmoid, tanh)
from .errors import ShapeError


@dataclass(frozen=True)
class BiRnnSpec:
    cell: str  # "gru" | "lstm"
    input_dim: int
    hidden_dim: int  # per direction
    layers: int = 1

    def __post_init__(self):
        if self.cell not in ("gru", "lstm"):
            raise ValueError(f"unknown cell kind {self.cell!r}")
        if self.layers < 1 or self.hidden_dim < 1 or self.input_dim < 1:
            raise ValueError("BiRnnSpec dims must be positive")

    @property
    def gates(self):
        return 3 if self.cell == "gru" else 4

    @property
    def output_dim(self):
        return 2 * self.hidden_dim


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def init_birnn(rng, params, prefix, spec):
    """Orthogonal recurrent blocks per gate, uniform input weights, zero bias."""
    h = spec.hidden_dim
    for layer in range(spec.layers):
        in_dim = spec.input_dim if layer == 0 else spec.output_dim
        bound = 1.0 / np.sqrt(h)
        for direction in ("fw", "bw"):
            base = f"{prefix}.l{layer}.{direction}"
            w_x = rng.uniform(-bound, bound, size=(spec.gates * h, in_dim))
            w_h = np.concatenate([_orthogonal(rng, h) for _ in range(spec.gates)])
            params[f"{base}.w_x"] = Tensor(w_x, requires_grad=True,
                                           name=f"{base}.w_x")
            params[f"{base}.w_h"] = Tensor(w_h, requires_grad=True,
                                           name=f"{base}.w_h")
            params[f"{base}.b"] = Tensor(np.zeros(spec.gates * h),
                                         requires_grad=True, name=f"{base}.b")


def _gru_cell(at, u, carry):
    """Gates [r, z, n]; carries (h,)."""
    (state,) = carry
    h = state.shape[0]
    r = sigmoid(at[0:h] + u[0:h])
    z = sigmoid(at[h:2 * h] + u[h:2 * h])
    n = tanh(at[2 * h:3 * h] + r * u[2 * h:3 * h])
    return ((1.0 - z) * n + z * state,)


def _lstm_cell(at, u, carry):
    """Gates [i, f, o, g]; carries (h, c)."""
    _, cell = carry
    h = cell.shape[0]
    i = sigmoid(at[0:h] + u[0:h])
    f = sigmoid(at[h:2 * h] + u[h:2 * h])
    o = sigmoid(at[2 * h:3 * h] + u[2 * h:3 * h])
    g = tanh(at[3 * h:4 * h] + u[3 * h:4 * h])
    cell = f * cell + i * g
    return o * tanh(cell), cell


# cell kind -> (step, number of carried (h, 1) states)
_CELLS = {"gru": (_gru_cell, 1), "lstm": (_lstm_cell, 2)}


def _direction(x, w_x, w_h, b, reverse, cell):
    """One direction of a recurrence of the given cell kind over (in, K)
    columns; the first carried state is the output h."""
    step, n_carry = _CELLS[cell]
    gh, h = w_h.shape
    k = x.shape[1]
    a = matmul(w_x, x) + broadcast_to(reshape(b, (gh, 1)), (gh, k))
    carry = (Tensor(np.zeros((h, 1))),) * n_carry
    order = range(k - 1, -1, -1) if reverse else range(k)
    outs = [None] * k
    for t in order:
        carry = step(a[:, t:t + 1], matmul(w_h, carry[0]), carry)
        outs[t] = carry[0]
    return concat(outs, axis=1)


def birnn(x, params, prefix, spec):
    """Stacked bidirectional recurrence: (input_dim, K) -> (2*hidden, K)."""
    x = as_tensor(x)
    if x.shape[0] != spec.input_dim:
        raise ShapeError("birnn", x.shape, detail=f"expected {spec.input_dim} rows")
    out = x
    for layer in range(spec.layers):
        base = f"{prefix}.l{layer}"
        fw = _direction(out, params[f"{base}.fw.w_x"], params[f"{base}.fw.w_h"],
                        params[f"{base}.fw.b"], False, spec.cell)
        bw = _direction(out, params[f"{base}.bw.w_x"], params[f"{base}.bw.w_h"],
                        params[f"{base}.bw.b"], True, spec.cell)
        out = concat([fw, bw], axis=0)
    return out
