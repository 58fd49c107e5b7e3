"""Multi-head self-attention over time frames.

One module: pre-norm attention with a residual from the raw input, a
second layer norm, then a pointwise feed-forward WITHOUT residual - the
feed-forward output IS the module output, so zero FFN weights zero the
module. Per-head projections are stored separately (d x Dm each) to stay
checkable against the defining equations.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import as_tensor, concat, leaky_relu, matmul, transpose
from .errors import ShapeError
from .layers import Tensor, init_linear, init_norm, layer_norm, linear, softmax


@dataclass(frozen=True)
class MhsaSpec:
    model_dim: int  # D/2 in the surrounding network
    heads: int

    def __post_init__(self):
        if self.model_dim % self.heads != 0:
            raise ValueError(f"heads {self.heads} must divide model_dim"
                             f" {self.model_dim}")

    @property
    def head_dim(self):
        return self.model_dim // self.heads

    @property
    def ffn_dim(self):
        # 3D/2 where model_dim is D/2
        return 3 * self.model_dim


def init_mhsa(rng, params, prefix, spec):
    dm, d = spec.model_dim, spec.head_dim
    bound = np.sqrt(3.0 / dm)
    for j in range(spec.heads):
        for which in ("w_q", "w_k", "w_v"):
            name = f"{prefix}.h{j}.{which}"
            params[name] = Tensor(rng.uniform(-bound, bound, size=(d, dm)),
                                  requires_grad=True, name=name)
    params[f"{prefix}.w_p"] = Tensor(rng.uniform(-bound, bound, size=(dm, dm)),
                                     requires_grad=True, name=f"{prefix}.w_p")
    init_norm(rng, params, f"{prefix}.ln1", dm)
    init_norm(rng, params, f"{prefix}.ln2", dm)
    init_linear(rng, params, f"{prefix}.ffn.lin2", spec.ffn_dim, dm)
    init_linear(rng, params, f"{prefix}.ffn.lin1", dm, spec.ffn_dim)


def mhsa_attention(gamma, w_q, w_k, head_dim):
    """Row-stochastic K x K attention: softmax over d^-1/2 (W_q G)^T (W_k G)."""
    gamma = as_tensor(gamma)
    q = matmul(as_tensor(w_q), gamma)
    k = matmul(as_tensor(w_k), gamma)
    scores = matmul(transpose(q), k) * (1.0 / np.sqrt(head_dim))
    return softmax(scores)


def mhsa_module(gamma, params, prefix, spec, attention_sink=None):
    """(Dm, K) -> (Dm, K); appends per-head attention arrays to the sink."""
    gamma = as_tensor(gamma)
    if gamma.shape[0] != spec.model_dim:
        raise ShapeError("mhsa_module", gamma.shape,
                         detail=f"expected {spec.model_dim} rows")
    g1 = layer_norm(gamma, params[f"{prefix}.ln1.scale"],
                    params[f"{prefix}.ln1.shift"])
    contexts = []
    for j in range(spec.heads):
        w_q = params[f"{prefix}.h{j}.w_q"]
        w_k = params[f"{prefix}.h{j}.w_k"]
        w_v = params[f"{prefix}.h{j}.w_v"]
        attn = mhsa_attention(g1, w_q, w_k, spec.head_dim)
        if attention_sink is not None:
            attention_sink.append(attn.data.copy())
        contexts.append(matmul(attn, transpose(matmul(w_v, g1))))  # (K, d)
    stacked = concat(contexts, axis=1)
    projected = transpose(matmul(stacked, params[f"{prefix}.w_p"]))
    e = projected + gamma  # residual from the raw, pre-norm input
    e2 = layer_norm(e, params[f"{prefix}.ln2.scale"], params[f"{prefix}.ln2.shift"])
    hidden = leaky_relu(linear(e2, params[f"{prefix}.ffn.lin2.w"],
                               params[f"{prefix}.ffn.lin2.b"]))
    return linear(hidden, params[f"{prefix}.ffn.lin1.w"],
                  params[f"{prefix}.ffn.lin1.b"])
