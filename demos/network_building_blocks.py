"""The layer zoo at a glance: conv stack, recurrences, and attention.

Feature grids flow through the network as (rows, frames) matrices. This
script pushes one grid through each building block, printing the shapes
the full model relies on, and peeks at an attention map to show it is
row-stochastic.
"""

import numpy as np

from sase.attention import MhsaSpec, init_mhsa, mhsa_module
from sase.autodiff import Tensor
from sase.layers import (conv2d, init_conv, init_linear, init_norm,
                         instance_norm, leaky_relu, linear, softmax)
from sase.rnn import BiRnnSpec, birnn, init_birnn


def main():
    rng = np.random.default_rng(0)
    f, k = 33, 12  # frequency rows, time frames
    params = {}

    # Conv stage: a 1 x F x K grid -> channels x F x K, normalized.
    init_conv(rng, params, "conv", 4, 1, (5, 5))
    init_norm(rng, params, "norm", 4)
    grid = Tensor(rng.normal(size=(1, f, k)))
    h = conv2d(grid, params["conv.w"], params["conv.b"])
    h = leaky_relu(instance_norm(h, params["norm.scale"], params["norm.shift"]))
    print("conv + instance norm:", grid.shape, "->", h.shape)

    # Recurrent stage: both directions concatenated per frame.
    spec = BiRnnSpec("lstm", input_dim=f, hidden_dim=8, layers=2)
    init_birnn(rng, params, "rnn", spec)
    x = Tensor(rng.normal(size=(f, k)))
    b = birnn(x, params, "rnn", spec)
    print("2-layer BiLSTM:", x.shape, "->", b.shape)

    gru = BiRnnSpec("gru", input_dim=f, hidden_dim=8)
    init_birnn(rng, params, "gru", gru)
    print("1-layer BiGRU:", x.shape, "->", birnn(x, params, "gru", gru).shape)

    # Attention stage: two heads over 16 rows, residual plus feed-forward.
    mspec = MhsaSpec(model_dim=16, heads=2)
    init_mhsa(rng, params, "mhsa", mspec)
    gamma = Tensor(rng.normal(size=(16, k)))
    maps = []
    out = mhsa_module(gamma, params, "mhsa", mspec, attention_sink=maps)
    print("MHSA module:", gamma.shape, "->", out.shape)
    print("attention maps collected:", len(maps), "of shape", maps[0].shape)
    print("rows sum to one:", np.allclose(maps[0].sum(axis=1), 1.0))

    # Classifier head: pooled logits through a softmax.
    init_linear(rng, params, "head", 3, 16)
    logits = linear(out, params["head.w"], params["head.b"])
    pooled = softmax(Tensor(logits.data.mean(axis=1)))
    print("speaker posterior:", np.round(pooled.data, 3),
          "sums to", float(pooled.data.sum()))


if __name__ == "__main__":
    main()
