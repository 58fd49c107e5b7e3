"""Differentiable layer primitives over the autodiff tape.

Frame-major convention throughout: feature maps are (channels, F, K) and
sequence features are (dim, K); a "column" is one time frame.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import (
    Tensor,
    _record,
    as_tensor,
    broadcast_to,
    exp,
    leaky_relu,
    matmul,
    reduce_sum,
    reshape,
)
from .errors import ShapeError

LEAKY_SLOPE = 0.01


def linear(x, w, b=None):
    """W x + b column-wise: (M,N) @ (N,K) -> (M,K)."""
    y = matmul(w, x)
    if b is not None:
        b = as_tensor(b)
        col = reshape(b, (b.shape[0], 1))
        y = y + broadcast_to(col, y.shape)
    return y


# ---------------------------------------------------------------------------
# convolution

def _row_band(xp, kw, sw):
    """(C, kw, F_pad, k_out) copy of the padded map: entry [c, j, r, q] is
    xp[c, r, q*sw + j], so kernel row i reads band rows i, i+sh, ..."""
    windows = sliding_window_view(xp, kw, axis=2)[:, :, ::sw]
    return np.ascontiguousarray(windows.transpose(0, 3, 1, 2))


def conv2d(x, w, b, padding=(2, 2), stride=(1, 1)):
    """Zero-padded 2-D cross-correlation.

    x: (C_in, F, K), w: (C_out, C_in, kh, kw), b: (C_out,).
    One GEMM per kernel row against a (C_in*kw, f_out*k_out) row band, so
    the working set is 1/kh of a full patch matrix. The band is rebuilt
    inside the backward closure instead of being captured, keeping tape
    memory at one padded copy per call.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim != 3 or w.data.ndim != 4 or x.shape[0] != w.shape[1]:
        raise ShapeError("conv2d", x.shape, w.shape)
    if b.shape != (w.shape[0],):
        raise ShapeError("conv2d", w.shape, b.shape, detail="bias per out-channel")
    c_out, c_in, kh, kw = w.shape
    ph, pw = padding
    sh, sw = stride
    _, f_in, k_in = x.shape
    f_out = (f_in + 2 * ph - kh) // sh + 1
    k_out = (k_in + 2 * pw - kw) // sw + 1
    if f_out < 1 or k_out < 1:
        raise ShapeError("conv2d", x.shape, w.shape, detail="kernel exceeds input")

    xp = np.pad(x.data, ((0, 0), (ph, ph), (pw, pw)))
    n = f_out * k_out
    w_rows = [w.data[:, :, i, :].reshape(c_out, c_in * kw) for i in range(kh)]
    rows = [slice(i, i + sh * (f_out - 1) + 1, sh) for i in range(kh)]

    band = _row_band(xp, kw, sw)
    out = np.repeat(b.data[:, None], n, axis=1)
    term = np.empty((c_out, n))  # GEMM outputs reuse one buffer, not kh
    for i in range(kh):
        out += np.matmul(w_rows[i], band[:, :, rows[i]].reshape(c_in * kw, n),
                         out=term)

    def vjp(g):
        g2 = g.reshape(c_out, n)
        g_w = np.empty(w.shape)
        g_xp = np.zeros_like(xp)
        col = np.empty((c_in * kw, n))
        band = _row_band(xp, kw, sw)
        for i in range(kh):
            patches = band[:, :, rows[i]].reshape(c_in * kw, n)
            g_w[:, :, i, :] = (g2 @ patches.T).reshape(c_out, c_in, kw)
            np.matmul(w_rows[i].T, g2, out=col)
            parts = col.reshape(c_in, kw, f_out, k_out)
            for j in range(kw):
                g_xp[:, rows[i], j:j + sw * (k_out - 1) + 1:sw] += parts[:, j]
        return g_xp[:, ph:ph + f_in, pw:pw + k_in], g_w, g2.sum(axis=1)

    return _record(out.reshape(c_out, f_out, k_out), (x, w, b), vjp, "conv2d")


# ---------------------------------------------------------------------------
# normalization

def _normalize(x, scale, shift, axes, eps):
    """Standardize x over ``axes``, then a per-index affine along axis 0.

    One tape node with the closed-form vjp: with x_hat the standardized
    input and g_hat = g * scale, d/dx = (g_hat - mean(g_hat)
    - x_hat * mean(g_hat * x_hat)) / sd, means taken over ``axes``.
    """
    x, scale, shift = as_tensor(x), as_tensor(scale), as_tensor(shift)
    if scale.shape != (x.shape[0],) or shift.shape != scale.shape:
        raise ShapeError("normalize", x.shape, scale.shape, shift.shape,
                         detail="affine per index of axis 0")
    col = (x.shape[0],) + (1,) * (x.data.ndim - 1)
    rest = tuple(range(1, x.data.ndim))
    a = scale.data.reshape(col)
    centered = x.data - np.mean(x.data, axis=axes, keepdims=True)
    sd = np.sqrt(np.mean(centered * centered, axis=axes, keepdims=True) + eps)
    x_hat = centered / sd

    def vjp(g):
        g_hat = g * a
        g_x = (g_hat - np.mean(g_hat, axis=axes, keepdims=True)
               - x_hat * np.mean(g_hat * x_hat, axis=axes, keepdims=True)) / sd
        return g_x, np.sum(g * x_hat, axis=rest), np.sum(g, axis=rest)

    return _record(x_hat * a + shift.data.reshape(col), (x, scale, shift),
                   vjp, "normalize")


def instance_norm(x, scale, shift, eps=1e-5):
    """Per-channel normalization over the (F,K) plane, then affine."""
    return _normalize(x, scale, shift, (1, 2), eps)


def layer_norm(x, gamma, beta, eps=1e-5):
    """Per-frame normalization over the feature axis of (N,K), then affine."""
    return _normalize(x, gamma, beta, (0,), eps)


# ---------------------------------------------------------------------------
# softmax

def softmax(x):
    """Stable softmax over the last axis."""
    x = as_tensor(x)
    # the max shift is a constant: gradient-transparent by design
    shift = Tensor(np.broadcast_to(x.data.max(axis=-1, keepdims=True),
                                   x.shape).copy())
    e = exp(x - shift)
    return e / broadcast_to(reduce_sum(e, axis=-1, keepdims=True), x.shape)


# ---------------------------------------------------------------------------
# initialization

def kaiming_uniform(rng, shape, fan_in):
    """Uniform Kaiming init with the leaky-ReLU gain."""
    gain = np.sqrt(2.0 / (1.0 + LEAKY_SLOPE ** 2))
    bound = gain * np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_linear(rng, params, prefix, out_dim, in_dim, bias=True):
    params[f"{prefix}.w"] = Tensor(kaiming_uniform(rng, (out_dim, in_dim), in_dim),
                                   requires_grad=True, name=f"{prefix}.w")
    if bias:
        params[f"{prefix}.b"] = Tensor(np.zeros(out_dim), requires_grad=True,
                                       name=f"{prefix}.b")


def init_conv(rng, params, prefix, c_out, c_in, kernel):
    kh, kw = kernel
    fan_in = c_in * kh * kw
    params[f"{prefix}.w"] = Tensor(
        kaiming_uniform(rng, (c_out, c_in, kh, kw), fan_in),
        requires_grad=True, name=f"{prefix}.w")
    params[f"{prefix}.b"] = Tensor(np.zeros(c_out), requires_grad=True,
                                   name=f"{prefix}.b")


def init_norm(rng, params, prefix, dim):
    params[f"{prefix}.scale"] = Tensor(np.ones(dim), requires_grad=True,
                                       name=f"{prefix}.scale")
    params[f"{prefix}.shift"] = Tensor(np.zeros(dim), requires_grad=True,
                                       name=f"{prefix}.shift")
