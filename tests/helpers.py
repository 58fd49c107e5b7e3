"""Shared test utilities: finite-difference probes against tape gradients,
and the composed implementations that fused primitives replaced, kept as
oracles."""

import numpy as np

from sase.autodiff import (
    Tape,
    _record,
    as_tensor,
    backward,
    broadcast_to,
    finite_difference_grad,
    reduce_mean,
    reshape,
    sqrt,
)
from sase.dsp import _ola_envelope, _windows_for


def tape_gradient(params, name, forward_fn):
    """Gradient of forward_fn() w.r.t. params[name] via the tape."""
    with Tape():
        loss = forward_fn()
        grads = backward(loss)
    g = grads.get(params[name])
    return np.zeros_like(params[name].data) if g is None else g


def fd_gradient(params, name, forward_fn, step=1e-5):
    """Central finite differences through the same forward function."""
    original = params[name].data

    def f(arr):
        params[name].data = arr
        try:
            return float(forward_fn().data)
        finally:
            params[name].data = original

    return finite_difference_grad(f, original.copy(), step=step)


def check_param_gradients(params, forward_fn, names=None, rtol=1e-4, atol=1e-7):
    """Assert tape and FD gradients agree for each named parameter."""
    for name in (names if names is not None else sorted(params)):
        if not params[name].requires_grad:
            continue
        analytic = tape_gradient(params, name, forward_fn)
        numeric = fd_gradient(params, name, forward_fn)
        err = np.max(np.abs(analytic - numeric))
        bound = atol + rtol * max(np.max(np.abs(numeric)), 1e-12)
        assert err <= bound, (f"{name}: gradient mismatch, max abs err {err:.3e}"
                              f" exceeds {bound:.3e}")


def straightline_mhsa(arrays, prefix, model_dim, heads, gamma):
    """Independent plain-numpy MHSA, written straight from the equations."""

    def ln(x, g, b, eps=1e-5):
        mu = x.mean(axis=0)
        sd = np.sqrt(((x - mu) ** 2).mean(axis=0) + eps)
        return (x - mu) / sd * g[:, None] + b[:, None]

    d = model_dim // heads
    g1 = ln(gamma, arrays[f"{prefix}.ln1.scale"], arrays[f"{prefix}.ln1.shift"])
    contexts = []
    for j in range(heads):
        q = arrays[f"{prefix}.h{j}.w_q"] @ g1
        k = arrays[f"{prefix}.h{j}.w_k"] @ g1
        v = arrays[f"{prefix}.h{j}.w_v"] @ g1
        scores = q.T @ k / np.sqrt(d)
        scores = scores - scores.max(axis=1, keepdims=True)
        a = np.exp(scores)
        a = a / a.sum(axis=1, keepdims=True)
        contexts.append(a @ v.T)
    e = (np.concatenate(contexts, axis=1) @ arrays[f"{prefix}.w_p"]).T + gamma
    e2 = ln(e, arrays[f"{prefix}.ln2.scale"], arrays[f"{prefix}.ln2.shift"])
    h = arrays[f"{prefix}.ffn.lin2.w"] @ e2 + arrays[f"{prefix}.ffn.lin2.b"][:, None]
    h = np.where(h >= 0, h, 0.01 * h)
    return (arrays[f"{prefix}.ffn.lin1.w"] @ h
            + arrays[f"{prefix}.ffn.lin1.b"][:, None])


def _patch_matrix(xp, kh, kw, sh, sw, f_out, k_out):
    """(C*kh*kw, f_out*k_out) patch matrix from the padded map."""
    c = xp.shape[0]
    r = (np.arange(f_out) * sh)[:, None] + np.arange(kh)[None, :]
    q = (np.arange(k_out) * sw)[:, None] + np.arange(kw)[None, :]
    # index arrays broadcast to (f_out, k_out, kh, kw)
    patches = xp[:, r[:, None, :, None], q[None, :, None, :]]
    patches = patches.transpose(0, 3, 4, 1, 2)  # (C, kh, kw, f_out, k_out)
    return patches.reshape(c * kh * kw, f_out * k_out)


def patch_matrix_conv2d(x, w, b, padding=(2, 2), stride=(1, 1)):
    """conv2d as one GEMM over the full patch matrix, with an ``np.add.at``
    col2im backward: the oracle for the row-band ``sase.layers.conv2d``."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    c_out, c_in, kh, kw = w.shape
    ph, pw = padding
    sh, sw = stride
    f_out = (x.shape[1] + 2 * ph - kh) // sh + 1
    k_out = (x.shape[2] + 2 * pw - kw) // sw + 1
    xp = np.pad(x.data, ((0, 0), (ph, ph), (pw, pw)))
    patches = _patch_matrix(xp, kh, kw, sh, sw, f_out, k_out)
    w2 = w.data.reshape(c_out, c_in * kh * kw)
    out = (w2 @ patches + b.data[:, None]).reshape(c_out, f_out, k_out)

    def vjp(g):
        g2 = g.reshape(c_out, f_out * k_out)
        g_w = (g2 @ patches.T).reshape(w.shape)
        col = (w2.T @ g2).reshape(c_in, kh, kw, f_out, k_out)
        g_xp = np.zeros_like(xp)
        r = (np.arange(f_out) * sh)[:, None] + np.arange(kh)[None, :]
        q = (np.arange(k_out) * sw)[:, None] + np.arange(kw)[None, :]
        np.add.at(g_xp,
                  (np.arange(c_in)[:, None, None, None, None],
                   r[None, :, None, :, None],
                   q[None, None, :, None, :]),
                  col.transpose(0, 3, 4, 1, 2))
        g_x = g_xp[:, ph:ph + x.shape[1], pw:pw + x.shape[2]]
        return g_x, g_w, g2.sum(axis=1)

    return _record(out, (x, w, b), vjp, "conv2d")


def composed_instance_norm(x, scale, shift, eps=1e-5):
    """instance_norm built from tape primitives: the fused norm's oracle."""
    x = as_tensor(x)
    c = x.shape[0]
    mu = reduce_mean(x, axis=(1, 2))
    mu_b = broadcast_to(reshape(mu, (c, 1, 1)), x.shape)
    centered = x - mu_b
    var = reduce_mean(centered * centered, axis=(1, 2))
    sd = sqrt(var + eps)
    sd_b = broadcast_to(reshape(sd, (c, 1, 1)), x.shape)
    normed = centered / sd_b
    scale_b = broadcast_to(reshape(as_tensor(scale), (c, 1, 1)), x.shape)
    shift_b = broadcast_to(reshape(as_tensor(shift), (c, 1, 1)), x.shape)
    return normed * scale_b + shift_b


def composed_layer_norm(x, gamma, beta, eps=1e-5):
    """layer_norm built from tape primitives: the fused norm's oracle."""
    x = as_tensor(x)
    n, k = x.shape
    mu = reduce_mean(x, axis=0)
    mu_b = broadcast_to(reshape(mu, (1, k)), x.shape)
    centered = x - mu_b
    var = reduce_mean(centered * centered, axis=0)
    sd = sqrt(var + eps)
    sd_b = broadcast_to(reshape(sd, (1, k)), x.shape)
    normed = centered / sd_b
    gamma_b = broadcast_to(reshape(as_tensor(gamma), (n, 1)), x.shape)
    beta_b = broadcast_to(reshape(as_tensor(beta), (n, 1)), x.shape)
    return normed * gamma_b + beta_b


def plain_istft(spec, config, target_length):
    """numpy iSTFT with an ``np.add.at`` overlap-add: the oracle for the
    tape-built ``sase.dsp.istft_tensors``."""
    frames = np.fft.irfft(spec.real + 1j * spec.imag, n=config.dft_size, axis=0)
    frames = frames[:config.window_length]
    _, ws = _windows_for(config)
    n_frames = frames.shape[1]
    sig = np.zeros(config.window_length + (n_frames - 1) * config.hop)
    idx = (np.arange(config.window_length)[:, None]
           + config.hop * np.arange(n_frames)[None, :])
    np.add.at(sig, idx, frames * ws[:, None])
    sig = sig / _ola_envelope(config, n_frames)
    out = sig[config.pad:config.pad + target_length]
    return np.pad(out, (0, target_length - out.size))
