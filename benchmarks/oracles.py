"""Correctness oracles computed apart from the program under test.

* ``fd_probes``: a central finite difference of the loss in each
  parameter group, along the group's tape gradient, against the tape's
  directional derivative there (the gradient's norm).
* ``resynthesize``: mask * STFT(x) back to a waveform through
  ``scipy.signal.stft``/``istft`` with a Blackman window written out
  here, not through ``sase.dsp``. The least-squares overlap-add that
  ``scipy.signal.istft`` performs is the same estimate as the program's
  dual-window synthesis divided by its envelope.
* ``si_sdr``: scale-invariant SDR from its definition.
"""

import re
import sys
import warnings

import numpy as np
import scipy.signal

# Parameter groups by name; the first matching pattern wins.
GROUPS = (
    ("norm", re.compile(r"\.(in|ln)\d\.")),
    ("conv", re.compile(r"\.conv\d\.")),
    ("projection", re.compile(r"(\.proj\.|^mhsa_in\.)")),
    ("recurrent", re.compile(r"^(spk_rnn|main_rnn)\.")),
    ("mhsa", re.compile(r"^mhsa\d")),
    ("mask_head", re.compile(r"^mask_head\.")),
    ("speaker_head", re.compile(r"^spk_head\.")),
)
FD_STEP = 1e-6
# Leaky-ReLU kinks make the difference quotient's error O(step); 1e-3
# stays well above that and well below a 1% error in any vjp.
FD_RTOL = 1e-3


def group_of(name):
    for group, pattern in GROUPS:
        if pattern.search(name):
            return group
    return "other"


def parameter_groups(params):
    groups = {}
    for name in sorted(params):
        if params[name].requires_grad:
            groups.setdefault(group_of(name), []).append(name)
    return groups


def fd_probes(loss_value, params, grads, rng):
    """One probe per parameter group; returns ``{group: (fd, tape)}``.

    ``loss_value()`` evaluates the loss at the current parameter values
    with no tape; ``grads`` maps parameter name -> tape gradient there.
    The probe runs along the group's gradient: a random direction in a
    group of many parameters sees about 1/sqrt(size) of the gradient,
    which the kinks of leaky ReLU would swamp. A group whose gradient is
    zero is probed along a random direction instead.
    """
    out = {}
    for group, names in parameter_groups(params).items():
        direction = {n: grads.get(n, np.zeros(params[n].data.shape)) for n in names}
        norm = np.sqrt(sum(np.sum(d * d) for d in direction.values()))
        if norm == 0.0:
            direction = {n: rng.standard_normal(params[n].data.shape) for n in names}
            norm = np.sqrt(sum(np.sum(d * d) for d in direction.values()))
        tape = sum(float(np.sum(grads[n] * direction[n])) / norm for n in names
                   if n in grads)
        saved = {n: params[n].data for n in names}
        values = []
        for sign in (1.0, -1.0):
            for n in names:
                params[n].data = saved[n] + sign * FD_STEP * direction[n] / norm
            values.append(loss_value())
        for n in names:
            params[n].data = saved[n]
        out[group] = ((values[0] - values[1]) / (2.0 * FD_STEP), tape)
    return out


def fd_failures(probes, label):
    bad = []
    for group, (fd, tape) in sorted(probes.items()):
        print(f"{label}: probe {group}: finite difference {fd:.9g},"
              f" tape {tape:.9g}", file=sys.stderr)
        if abs(fd - tape) > FD_RTOL * max(abs(fd), abs(tape)) + 1e-9:
            bad.append(f"{label}: gradient probe on {group}: finite difference"
                       f" {fd:.9g} vs tape {tape:.9g}")
    return bad


def blackman(length):
    """Periodic Blackman window from its cosine-sum definition."""
    n = np.arange(length)
    return (0.42 - 0.5 * np.cos(2 * np.pi * n / length)
            + 0.08 * np.cos(4 * np.pi * n / length))


def resynthesize(x, mask_real, mask_imag, dft_size, hop, window_length):
    """istft(mask * stft(x)) cropped to len(x), framed as the program frames:
    half a window of reflection at each end, right-padded to whole hops."""
    pad = window_length // 2
    extra = (-(x.size + 2 * pad - window_length)) % hop
    padded = np.pad(x, (pad, pad + extra), mode="reflect")
    w = blackman(window_length)
    kw = dict(fs=1.0, window=w, nperseg=window_length,
              noverlap=window_length - hop, nfft=dft_size)
    _, _, spec = scipy.signal.stft(padded, boundary=None, padded=False,
                                   detrend=False, return_onesided=True, **kw)
    if spec.shape != mask_real.shape:
        raise ValueError(f"mask {mask_real.shape} vs STFT {spec.shape}")
    with warnings.catch_warnings():
        # the window vanishes at padded sample 0 only, which is cropped away
        warnings.filterwarnings("ignore", message="NOLA condition failed")
        _, y = scipy.signal.istft(spec * (mask_real + 1j * mask_imag),
                                  input_onesided=True, boundary=False, **kw)
    return y[pad:pad + x.size]


def si_sdr(reference, estimate):
    s = np.asarray(reference, dtype=np.float64)
    y = np.asarray(estimate, dtype=np.float64)
    target = (np.dot(y, s) / np.dot(s, s)) * s
    error = y - target
    return 10.0 * np.log10(np.dot(target, target) / np.dot(error, error))
