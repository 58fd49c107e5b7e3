"""Training losses and evaluation metrics.

The training objective is a clipped two-sided SDR loss over both the
recovered speech and the implied residual noise, optionally mixed with a
speaker cross-entropy: L = -1/2 (clip[SDR(s,y)] + clip[SDR(n, x-y)])
+ alpha * CE, clip[v] = beta * tanh(v / beta). Everything here accepts
Tensors for the differentiable arguments and plain arrays elsewhere.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, as_tensor, clamp_min, log, reduce_sum, tanh
from .errors import DataError, ShapeError

EPS = 1e-8
_LOG10 = float(np.log(10.0))

# Published full-corpus noisy-mixture SI-SDR baseline (VoiceBank-DEMAND);
# desk-scale runs measure their own baseline and do not reproduce this.
NOISY_BASELINE_FULL_CORPUS_DB = 5.96


@dataclass(frozen=True)
class LossConfig:
    alpha: float = 1.0  # cross-entropy mixing weight
    beta: float = 20.0  # soft clip bound in dB

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.beta <= 0:
            raise ValueError("beta must be > 0")


@dataclass
class LossBreakdown:
    total: Tensor  # scalar tensor, differentiable
    sdr_speech: float  # clip[SDR(s, y)]
    sdr_noise: float  # clip[SDR(n, m)]
    cross_entropy: float


def clip(x, beta):
    """Soft clip: beta * tanh(x / beta); odd, bounded by +-beta."""
    x = as_tensor(x)
    return tanh(x * (1.0 / beta)) * beta


def sdr(reference, estimate):
    """10 log10(|s|^2 / (|s - y|^2 + eps)); reference must be nonzero."""
    ref = as_tensor(reference)
    est = as_tensor(estimate)
    if ref.shape != est.shape:
        raise ShapeError("sdr", ref.shape, est.shape)
    if not ref.data.any():
        raise DataError("sdr: reference signal is identically zero")
    num = float(np.dot(ref.data, ref.data))
    diff = ref - est
    den = reduce_sum(diff * diff) + EPS
    return (log(num / den)) * (10.0 / _LOG10)


def sdr_loss(s, y, x, beta):
    """Two-sided clipped SDR loss; returns (loss tensor, speech, noise)."""
    s_arr = np.asarray(s.data if isinstance(s, Tensor) else s, dtype=np.float64)
    x_arr = np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64)
    n_arr = x_arr - s_arr
    if not s_arr.any():
        raise DataError("sdr_loss: speech reference is identically zero")
    if not n_arr.any():
        raise DataError("sdr_loss: noise reference (x - s) is identically zero")
    y = as_tensor(y)
    m = Tensor(x_arr) - y
    term_speech = clip(sdr(Tensor(s_arr), y), beta)
    term_noise = clip(sdr(Tensor(n_arr), m), beta)
    loss = (term_speech + term_noise) * -0.5
    return loss, float(term_speech.data), float(term_noise.data)


def cross_entropy(label, posterior, eps=EPS):
    """-log posterior[label], floored at eps so CE stays finite and >= 0."""
    posterior = as_tensor(posterior)
    n = posterior.shape[0]
    if not 0 <= label < n:
        raise DataError(f"label {label} out of range for {n} classes")
    p = posterior[slice(label, label + 1)].reshape(())
    return -log(clamp_min(p, eps))


def multitask_loss(s, y, x, label, posterior, config):
    """L = L_SDR + alpha * CE; posterior=None drops the CE term."""
    loss, term_speech, term_noise = sdr_loss(s, y, x, config.beta)
    if posterior is not None and config.alpha > 0:
        ce = cross_entropy(label, posterior)
        loss = loss + ce * config.alpha
        ce_value = float(ce.data)
    else:
        ce_value = 0.0
    return LossBreakdown(total=loss, sdr_speech=term_speech,
                         sdr_noise=term_noise, cross_entropy=ce_value)


def si_sdr(reference, estimate):
    """Scale-invariant SDR in dB, saturated to [-100, 100]."""
    s = np.asarray(reference, dtype=np.float64)
    y = np.asarray(estimate, dtype=np.float64)
    if s.shape != y.shape:
        raise ShapeError("si_sdr", s.shape, y.shape)
    s_energy = float(np.dot(s, s))
    if s_energy == 0.0:
        raise DataError("si_sdr: reference signal is identically zero")
    scale = float(np.dot(y, s)) / s_energy
    target = scale * s
    target_energy = float(np.dot(target, target))
    if target_energy == 0.0:
        return -100.0
    error_energy = float(np.dot(y - target, y - target))
    if error_energy == 0.0:
        return 100.0
    return float(np.clip(10.0 * np.log10(target_energy / error_energy),
                         -100.0, 100.0))
