"""STFT analysis/synthesis, complex masking, and input features.

Analysis reflect-pads half a window at each end so frame centers tile the
signal, then right-pads so hops divide evenly. Synthesis overlap-adds with
the least-squares (canonical dual) window of the Blackman analysis window,
then divides by the achieved window envelope, which makes the round trip
exact to machine precision even at the edges where frame coverage is
partial.

Synthesis is built from tape primitives (``istft_tensors``) so the mask
can be trained through the waveform-domain loss; ``istft`` runs the same
primitives on a Spectrogram, which records nothing outside a Tape.
"""

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.signal

from .autodiff import Tensor, _record, as_tensor, concat, div, mul
from .errors import DataError, ShapeError

EPS = 1e-8


@dataclass(frozen=True)
class StftConfig:
    dft_size: int = 512
    hop: int = 128
    window_kind: str = "blackman"
    window_length: int = 512

    def __post_init__(self):
        if self.window_kind != "blackman":
            raise ValueError(f"unsupported window kind {self.window_kind!r}")
        if self.dft_size < self.window_length:
            raise ValueError(f"dft_size {self.dft_size} < window_length"
                             f" {self.window_length}")
        if self.dft_size % 2 != 0:
            raise ValueError("dft_size must be even")
        if self.window_length % self.hop != 0 or self.window_length < 2 * self.hop:
            raise ValueError(f"window_length {self.window_length} must be a"
                             f" multiple of hop {self.hop}, at least 2 hops")

    @property
    def n_bins(self):
        return self.dft_size // 2 + 1

    @property
    def pad(self):
        return self.window_length // 2


@dataclass
class Spectrogram:
    real: np.ndarray
    imag: np.ndarray
    config: StftConfig = field(default_factory=StftConfig)

    def __post_init__(self):
        self.real = np.asarray(self.real, dtype=np.float64)
        self.imag = np.asarray(self.imag, dtype=np.float64)
        if self.real.shape != self.imag.shape:
            raise ShapeError("spectrogram", self.real.shape, self.imag.shape)

    @property
    def shape(self):
        return self.real.shape


@dataclass
class ComplexMask:
    real: np.ndarray
    imag: np.ndarray

    def __post_init__(self):
        self.real = np.asarray(self.real, dtype=np.float64)
        self.imag = np.asarray(self.imag, dtype=np.float64)
        if self.real.shape != self.imag.shape:
            raise ShapeError("complex_mask", self.real.shape, self.imag.shape)


def blackman_window(length):
    """Periodic Blackman window (exact cosine sum, not the symmetric form)."""
    return scipy.signal.windows.blackman(length, sym=False)


@functools.lru_cache(maxsize=8)
def _windows_for(config):
    """(analysis, synthesis) window pair; synthesis is the canonical dual."""
    w = blackman_window(config.window_length)
    hop = config.hop
    denom = np.zeros(hop)
    for start in range(0, config.window_length, hop):
        denom += w[start:start + hop] ** 2
    ws = w / np.tile(denom, config.window_length // hop)
    return w, ws


@functools.lru_cache(maxsize=32)
def _ola_envelope(config, n_frames):
    """Sum of analysis*synthesis window products actually achieved.

    1 in the interior; < 1 near the ends where fewer frames overlap. Guarded
    where no window covers a sample at all (only sample 0, where the
    periodic Blackman is exactly zero).
    """
    w, ws = _windows_for(config)
    prod = w * ws
    length = config.window_length + (n_frames - 1) * config.hop
    env = np.zeros(length)
    for k in range(n_frames):
        env[k * config.hop:k * config.hop + config.window_length] += prod
    return np.where(env > 1e-12, env, 1.0)


def frame_count(n_samples, config=StftConfig()):
    """Number of analysis frames a signal of n_samples produces."""
    pad = config.pad
    extra = (-(n_samples + 2 * pad - config.window_length)) % config.hop
    return 1 + (n_samples + 2 * pad + extra - config.window_length) // config.hop


def _frame_signal(x, config):
    pad = config.pad
    extra = (-(x.size + 2 * pad - config.window_length)) % config.hop
    padded = np.pad(x, (pad, pad + extra), mode="reflect")
    n_frames = 1 + (padded.size - config.window_length) // config.hop
    idx = (np.arange(config.window_length)[:, None]
           + config.hop * np.arange(n_frames)[None, :])
    return padded[idx]


def stft(waveform, config=StftConfig()):
    """Analyze a 1-D signal into a one-sided F x K Spectrogram."""
    x = np.asarray(waveform, dtype=np.float64)
    if x.ndim != 1:
        raise DataError(f"stft expects a 1-D signal, got shape {x.shape}")
    if x.size < config.window_length:
        raise DataError(f"signal of {x.size} samples is shorter than one"
                        f" window ({config.window_length} samples)")
    frames = _frame_signal(x, config)
    w, _ = _windows_for(config)
    spec = np.fft.rfft(frames * w[:, None], n=config.dft_size, axis=0)
    return Spectrogram(np.ascontiguousarray(spec.real),
                       np.ascontiguousarray(spec.imag), config)


def istft(spec, config, target_length):
    """Resynthesize to exactly target_length samples."""
    if config != spec.config:
        raise DataError("istft config does not match the spectrogram's config")
    if spec.real.shape[0] != config.n_bins:
        raise ShapeError("istft", spec.real.shape, (config.n_bins, -1))
    return istft_tensors(spec.real, spec.imag, config, target_length).data


# ---------------------------------------------------------------------------
# synthesis: tape primitives, recorded only under an active Tape

def irfft_cols(re, im, dft_size):
    """Column-wise inverse real FFT of a one-sided spectrum pair.

    irfft ignores the imaginary parts of the DC and Nyquist bins, so their
    gradients are identically zero.
    """
    re, im = as_tensor(re), as_tensor(im)
    if re.shape != im.shape or re.shape[0] != dft_size // 2 + 1:
        raise ShapeError("irfft_cols", re.shape, im.shape,
                         detail=f"need {dft_size // 2 + 1} bins")
    frames = np.fft.irfft(re.data + 1j * im.data, n=dft_size, axis=0)
    scale = np.full((dft_size // 2 + 1, 1), 2.0 / dft_size)
    scale[0] = scale[-1] = 1.0 / dft_size

    def vjp(g):
        spec = np.fft.rfft(g, axis=0)
        g_re = scale * spec.real
        g_im = scale * spec.imag
        g_im[0] = g_im[-1] = 0.0
        return g_re, g_im

    return _record(frames, (re, im), vjp, "irfft_cols")


def overlap_add(frames, hop):
    """Sum window_length x K frames into a signal at the given hop."""
    frames = as_tensor(frames)
    if frames.data.ndim != 2:
        raise ShapeError("overlap_add", frames.shape)
    win, n_frames = frames.shape
    idx = np.arange(win)[:, None] + hop * np.arange(n_frames)[None, :]
    out = np.zeros(win + (n_frames - 1) * hop)
    np.add.at(out, idx, frames.data)

    return _record(out, (frames,), lambda g: (g[idx],), "overlap_add")


def istft_tensors(re, im, config, target_length):
    """Differentiable istft of a one-sided spectrum pair.

    Samples past the synthesized span are zero-filled; being constants,
    they pass no gradient back.
    """
    re, im = as_tensor(re), as_tensor(im)
    frames = irfft_cols(re, im, config.dft_size)
    if config.dft_size != config.window_length:
        frames = frames[slice(0, config.window_length), slice(None)]
    _, ws = _windows_for(config)
    n_frames = re.shape[1]
    wide = np.ascontiguousarray(
        np.broadcast_to(ws[:, None], (config.window_length, n_frames)))
    sig = overlap_add(mul(frames, Tensor(wide)), config.hop)
    env = Tensor(_ola_envelope(config, n_frames))
    sig = div(sig, env)
    span = sig.shape[0]
    end = config.pad + target_length
    out = sig[slice(config.pad, min(end, span))]
    if end > span:
        out = concat([out, Tensor(np.zeros(end - span))])
    return out


# ---------------------------------------------------------------------------
# features, normalization, masking

def log_amplitude_features(spec):
    """log(|X| + eps) per bin, as a plain F x K array."""
    return np.log(np.hypot(spec.real, spec.imag) + EPS)


def normalize_per_frequency(features, mean, var):
    """(x - mean_f) / sqrt(var_f + eps) row by row."""
    features = np.asarray(features, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    var = np.asarray(var, dtype=np.float64)
    if mean.shape != (features.shape[0],) or var.shape != mean.shape:
        raise ShapeError("normalize_per_frequency", features.shape,
                         mean.shape, var.shape)
    return (features - mean[:, None]) / np.sqrt(var[:, None] + EPS)


def compute_feature_stats(feature_grids):
    """Pooled per-frequency mean/variance over a corpus of F x K grids."""
    total = count = sq = 0.0
    for grid in feature_grids:
        grid = np.asarray(grid, dtype=np.float64)
        total = total + grid.sum(axis=1)
        sq = sq + (grid ** 2).sum(axis=1)
        count += grid.shape[1]
    if not np.ndim(total):
        raise DataError("compute_feature_stats needs at least one grid")
    mean = total / count
    var = sq / count - mean ** 2
    return mean, np.maximum(var, 0.0)


def complex_mul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi); works on arrays and Tensors alike."""
    return ar * br - ai * bi, ar * bi + ai * br


def apply_mask(spec, mask):
    """Element-wise complex product of a spectrogram with a mask."""
    if mask.real.shape != spec.real.shape:
        raise ShapeError("apply_mask", spec.real.shape, mask.real.shape)
    cr, ci = complex_mul(spec.real, spec.imag, mask.real, mask.imag)
    return Spectrogram(cr, ci, spec.config)
