"""STFT analysis/synthesis oracles.

The window and spectral-leakage expectations are frozen from closed forms:
the periodic Blackman window w[n] = 0.42 - 0.5 cos(2 pi n/N) + 0.08 cos(4 pi n/N)
has a 5-point DFT support N*[0.42, -0.25, 0.04] (bins 0, +-1, +-2), so a
sinusoid at an exact bin center puts fraction
(0.42^2 + 2*0.25^2) / (0.42^2 + 2*0.25^2 + 2*0.04^2) ~= 0.9895
of its frame energy inside +-1 bin.
"""

import numpy as np
import pytest

from sase.autodiff import Tape, Tensor, backward, finite_difference_grad, reduce_sum
from sase.dsp import (
    ComplexMask,
    Spectrogram,
    StftConfig,
    apply_mask,
    blackman_window,
    complex_mul,
    compute_feature_stats,
    istft,
    istft_tensors,
    log_amplitude_features,
    normalize_per_frequency,
    stft,
)
from sase.errors import DataError, ShapeError

from helpers import plain_istft


CFG = StftConfig()
TINY = StftConfig(dft_size=16, hop=4, window_length=16)


# ---------------------------------------------------------------------------
# window

def test_blackman_matches_closed_form():
    n = np.arange(512)
    w = 0.42 - 0.5 * np.cos(2 * np.pi * n / 512) + 0.08 * np.cos(4 * np.pi * n / 512)
    np.testing.assert_allclose(blackman_window(512), w, atol=1e-14)


def test_blackman_frozen_points():
    w = blackman_window(512)
    assert abs(w[0]) < 1e-15
    assert abs(w[256] - 1.0) < 1e-15
    assert abs(w[128] - 0.34) < 1e-15


# ---------------------------------------------------------------------------
# config validation

def test_config_rejects_bad_overlap():
    with pytest.raises(ValueError):
        StftConfig(hop=384)  # window/hop < 2
    with pytest.raises(ValueError):
        StftConfig(hop=100)  # hop does not divide window


def test_config_rejects_small_dft():
    with pytest.raises(ValueError):
        StftConfig(dft_size=256, window_length=512)


def test_config_rejects_unknown_window():
    with pytest.raises(ValueError):
        StftConfig(window_kind="hann")


# ---------------------------------------------------------------------------
# stft

def test_zero_waveform_gives_zero_spectrogram():
    spec = stft(np.zeros(4096), CFG)
    assert spec.real.shape == spec.imag.shape == (257, spec.real.shape[1])
    assert not spec.real.any() and not spec.imag.any()


def test_frame_count_formula():
    # 16000 samples, reflect-padded by 256 each side: (16512-512)/128 = 125.
    spec = stft(np.zeros(16000), CFG)
    assert spec.real.shape == (257, 126)


def test_too_short_input_names_minimum():
    with pytest.raises(DataError, match="512"):
        stft(np.zeros(100), CFG)


def test_sinusoid_concentrates_at_its_bin():
    # bin 40 of a 512-point DFT: exactly 40 cycles per window.
    n = np.arange(4096)
    x = np.sin(2 * np.pi * 40 * n / 512)
    spec = stft(x, CFG)
    power = spec.real ** 2 + spec.imag ** 2
    interior = power[:, 4:-4]
    frac = interior[39:42].sum(axis=0) / interior.sum(axis=0)
    assert np.argmax(interior.sum(axis=1)) == 40
    assert frac.min() >= 0.95


def test_impulse_at_frame_center_is_flat():
    # An impulse at window offset 256 of frame k scales every bin by
    # w[256] = 1, so that frame's magnitude is exactly flat.
    x = np.zeros(4096)
    x[1280] = 1.0  # frame 10 center: 10*128 + 256 - pad(256)
    spec = stft(x, CFG)
    mag = np.hypot(spec.real, spec.imag)
    np.testing.assert_allclose(mag[:, 10], 1.0, atol=1e-12)


def test_dc_signal_shows_window_dft_magnitude():
    # The Fourier dual of the impulse case: a constant signal makes each
    # interior frame the raw window, so bin magnitudes equal |DFT(w)|:
    # 512*[0.42, 0.25, 0.04, 0, ...].
    x = np.ones(4096)
    spec = stft(x, CFG)
    mag = np.hypot(spec.real, spec.imag)
    expect = np.abs(np.fft.rfft(blackman_window(512)))
    np.testing.assert_allclose(mag[:, 10], expect, atol=1e-9)
    np.testing.assert_allclose(expect[:3], [0.42 * 512, 0.25 * 512, 0.04 * 512],
                               atol=1e-9)


# ---------------------------------------------------------------------------
# istft

@pytest.mark.parametrize("n", [512, 1000, 4096, 7777, 16000])
def test_roundtrip_identity(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n)
    y = istft(stft(x, CFG), CFG, n)
    assert y.shape == (n,)
    assert np.max(np.abs(y - x)) < 1e-10 * np.max(np.abs(x))


def test_roundtrip_tiny_config():
    rng = np.random.default_rng(5)
    x = rng.normal(size=50)
    y = istft(stft(x, TINY), TINY, 50)
    assert np.max(np.abs(y - x)) < 1e-12


def test_zero_spec_gives_zero_waveform():
    spec = stft(np.zeros(1024), CFG)
    assert not istft(spec, CFG, 1024).any()


def test_istft_linearity():
    rng = np.random.default_rng(6)
    s1 = stft(rng.normal(size=2000), CFG)
    s2 = stft(rng.normal(size=2000), CFG)
    mixed = Spectrogram(0.7 * s1.real - 1.3 * s2.real,
                        0.7 * s1.imag - 1.3 * s2.imag, CFG)
    lhs = istft(mixed, CFG, 2000)
    rhs = 0.7 * istft(s1, CFG, 2000) - 1.3 * istft(s2, CFG, 2000)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_istft_config_mismatch_rejected():
    spec = stft(np.zeros(1024), CFG)
    with pytest.raises(DataError):
        istft(spec, StftConfig(hop=256), 1024)


def test_istft_pads_to_long_target():
    # Samples past the original signal hold the resynthesized reflect
    # padding; only positions beyond the synthesized span are zero-filled.
    x = np.sin(np.arange(1024) * 0.01)
    y = istft(stft(x, CFG), CFG, 1500)
    assert y.shape == (1500,)
    np.testing.assert_allclose(y[:1024], x, atol=1e-10)
    assert not y[1280:].any()


# ---------------------------------------------------------------------------
# differentiable istft path

def test_istft_tensors_matches_plain_istft():
    rng = np.random.default_rng(7)
    x = rng.normal(size=3000)
    spec = stft(x, CFG)
    out = istft_tensors(Tensor(spec.real), Tensor(spec.imag), CFG, 3000)
    np.testing.assert_allclose(out.data, plain_istft(spec, CFG, 3000), atol=1e-12)
    # past the synthesized span both zero-fill
    np.testing.assert_array_equal(istft(spec, CFG, 3500),
                                  plain_istft(spec, CFG, 3500))


def test_istft_tensors_gradient_matches_fd():
    rng = np.random.default_rng(8)
    re0 = rng.normal(size=(9, 6))
    im0 = rng.normal(size=(9, 6))
    target = 20
    probe = rng.normal(size=target)

    def run(re_arr, im_arr):
        out = istft_tensors(Tensor(re_arr), Tensor(im_arr), TINY, target)
        return float(out.data @ probe)

    re, im = Tensor(re0, requires_grad=True), Tensor(im0, requires_grad=True)
    with Tape():
        out = istft_tensors(re, im, TINY, target)
        loss = (out * Tensor(probe)).reshape((1, target)) @ Tensor(np.ones((target, 1)))
        grads = backward(loss.reshape(()))

    fd_re = finite_difference_grad(lambda a: run(a, im0), re0)
    fd_im = finite_difference_grad(lambda a: run(re0, a), im0)
    np.testing.assert_allclose(grads[re], fd_re, rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(grads[im], fd_im, rtol=1e-6, atol=1e-9)
    # DC and Nyquist imaginary parts never reach the signal.
    assert not grads[im][0].any() and not grads[im][-1].any()


def test_istft_tensors_zero_tail_takes_no_gradient():
    rng = np.random.default_rng(9)
    re0 = rng.normal(size=(9, 6))
    span = TINY.window_length + 5 * TINY.hop - TINY.pad  # 6 frames, past the pad
    target = span + 7
    probe = rng.normal(size=target)
    tail = np.where(np.arange(target) >= span, probe, 0.0)

    def run(re_arr, weights):
        out = istft_tensors(Tensor(re_arr), Tensor(np.zeros_like(re0)), TINY,
                            target)
        return float(out.data @ weights)

    def tape_grad(weights):
        re = Tensor(re0, requires_grad=True)
        with Tape():
            out = istft_tensors(re, Tensor(np.zeros_like(re0)), TINY, target)
            grads = backward(reduce_sum(out * Tensor(weights)))
        return out, grads[re]

    out, g_full = tape_grad(probe)
    assert out.shape == (target,) and not out.data[span:].any()
    np.testing.assert_allclose(
        g_full, finite_difference_grad(lambda a: run(a, probe), re0),
        rtol=1e-6, atol=1e-9)
    _, g_tail = tape_grad(tail)
    assert not g_tail.any()
    assert not finite_difference_grad(lambda a: run(a, tail), re0).any()


# ---------------------------------------------------------------------------
# features and normalization

def test_log_amplitude_unit_and_e():
    spec = Spectrogram(np.ones((4, 3)), np.zeros((4, 3)), CFG)
    np.testing.assert_allclose(log_amplitude_features(spec), 0.0, atol=1e-7)
    spec_e = Spectrogram(np.full((4, 3), np.e), np.zeros((4, 3)), CFG)
    np.testing.assert_allclose(log_amplitude_features(spec_e), 1.0, atol=1e-7)


def test_log_amplitude_of_silence_hits_floor():
    spec = Spectrogram(np.zeros((4, 3)), np.zeros((4, 3)), CFG)
    np.testing.assert_allclose(log_amplitude_features(spec),
                               np.log(1e-8), atol=1e-12)
    assert abs(np.log(1e-8) - (-18.420680743952367)) < 1e-12


def test_normalize_with_matching_means_is_zero():
    rng = np.random.default_rng(9)
    mean = rng.normal(size=5)
    feats = np.tile(mean[:, None], (1, 7))
    out = normalize_per_frequency(feats, mean, np.ones(5))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_normalize_zero_variance_stays_finite():
    feats = np.full((3, 4), 2.5)
    out = normalize_per_frequency(feats, np.full(3, 1.5), np.zeros(3))
    assert np.isfinite(out).all()


def test_normalize_with_exact_stats_standardizes():
    # Feature scale is large so the 1e-8 variance guard is negligible
    # against the 1e-10 tolerance.
    rng = np.random.default_rng(10)
    feats = 100.0 * rng.normal(size=(6, 400))
    mean, var = feats.mean(axis=1), feats.var(axis=1)
    out = normalize_per_frequency(feats, mean, var)
    np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.std(axis=1), 1.0, atol=1e-10)


def test_normalize_rejects_wrong_stats_shape():
    with pytest.raises(ShapeError):
        normalize_per_frequency(np.zeros((6, 4)), np.zeros(5), np.ones(5))


def test_normalization_is_invertible():
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(6, 50))
    mean, var = rng.normal(size=6), rng.uniform(0.5, 2.0, size=6)
    out = normalize_per_frequency(feats, mean, var)
    back = out * np.sqrt(var + 1e-8)[:, None] + mean[:, None]
    np.testing.assert_allclose(back, feats, atol=1e-12)


def test_compute_feature_stats_pools_over_frames():
    rng = np.random.default_rng(12)
    a, b = rng.normal(size=(5, 30)), rng.normal(size=(5, 50))
    mean, var = compute_feature_stats([a, b])
    pooled = np.concatenate([a, b], axis=1)
    np.testing.assert_allclose(mean, pooled.mean(axis=1), atol=1e-12)
    np.testing.assert_allclose(var, pooled.var(axis=1), atol=1e-12)


# ---------------------------------------------------------------------------
# masking

def test_identity_mask_preserves_spec():
    rng = np.random.default_rng(13)
    spec = Spectrogram(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), CFG)
    mask = ComplexMask(np.ones((4, 3)), np.zeros((4, 3)))
    out = apply_mask(spec, mask)
    np.testing.assert_array_equal(out.real, spec.real)
    np.testing.assert_array_equal(out.imag, spec.imag)


def test_zero_mask_silences():
    spec = Spectrogram(np.ones((4, 3)), np.ones((4, 3)), CFG)
    out = apply_mask(spec, ComplexMask(np.zeros((4, 3)), np.zeros((4, 3))))
    assert not out.real.any() and not out.imag.any()


def test_imaginary_unit_mask_rotates():
    spec = Spectrogram(np.full((2, 2), 3.0), np.zeros((2, 2)), CFG)
    out = apply_mask(spec, ComplexMask(np.zeros((2, 2)), np.ones((2, 2))))
    np.testing.assert_allclose(out.real, 0.0, atol=1e-15)
    np.testing.assert_allclose(out.imag, 3.0, atol=1e-15)


def test_mask_then_conjugate_scales_by_squared_magnitude():
    rng = np.random.default_rng(14)
    spec = Spectrogram(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), CFG)
    mr, mi = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    once = apply_mask(spec, ComplexMask(mr, mi))
    twice = apply_mask(once, ComplexMask(mr, -mi))
    scale = mr ** 2 + mi ** 2
    np.testing.assert_allclose(twice.real, spec.real * scale, atol=1e-12)
    np.testing.assert_allclose(twice.imag, spec.imag * scale, atol=1e-12)


def test_mask_shape_mismatch_rejected():
    spec = Spectrogram(np.zeros((4, 3)), np.zeros((4, 3)), CFG)
    with pytest.raises(ShapeError):
        apply_mask(spec, ComplexMask(np.zeros((4, 2)), np.zeros((4, 2))))


def test_complex_mul_on_tensors_matches_numpy():
    rng = np.random.default_rng(15)
    ar, ai = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    br, bi = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    want = (ar + 1j * ai) * (br + 1j * bi)
    cr, ci = complex_mul(Tensor(ar), Tensor(ai), Tensor(br), Tensor(bi))
    np.testing.assert_allclose(cr.data, want.real, atol=1e-12)
    np.testing.assert_allclose(ci.data, want.imag, atol=1e-12)
