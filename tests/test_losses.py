"""Loss and metric oracles (closed forms frozen as literals)."""

import numpy as np
import pytest

from sase.autodiff import Tensor
from sase.errors import DataError, ShapeError
from sase.losses import (
    NOISY_BASELINE_FULL_CORPUS_DB,
    LossBreakdown,
    LossConfig,
    clip,
    cross_entropy,
    multitask_loss,
    sdr,
    sdr_loss,
    si_sdr,
)

from helpers import check_param_gradients


# ---------------------------------------------------------------------------
# clip

def test_clip_zero_is_zero():
    assert float(clip(Tensor(np.zeros(())), 20.0).data) == 0.0


def test_clip_frozen_value():
    # 20 * tanh(10/20) = 9.2423431452001948
    out = float(clip(Tensor(np.array(10.0)), 20.0).data)
    assert abs(out - 9.2423431452001948) < 1e-12


def test_clip_saturates_at_beta():
    out = float(clip(Tensor(np.array(1e6)), 20.0).data)
    assert abs(out - 20.0) < 1e-9


def test_clip_odd_monotone_bounded():
    xs = np.linspace(-80, 80, 401)
    ys = np.array([float(clip(Tensor(np.array(v)), 20.0).data) for v in xs])
    np.testing.assert_allclose(ys, -ys[::-1], atol=1e-12)  # odd
    assert (np.diff(ys) > 0).all()  # strictly monotone
    assert np.abs(ys).max() < 20.0  # bounded


def test_clip_unit_slope_at_origin():
    h = 1e-6
    fd = (float(clip(Tensor(np.array(h)), 20.0).data)
          - float(clip(Tensor(np.array(-h)), 20.0).data)) / (2 * h)
    assert abs(fd - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# sdr

def test_sdr_half_amplitude():
    rng = np.random.default_rng(0)
    s = rng.normal(size=1000)
    out = float(sdr(Tensor(s), Tensor(s / 2)).data)
    assert abs(out - 6.020599913279624) < 1e-6


def test_sdr_sign_flip():
    rng = np.random.default_rng(1)
    s = rng.normal(size=1000)
    out = float(sdr(Tensor(s), Tensor(-s)).data)
    assert abs(out + 6.020599913279624) < 1e-6


def test_sdr_perfect_estimate_is_huge():
    rng = np.random.default_rng(2)
    s = 0.3 * rng.normal(size=16000)
    out = float(sdr(Tensor(s), Tensor(s.copy())).data)
    energy = float(np.dot(s, s))
    assert abs(out - 10 * np.log10(energy / 1e-8)) < 1e-9
    assert out > 100


def test_sdr_zero_reference_rejected():
    with pytest.raises(DataError):
        sdr(Tensor(np.zeros(10)), Tensor(np.ones(10)))


def test_sdr_length_mismatch_rejected():
    with pytest.raises(ShapeError):
        sdr(Tensor(np.ones(10)), Tensor(np.ones(9)))


# ---------------------------------------------------------------------------
# sdr_loss

def test_perfect_separation_saturates_to_minus_beta():
    rng = np.random.default_rng(3)
    s = 0.3 * rng.normal(size=16000)
    n = 0.3 * rng.normal(size=16000)
    x = s + n
    loss, _, _ = sdr_loss(Tensor(s), Tensor(s.copy()), Tensor(x), beta=20.0)
    assert abs(float(loss.data) + 20.0) < 1e-3


def test_passthrough_estimate_is_finite():
    rng = np.random.default_rng(4)
    s = rng.normal(size=2000)
    n = rng.normal(size=2000)
    x = s + n
    loss, term_s, term_n = sdr_loss(Tensor(s), Tensor(x.copy()), Tensor(x), 20.0)
    assert np.isfinite(float(loss.data))
    # m = x - y = 0, so the noise term is SDR(n, 0) ~ 0 dB clipped
    assert abs(term_n) < 1.0


def test_sdr_loss_strictly_inside_beta():
    rng = np.random.default_rng(5)
    for _ in range(50):
        s = rng.normal(size=300)
        n = rng.normal(size=300)
        y = rng.normal(size=300)
        loss, _, _ = sdr_loss(Tensor(s), Tensor(y), Tensor(s + n), 20.0)
        assert abs(float(loss.data)) < 20.0


def test_sdr_loss_degenerate_references_named():
    ones = Tensor(np.ones(100))
    with pytest.raises(DataError, match="speech"):
        sdr_loss(Tensor(np.zeros(100)), ones, ones, 20.0)
    with pytest.raises(DataError, match="noise"):
        sdr_loss(ones, ones, ones, 20.0)  # x == s makes n zero


def test_sdr_loss_gradient_matches_fd():
    rng = np.random.default_rng(6)
    s = rng.normal(size=40)
    n = rng.normal(size=40)
    params = {"y": Tensor(rng.normal(size=40), requires_grad=True)}

    def forward():
        loss, _, _ = sdr_loss(Tensor(s), params["y"], Tensor(s + n), 20.0)
        return loss

    check_param_gradients(params, forward)


# ---------------------------------------------------------------------------
# cross entropy

def test_ce_uniform_is_log_n():
    out = cross_entropy(2, Tensor(np.full(4, 0.25)))
    assert abs(float(out.data) - 1.3862943611198906) < 1e-12


def test_ce_matching_onehot_is_zero():
    out = cross_entropy(1, Tensor(np.array([0.0, 1.0, 0.0])))
    assert float(out.data) == 0.0


def test_ce_nonnegative_on_random_simplex():
    rng = np.random.default_rng(7)
    for _ in range(100):
        raw = rng.normal(size=5)
        p = np.exp(raw) / np.exp(raw).sum()
        label = int(rng.integers(5))
        assert float(cross_entropy(label, Tensor(p)).data) >= 0.0


def test_ce_floors_vanishing_posterior():
    out = cross_entropy(0, Tensor(np.array([0.0, 1.0])))
    assert abs(float(out.data) - (-np.log(1e-8))) < 1e-12


def test_ce_label_out_of_range():
    with pytest.raises(DataError):
        cross_entropy(3, Tensor(np.full(3, 1 / 3)))


# ---------------------------------------------------------------------------
# multitask

def test_alpha_zero_reduces_to_sdr_loss():
    rng = np.random.default_rng(8)
    s, n, y = rng.normal(size=(3, 200))
    posterior = Tensor(np.full(4, 0.25))
    plain, _, _ = sdr_loss(Tensor(s), Tensor(y.copy()), Tensor(s + n), 20.0)
    combo = multitask_loss(Tensor(s), Tensor(y.copy()), Tensor(s + n), 1,
                           posterior, LossConfig(alpha=0.0))
    assert float(combo.total.data) == float(plain.data)
    assert combo.cross_entropy == 0.0


def test_breakdown_recombines():
    rng = np.random.default_rng(9)
    s, n, y = rng.normal(size=(3, 200))
    raw = rng.normal(size=4)
    posterior = Tensor(np.exp(raw) / np.exp(raw).sum())
    cfg = LossConfig(alpha=0.7, beta=20.0)
    out = multitask_loss(Tensor(s), Tensor(y), Tensor(s + n), 2, posterior, cfg)
    assert isinstance(out, LossBreakdown)
    recombined = (-0.5 * (out.sdr_speech + out.sdr_noise)
                  + cfg.alpha * out.cross_entropy)
    assert abs(float(out.total.data) - recombined) < 1e-12


def test_bad_config_rejected():
    with pytest.raises(ValueError):
        LossConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        LossConfig(beta=0.0)


# ---------------------------------------------------------------------------
# si-sdr

def test_si_sdr_scale_invariance_saturates():
    rng = np.random.default_rng(10)
    s = rng.normal(size=500)
    for c in (0.3, -2.0, 17.5):
        assert si_sdr(s, c * s) == 100.0


def test_si_sdr_orthogonal_tenth_energy():
    rng = np.random.default_rng(11)
    s = rng.normal(size=1000)
    e = rng.normal(size=1000)
    e -= (np.dot(e, s) / np.dot(s, s)) * s  # project out s
    e *= np.sqrt(np.dot(s, s) / 10.0 / np.dot(e, e))
    assert abs(si_sdr(s, s + e) - 10.0) < 0.01


def test_si_sdr_gain_invariance():
    rng = np.random.default_rng(12)
    s = rng.normal(size=400)
    y = rng.normal(size=400)
    assert abs(si_sdr(s, y) - si_sdr(s, 2.7 * y)) < 1e-9


def test_si_sdr_orthogonal_estimate_sentinel():
    s = np.array([1.0, 0.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0, 0.0])
    assert si_sdr(s, y) == -100.0


def test_si_sdr_zero_reference_rejected():
    with pytest.raises(DataError):
        si_sdr(np.zeros(10), np.ones(10))


def test_documented_full_corpus_baseline():
    assert NOISY_BASELINE_FULL_CORPUS_DB == 5.96
