"""Model assembly tests: shapes, branch isolation, enhancement round trips."""

import numpy as np
import pytest

from sase.autodiff import Tape, backward, reduce_sum
from sase.dsp import Spectrogram, StftConfig, istft, stft
from sase.errors import DataError
from sase.losses import cross_entropy
from sase.model import ModelConfig, enhance, forward, init_model

from helpers import check_param_gradients


def tiny_config(**kw):
    base = dict(d=16, heads=2, n_bins=33, n_speakers=3,
                main_channels=(2, 3), spk_channels=(2, 2),
                blstm_layers=2, mhsa_modules=2)
    base.update(kw)
    return ModelConfig(**base)


def spec_for(config, k, seed=0):
    rng = np.random.default_rng(seed)
    dft = 2 * (config.n_bins - 1)
    sc = StftConfig(dft, dft // 4, "blackman", dft)
    return Spectrogram(rng.normal(size=(config.n_bins, k)),
                       rng.normal(size=(config.n_bins, k)), sc)


def test_config_rejects_bad_heads():
    with pytest.raises(ValueError):
        ModelConfig(d=16, heads=3)  # 3 does not divide 8


def test_config_rejects_unknown_arch():
    with pytest.raises(ValueError):
        ModelConfig(arch="cnn-only")


def test_config_rejects_single_speaker():
    with pytest.raises(ValueError):
        ModelConfig(n_speakers=1)


def test_config_json_round_trip():
    cfg = tiny_config(arch="gru", use_spk=False)
    assert ModelConfig.from_json_dict(cfg.to_json_dict()) == cfg


@pytest.mark.parametrize("k", [1, 2, 17])
def test_shape_ledger_full(k):
    cfg = tiny_config()
    params = init_model(cfg, seed=3)
    trace = {}
    out = forward(spec_for(cfg, k), params, cfg, trace=trace)
    d, f, l = cfg.d, cfg.n_bins, cfg.n_speakers
    assert trace["C"].shape == (d, k)
    assert trace["Lambda"].shape == (d, k)
    assert trace["B"].shape == (2 * d, k)
    assert trace["Gamma"].shape == (d // 2, k)
    assert trace["M"].shape == (d // 2, k)
    assert out.mask_real.shape == (f, k)
    assert out.mask_imag.shape == (f, k)
    assert out.speaker_logits.shape == (l, k)
    assert out.posterior.shape == (l,)
    assert len(out.attention) == cfg.mhsa_modules * cfg.heads
    assert all(a.shape == (k, k) for a in out.attention)


def test_shape_ledger_published_dims():
    # D=600, H=4, F=257: one smoke frame count; the wider sweep lives in
    # the acceptance suite.
    cfg = ModelConfig(d=600, heads=4, n_bins=257, n_speakers=4)
    params = init_model(cfg, seed=0)
    trace = {}
    out = forward(spec_for(cfg, 2), params, cfg, trace=trace)
    assert trace["C"].shape == (600, 2)
    assert trace["Lambda"].shape == (600, 2)
    assert trace["B"].shape == (1200, 2)
    assert trace["Gamma"].shape == (300, 2)
    assert trace["M"].shape == (300, 2)
    assert out.mask_real.shape == (257, 2)
    assert out.posterior.shape == (4,)


def test_posterior_is_pool_then_softmax():
    cfg = tiny_config()
    params = init_model(cfg, seed=5)
    out = forward(spec_for(cfg, 6), params, cfg)
    pooled = out.speaker_logits.data.mean(axis=1)
    expected = np.exp(pooled - pooled.max())
    expected /= expected.sum()
    np.testing.assert_allclose(out.posterior.data, expected, atol=1e-12)
    assert abs(out.posterior.data.sum() - 1.0) < 1e-12


def test_mhsa_path_ignores_speaker_branch():
    # Perturbing every SPK parameter may change B (the BLSTM sees Lambda)
    # but must leave the attention output M bit-identical.
    cfg = tiny_config()
    params = init_model(cfg, seed=7)
    spec = spec_for(cfg, 5)
    base = {}
    forward(spec, params, cfg, trace=base)
    rng = np.random.default_rng(1)
    for name, p in params.items():
        if name.startswith(("spk_cnn.", "spk_rnn.", "spk_head.")):
            p.data = p.data + rng.normal(size=p.shape)
    bumped = {}
    forward(spec, params, cfg, trace=bumped)
    assert np.array_equal(base["M"], bumped["M"])
    assert np.array_equal(base["C"], bumped["C"])
    assert not np.array_equal(base["B"], bumped["B"])


def test_ce_gradient_never_reaches_mhsa():
    cfg = tiny_config()
    params = init_model(cfg, seed=9)
    with Tape():
        out = forward(spec_for(cfg, 4), params, cfg)
        loss = cross_entropy(1, out.posterior)
        grads = backward(loss)
    touched = {p: g for p, g in grads.items()}
    for name, p in params.items():
        if name.startswith(("mhsa", "main_rnn.", "mask_head.", "main_cnn.")):
            assert p not in touched, f"CE gradient leaked into {name}"
    assert params["spk_head.w"] in touched
    assert params["spk_cnn.conv1.w"] in touched


def test_missing_parameter_is_reported():
    cfg = tiny_config()
    params = init_model(cfg, seed=0)
    del params["mask_head.w"]
    with pytest.raises(DataError):
        forward(spec_for(cfg, 3), params, cfg)


def test_wrong_bin_count_is_reported():
    cfg = tiny_config()
    params = init_model(cfg, seed=0)
    other = tiny_config(n_bins=9)
    with pytest.raises(DataError):
        forward(spec_for(other, 3), params, cfg)


def test_forward_is_deterministic():
    cfg = tiny_config()
    params = init_model(cfg, seed=2)
    spec = spec_for(cfg, 4)
    a = forward(spec, params, cfg)
    b = forward(spec, params, cfg)
    assert np.array_equal(a.mask_real.data, b.mask_real.data)
    assert np.array_equal(a.posterior.data, b.posterior.data)


def test_lite_arch_shapes():
    cfg = tiny_config(arch="gru")
    params = init_model(cfg, seed=4)
    assert not any(n.startswith(("main_cnn.", "mhsa", "spk_cnn.")) for n in params)
    trace = {}
    out = forward(spec_for(cfg, 7), params, cfg, trace=trace)
    assert trace["Lambda"].shape == (cfg.d, 7)
    assert trace["B"].shape == (2 * cfg.d, 7)
    assert out.mask_real.shape == (cfg.n_bins, 7)
    assert out.posterior.shape == (cfg.n_speakers,)
    assert out.attention == []


def test_lite_arch_without_spk():
    cfg = tiny_config(arch="gru", use_spk=False)
    params = init_model(cfg, seed=4)
    assert not any(n.startswith(("spk_rnn.", "spk_head.")) for n in params)
    out = forward(spec_for(cfg, 3), params, cfg)
    assert out.posterior is None and out.aux is None
    assert out.mask_real.shape == (cfg.n_bins, 3)


def test_full_arch_without_spk():
    cfg = tiny_config(use_spk=False)
    params = init_model(cfg, seed=4)
    trace = {}
    out = forward(spec_for(cfg, 5), params, cfg, trace=trace)
    assert out.posterior is None
    assert trace["B"].shape == (2 * cfg.d, 5)
    assert "Lambda" not in trace


def test_enhance_applies_predicted_mask():
    cfg = ModelConfig(d=16, heads=2, n_bins=257, n_speakers=3, arch="gru",
                      use_spk=False)
    params = init_model(cfg, seed=1)
    x = np.random.default_rng(10).normal(scale=0.2, size=3000)
    sc = StftConfig()
    y, out = enhance(x, params, cfg, sc)
    spec = stft(x, sc)
    mask = out.mask
    ref_re = mask.real * spec.real - mask.imag * spec.imag
    ref_im = mask.real * spec.imag + mask.imag * spec.real
    ref = istft(Spectrogram(ref_re, ref_im, sc), sc, x.size)
    np.testing.assert_allclose(y, ref, atol=1e-12)


def test_full_forward_gradients_match_finite_differences():
    cfg = ModelConfig(d=8, heads=2, n_bins=9, n_speakers=2,
                      main_channels=(2, 3), spk_channels=(2, 2),
                      blstm_layers=2, mhsa_modules=1)
    params = init_model(cfg, seed=6)
    spec = spec_for(cfg, 3, seed=11)
    rng = np.random.default_rng(12)
    probe_re = rng.normal(size=(9, 3))
    probe_im = rng.normal(size=(9, 3))

    def loss_fn():
        out = forward(spec, params, cfg)
        mask_term = reduce_sum(out.mask_real * probe_re) \
            + reduce_sum(out.mask_imag * probe_im)
        return mask_term + cross_entropy(0, out.posterior)

    names = ["main_cnn.conv1.w", "main_cnn.in2.scale", "main_cnn.proj.b",
             "spk_cnn.conv2.b", "spk_rnn.l0.bw.w_h", "main_rnn.l1.fw.w_x",
             "mhsa_in.w", "mhsa0.h1.w_q", "mhsa0.w_p", "mhsa0.ffn.lin2.b",
             "mask_head.b", "spk_head.w"]
    check_param_gradients(params, loss_fn, names=names, rtol=2e-4, atol=1e-7)


def test_lite_forward_gradients_match_finite_differences():
    cfg = ModelConfig(d=6, heads=1, n_bins=9, n_speakers=2, arch="gru")
    params = init_model(cfg, seed=13)
    spec = spec_for(cfg, 4, seed=14)
    rng = np.random.default_rng(15)
    probe = rng.normal(size=(9, 4))

    def loss_fn():
        out = forward(spec, params, cfg)
        return reduce_sum(out.mask_real * probe) \
            + cross_entropy(1, out.posterior)

    names = ["spk_rnn.l0.fw.w_x", "main_rnn.l0.bw.w_h", "mask_head.w",
             "spk_head.b"]
    check_param_gradients(params, loss_fn, names=names, rtol=2e-4, atol=1e-7)
