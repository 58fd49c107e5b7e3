"""Network assembly: mask estimation with an auxiliary speaker branch.

Two architectures share the heads and the feature pipeline:

- "full": CNN encoder -> {SPK branch, BLSTM stack, MHSA stack} -> mask
  head on concat(B, M). The MHSA path sees only the encoder output, never
  the speaker feature.
- "gru": the reduced verification layout; CNNs and MHSA removed, each
  recurrent stack replaced by a single bidirectional GRU layer, the mask
  head reading the main GRU alone.

The speaker feature Lambda keeps the D x K shape in both layouts (main
recurrent output 2D x K), so heads are interchangeable between them.
"""

from dataclasses import dataclass, field

import numpy as np

from .attention import MhsaSpec, init_mhsa, mhsa_module
from .autodiff import Tensor, concat, reduce_mean, reshape
from .dsp import (
    ComplexMask,
    StftConfig,
    apply_mask,
    istft,
    log_amplitude_features,
    normalize_per_frequency,
    stft,
)
from .errors import DataError, ShapeError
from .layers import (
    conv2d,
    init_conv,
    init_linear,
    init_norm,
    instance_norm,
    leaky_relu,
    linear,
    softmax,
)
from .rnn import BiRnnSpec, birnn, init_birnn


@dataclass(frozen=True)
class ModelConfig:
    d: int = 600
    heads: int = 4
    n_bins: int = 257
    n_speakers: int = 4
    main_channels: tuple = (45, 90)
    spk_channels: tuple = (30, 60)
    blstm_layers: int = 2
    mhsa_modules: int = 2
    arch: str = "full"  # "full" | "gru"
    use_spk: bool = True

    def __post_init__(self):
        if self.arch not in ("full", "gru"):
            raise ValueError(f"unknown arch {self.arch!r}")
        if self.d % 2 != 0 or (self.d // 2) % self.heads != 0:
            raise ValueError(f"heads {self.heads} must divide D/2 = {self.d // 2}")
        if self.n_speakers < 2:
            raise ValueError("need at least 2 speakers")

    @property
    def mhsa_spec(self):
        return MhsaSpec(model_dim=self.d // 2, heads=self.heads)

    def to_json_dict(self):
        return {
            "d": self.d, "heads": self.heads, "n_bins": self.n_bins,
            "n_speakers": self.n_speakers,
            "main_channels": list(self.main_channels),
            "spk_channels": list(self.spk_channels),
            "blstm_layers": self.blstm_layers,
            "mhsa_modules": self.mhsa_modules,
            "arch": self.arch, "use_spk": self.use_spk,
        }

    @staticmethod
    def from_json_dict(d):
        d = dict(d)
        d["main_channels"] = tuple(d.get("main_channels", (45, 90)))
        d["spk_channels"] = tuple(d.get("spk_channels", (30, 60)))
        return ModelConfig(**d)


@dataclass
class ModelOutput:
    mask_real: Tensor  # (F, K)
    mask_imag: Tensor  # (F, K)
    speaker_logits: Tensor = None  # (L, K)
    posterior: Tensor = None  # (L,)
    aux: Tensor = None  # Lambda, (D, K)
    attention: list = field(default_factory=list)  # per module x head, (K, K)

    @property
    def mask(self):
        return ComplexMask(self.mask_real.data.copy(), self.mask_imag.data.copy())


def _blstm_spec(config, input_dim):
    return BiRnnSpec("lstm", input_dim=input_dim, hidden_dim=config.d,
                     layers=config.blstm_layers)


def _main_rnn_input_dim(config):
    extra = config.d if config.use_spk else 0
    if config.arch == "gru":
        return config.n_bins + extra
    return config.d + extra


def init_model(config, seed=0):
    """Fresh parameter set; normalization stats start at identity."""
    rng = np.random.default_rng([seed, 11])
    params = {}
    d, f = config.d, config.n_bins

    if config.arch == "full":
        c1, c2 = config.main_channels
        init_conv(rng, params, "main_cnn.conv1", c1, 1, (5, 5))
        init_norm(rng, params, "main_cnn.in1", c1)
        init_conv(rng, params, "main_cnn.conv2", c2, c1, (5, 5))
        init_norm(rng, params, "main_cnn.in2", c2)
        init_conv(rng, params, "main_cnn.conv3", c2, c2, (1, 1))
        init_linear(rng, params, "main_cnn.proj", d, c2 * f)
        if config.use_spk:
            s1, s2 = config.spk_channels
            init_conv(rng, params, "spk_cnn.conv1", s1, 1, (5, 5))
            init_norm(rng, params, "spk_cnn.in1", s1)
            init_conv(rng, params, "spk_cnn.conv2", s2, s1, (5, 5))
            init_norm(rng, params, "spk_cnn.in2", s2)
            init_conv(rng, params, "spk_cnn.conv3", s2, s2, (1, 1))
            init_linear(rng, params, "spk_cnn.proj", d, s2 * f)
            init_birnn(rng, params, "spk_rnn",
                       BiRnnSpec("lstm", input_dim=d, hidden_dim=d // 2))
        init_birnn(rng, params, "main_rnn",
                   _blstm_spec(config, _main_rnn_input_dim(config)))
        init_linear(rng, params, "mhsa_in", d // 2, d)
        for m in range(config.mhsa_modules):
            init_mhsa(rng, params, f"mhsa{m}", config.mhsa_spec)
        mask_in = 2 * d + d // 2
    else:
        if config.use_spk:
            init_birnn(rng, params, "spk_rnn",
                       BiRnnSpec("gru", input_dim=f, hidden_dim=d // 2))
        init_birnn(rng, params, "main_rnn",
                   BiRnnSpec("gru", input_dim=_main_rnn_input_dim(config),
                             hidden_dim=d))
        mask_in = 2 * d

    init_linear(rng, params, "mask_head", 2 * f, mask_in)
    if config.use_spk:
        init_linear(rng, params, "spk_head", config.n_speakers, d)

    params["norm.mean"] = Tensor(np.zeros(f), requires_grad=False,
                                 name="norm.mean")
    params["norm.var"] = Tensor(np.ones(f), requires_grad=False, name="norm.var")
    return params


def cnn_block(feats, params, prefix, channels, d):
    """(1, F, K) -> (D, K): two 5x5 convs + IN + leaky-ReLU, a 1x1 conv,
    then a per-frame linear over the flattened channel-frequency axis."""
    c1, c2 = channels
    h = conv2d(feats, params[f"{prefix}.conv1.w"], params[f"{prefix}.conv1.b"],
               padding=(2, 2))
    h = leaky_relu(instance_norm(h, params[f"{prefix}.in1.scale"],
                                 params[f"{prefix}.in1.shift"]))
    h = conv2d(h, params[f"{prefix}.conv2.w"], params[f"{prefix}.conv2.b"],
               padding=(2, 2))
    h = leaky_relu(instance_norm(h, params[f"{prefix}.in2.scale"],
                                 params[f"{prefix}.in2.shift"]))
    h = conv2d(h, params[f"{prefix}.conv3.w"], params[f"{prefix}.conv3.b"],
               padding=(0, 0))
    k = h.shape[2]
    flat = reshape(h, (c2 * h.shape[1], k))
    return linear(flat, params[f"{prefix}.proj.w"], params[f"{prefix}.proj.b"])


def spk_block(feats, params, config):
    """(1, F, K) -> Lambda (D, K): small CNN then one BiLSTM layer."""
    c = cnn_block(feats, params, "spk_cnn", config.spk_channels, config.d)
    spec = BiRnnSpec("lstm", input_dim=config.d, hidden_dim=config.d // 2)
    return birnn(c, params, "spk_rnn", spec)


def blstm_block(c, aux, params, config):
    """concat(C, Lambda) -> two BiLSTM layers -> B (2D, K)."""
    if aux is not None:
        if aux.shape[1] != c.shape[1]:
            raise ShapeError("blstm_block", c.shape, aux.shape,
                             detail="frame counts differ")
        c = concat([c, aux], axis=0)
    return birnn(c, params, "main_rnn", _blstm_spec(config, c.shape[0]))


def mhsa_block(c, params, config, attention_sink=None, trace=None):
    """C -> linear to D/2 -> cascaded MHSA modules -> M (D/2, K)."""
    gamma = linear(c, params["mhsa_in.w"], params["mhsa_in.b"])
    if trace is not None:
        trace["Gamma"] = gamma.data.copy()
    out = gamma
    for m in range(config.mhsa_modules):
        out = mhsa_module(out, params, f"mhsa{m}", config.mhsa_spec,
                          attention_sink=attention_sink)
    return out


def _features(spec_x, params, config):
    feats = log_amplitude_features(spec_x)
    feats = normalize_per_frequency(feats, params["norm.mean"].data,
                                    params["norm.var"].data)
    return Tensor(feats)


def forward(spec_x, params, config, trace=None):
    """Run the network on an analyzed mixture; returns tape-ready outputs.

    trace, when a dict, receives numpy copies of the named internal
    features (C, Lambda, B, Gamma-in, M) for inspection.
    """
    if spec_x.real.shape[0] != config.n_bins:
        raise DataError(f"model expects {config.n_bins} frequency bins, got"
                        f" {spec_x.real.shape[0]}")
    missing = _missing_params(params, config)
    if missing:
        raise DataError(f"parameter set incomplete for this config, missing"
                        f" e.g. {missing}")
    feats = _features(spec_x, params, config)
    k = feats.shape[1]
    aux = None
    attention = []

    if config.arch == "full":
        grid = reshape(feats, (1, config.n_bins, k))
        c = cnn_block(grid, params, "main_cnn", config.main_channels, config.d)
        if config.use_spk:
            aux = spk_block(grid, params, config)
        b = blstm_block(c, aux, params, config)
        m = mhsa_block(c, params, config, attention_sink=attention, trace=trace)
        head_in = concat([b, m], axis=0)
        if trace is not None:
            trace.update(C=c.data.copy(), B=b.data.copy(), M=m.data.copy())
    else:
        if config.use_spk:
            spec = BiRnnSpec("gru", input_dim=config.n_bins,
                             hidden_dim=config.d // 2)
            aux = birnn(feats, params, "spk_rnn", spec)
            main_in = concat([feats, aux], axis=0)
        else:
            main_in = feats
        spec = BiRnnSpec("gru", input_dim=_main_rnn_input_dim(config),
                         hidden_dim=config.d)
        head_in = birnn(main_in, params, "main_rnn", spec)
        if trace is not None:
            trace.update(B=head_in.data.copy())

    mask_flat = linear(head_in, params["mask_head.w"], params["mask_head.b"])
    f = config.n_bins
    out = ModelOutput(mask_real=mask_flat[0:f], mask_imag=mask_flat[f:2 * f],
                      attention=attention)

    if config.use_spk:
        out.aux = aux
        out.speaker_logits = linear(aux, params["spk_head.w"],
                                    params["spk_head.b"])
        pooled = reduce_mean(out.speaker_logits, axis=1)
        out.posterior = softmax(pooled)
        if trace is not None:
            trace["Lambda"] = aux.data.copy()
    return out


def _missing_params(params, config):
    probes = ["mask_head.w", "norm.mean"]
    if config.arch == "full":
        probes += ["main_cnn.conv1.w", "mhsa_in.w", "mhsa0.w_p", "main_rnn.l0.fw.w_x"]
    else:
        probes += ["main_rnn.l0.fw.w_x"]
    if config.use_spk:
        probes += ["spk_head.w", "spk_rnn.l0.fw.w_x"]
    return [p for p in probes if p not in params]


def enhance(waveform, params, config, stft_config=StftConfig()):
    """y = istft(mask * stft(x)); returns (waveform, ModelOutput)."""
    x = np.asarray(waveform, dtype=np.float64)
    spec_x = stft(x, stft_config)
    output = forward(spec_x, params, config)
    enhanced = apply_mask(spec_x, output.mask)
    y = istft(enhanced, stft_config, x.size)
    return y, output
