"""Seeded benchmark inputs, made apart from the program's own generator.

Voices are harmonic stacks with a per-speaker pitch and formant envelope,
noises are white, low-passed or gated, and mixtures are set to an exact
SNR. Everything is drawn from ``np.random.default_rng([seed, ...])`` so a
seed fixes every input, and nothing here imports ``sase``: the program
only ever sees the WAV files and the manifest written below.
"""

import json
from pathlib import Path

import numpy as np
import scipy.io.wavfile
import scipy.signal

SAMPLE_RATE = 16000
NOISE_KINDS = ("white", "lowpass", "gated")
SNR_SET_DB = (0.0, 5.0)


def voice(rng, speaker, n, rate=SAMPLE_RATE):
    """A voiced utterance of ``n`` samples for ``speaker``, rms 0.1."""
    t = np.arange(n) / rate
    f0 = 105.0 * 1.22 ** speaker * rng.uniform(0.96, 1.04)
    vibrato = 1.0 + 0.02 * np.sin(2 * np.pi * (2.0 + 0.7 * speaker) * t
                                  + rng.uniform(0, 2 * np.pi))
    phase = 2 * np.pi * np.cumsum(f0 * vibrato) / rate
    harmonics = np.arange(1, int(3800.0 / f0) + 1)
    formants = (450.0 + 70.0 * speaker, 1400.0 + 110.0 * speaker, 2600.0)
    envelope = sum(np.exp(-0.5 * ((harmonics * f0 - c) / 160.0) ** 2)
                   for c in formants) + 0.03
    x = np.zeros(n)
    for k, a in zip(harmonics, envelope / harmonics ** 0.4):
        x += a * np.sin(k * phase + rng.uniform(0, 2 * np.pi))
    syllables = 0.5 + 0.5 * np.sin(2 * np.pi * (3.0 + 0.4 * speaker) * t
                                   + rng.uniform(0, 2 * np.pi))
    x *= 0.15 + 0.85 * syllables ** 2
    ramp = min(n // 4, rate // 100)
    if ramp:
        fade = np.linspace(0.0, 1.0, ramp)
        x[:ramp] *= fade
        x[-ramp:] *= fade[::-1]
    return 0.1 * x / np.sqrt(np.mean(x ** 2))


def noise(rng, kind, n, rate=SAMPLE_RATE):
    """Unit-rms noise of one of ``NOISE_KINDS``."""
    x = rng.standard_normal(n)
    if kind == "lowpass":
        b, a = scipy.signal.butter(2, 1200.0 / (rate / 2))
        x = scipy.signal.lfilter(b, a, x)
    elif kind == "gated":
        t = np.arange(n) / rate
        gate = np.sin(2 * np.pi * rng.uniform(2.0, 5.0) * t
                      + rng.uniform(0, 2 * np.pi)) > 0
        x = x * np.where(gate, 1.0, 0.1)
    elif kind != "white":
        raise ValueError(f"unknown noise kind {kind!r}")
    return x / np.sqrt(np.mean(x ** 2))


def mixture(rng, speaker, n, index):
    """(clean, noise) as float32 arrays, the noise scaled to the SNR that
    ``index`` selects from ``SNR_SET_DB``."""
    clean = voice(rng, speaker, n)
    raw = noise(rng, NOISE_KINDS[index % len(NOISE_KINDS)], n)
    snr = SNR_SET_DB[index % len(SNR_SET_DB)]
    scaled = raw * np.sqrt(np.sum(clean ** 2)
                           / (np.sum(raw ** 2) * 10.0 ** (snr / 10.0)))
    return clean.astype(np.float32), scaled.astype(np.float32)


def write_wav(path, samples):
    scipy.io.wavfile.write(path, SAMPLE_RATE, np.asarray(samples, np.float32))


def read_wav(path):
    rate, x = scipy.io.wavfile.read(path)
    if rate != SAMPLE_RATE or x.dtype != np.float32 or x.ndim != 1:
        raise ValueError(f"{path}: expected mono float32 at {SAMPLE_RATE} Hz")
    return x.astype(np.float64)


def write_corpus(root, seed, n_speakers, per_speaker, duration_range):
    """Clean/noise/mixture WAV triples and a ``manifest.jsonl``.

    Per speaker the last utterance is ``test``, the one before it ``dev``
    and the rest ``train``. The mixture is stored as float32(clean + noise)
    of the float32 parts, which is what the manifest reader recomputes.
    Returns the manifest path.
    """
    root = Path(root)
    entries = []
    for speaker in range(n_speakers):
        (root / f"spk{speaker:02d}").mkdir(parents=True, exist_ok=True)
        for j in range(per_speaker):
            rng = np.random.default_rng([seed, 101, speaker, j])
            n = int(round(rng.uniform(*duration_range) * SAMPLE_RATE))
            clean, noisy_part = mixture(rng, speaker, n, j)
            mix = (clean.astype(np.float64) + noisy_part).astype(np.float32)
            stem = f"spk{speaker:02d}/utt{j:03d}"
            for part, wave in (("clean", clean), ("noise", noisy_part),
                               ("mixture", mix)):
                write_wav(root / f"{stem}.{part}.wav", wave)
            split = ("test" if j == per_speaker - 1 else
                     "dev" if j == per_speaker - 2 else "train")
            entries.append({
                "clean": f"{stem}.clean.wav", "noise": f"{stem}.noise.wav",
                "mixture": f"{stem}.mixture.wav", "speaker_id": speaker,
                "snr_db": SNR_SET_DB[j % len(SNR_SET_DB)], "split": split,
                "noise_kind": NOISE_KINDS[j % len(NOISE_KINDS)],
                "samples": n,
            })
    path = root / "manifest.jsonl"
    with path.open("w") as fh:
        fh.write(json.dumps({"kind": "header", "sample_rate": SAMPLE_RATE,
                             "stats": None}) + "\n")
        for entry in entries:
            fh.write(json.dumps(entry) + "\n")
    return path


def read_manifest(path):
    """The utterance records of a manifest (the header line skipped)."""
    with Path(path).open() as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return [r for r in records if r.get("kind") != "header"]
