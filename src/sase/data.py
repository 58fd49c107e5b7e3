"""Synthetic desk-scale corpus: speakers, noises, manifests, batching.

Speakers are harmonic-plus-formant generators instead of recordings, so
the repo stays self-contained and speaker separability is a knob rather
than an accident of the data. Real corpora drop in through the same
JSON-lines manifest.
"""

import hashlib
import json
import queue
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.signal import butter, lfilter

from .audio import read_wav, write_wav
from .dsp import StftConfig, frame_count
from .errors import DataError

NOISE_KINDS = ("white", "bandpass", "modulated")
BUCKET_RATIO = 1.25
PREFETCH_THREAD = "sase-prefetch"
PREFETCH_DEPTH = 2  # loaded batches the worker may hold ahead of the consumer
PREFETCH_POLL_S = 0.1  # how often a blocked worker checks for a stop


@dataclass(frozen=True)
class SyntheticSpeakerProfile:
    speaker_id: int
    f0_base: float  # Hz
    formants: tuple  # ((center Hz, bandwidth Hz, gain), ...)
    modulation_rate: float  # Hz, drives vibrato and the syllabic envelope


def make_speaker_profiles(n_speakers):
    """Deterministic profile set, pairwise distinct by construction:
    f0 steps of a major third, formants shifted 60 Hz per speaker,
    modulation rates 0.9 Hz apart."""
    if n_speakers < 2:
        raise DataError("need at least 2 speakers")
    profiles = []
    for i in range(n_speakers):
        f0 = 110.0 * 2.0 ** (i * 4.0 / 12.0)
        shift = 60.0 * i
        formants = ((500.0 + shift, 130.0, 1.0),
                    (1480.0 + 1.5 * shift, 180.0, 0.7),
                    (2500.0 + 2.0 * shift, 240.0, 0.45))
        profiles.append(SyntheticSpeakerProfile(
            speaker_id=i, f0_base=f0, formants=formants,
            modulation_rate=2.1 + 0.9 * i))
    return profiles


def _formant_gain(freqs, formants):
    g = np.full_like(freqs, 0.02)
    for center, bw, gain in formants:
        g = g + gain * np.exp(-0.5 * ((freqs - center) / bw) ** 2)
    return g


def synthesize_speech(profile, duration, sample_rate, rng):
    """Voiced harmonic stack under a formant envelope with vibrato and a
    syllabic amplitude contour; rms-normalized to 0.1."""
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    f0 = profile.f0_base * rng.uniform(0.94, 1.06)
    vib = 1.0 + 0.025 * np.sin(2 * np.pi * profile.modulation_rate * t
                               + rng.uniform(0, 2 * np.pi))
    phase = 2 * np.pi * np.cumsum(f0 * vib) / sample_rate
    n_harm = max(3, min(40, int(0.45 * sample_rate / f0)))
    h = np.arange(1, n_harm + 1)
    amps = _formant_gain(h * f0, profile.formants) / h ** 0.3
    x = np.zeros(n)
    for k, a in zip(h, amps):
        x += a * np.sin(k * phase + rng.uniform(0, 2 * np.pi))
    syllable = 0.5 + 0.5 * np.sin(2 * np.pi * 0.7 * profile.modulation_rate * t
                                  + rng.uniform(0, 2 * np.pi))
    x *= 0.2 + 0.8 * syllable ** 1.5
    fade = min(int(0.02 * sample_rate), n // 4)
    if fade > 0:
        ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(fade) / fade)
        x[:fade] *= ramp
        x[-fade:] *= ramp[::-1]
    return 0.1 * x / max(np.sqrt(np.mean(x ** 2)), 1e-12)


def synthesize_noise(kind, n_samples, sample_rate, rng):
    """One of three families: white, band-passed, amplitude-modulated
    (intermittent bursts). Unit rms."""
    white = rng.normal(size=n_samples)
    if kind == "white":
        x = white
    elif kind == "bandpass":
        lo, hi = 500.0, 2200.0
        b, a = butter(4, [lo / (sample_rate / 2), hi / (sample_rate / 2)],
                      btype="band")
        x = lfilter(b, a, white)
    elif kind == "modulated":
        t = np.arange(n_samples) / sample_rate
        f_gate = rng.uniform(2.0, 6.0)
        gate = 0.5 * (1.0 + np.tanh(8.0 * np.sin(2 * np.pi * f_gate * t
                                                 + rng.uniform(0, 2 * np.pi))))
        x = white * (0.05 + 0.95 * gate)
    else:
        raise DataError(f"unknown noise kind {kind!r}, expected one of"
                        f" {NOISE_KINDS}")
    return x / max(np.sqrt(np.mean(x ** 2)), 1e-12)


@dataclass
class UtterancePair:
    clean: np.ndarray
    noise: np.ndarray
    mixture: np.ndarray
    speaker_id: int
    snr_db: float
    sample_rate: int

    def __post_init__(self):
        s, n, x = (np.asarray(a, dtype=np.float64) for a in
                   (self.clean, self.noise, self.mixture))
        if not (s.shape == n.shape == x.shape):
            raise DataError(f"component lengths differ: clean {s.shape},"
                            f" noise {n.shape}, mixture {x.shape}")
        if np.max(np.abs(x - (s + n)), initial=0.0) > 1e-12:
            raise DataError("mixture is not clean + noise")
        self.clean, self.noise, self.mixture = s, n, x

    @classmethod
    def from_components(cls, clean, noise, speaker_id, snr_db, sample_rate):
        clean = np.asarray(clean, dtype=np.float64)
        noise = np.asarray(noise, dtype=np.float64)
        return cls(clean, noise, clean + noise, speaker_id, snr_db, sample_rate)


def scale_noise_to_snr(clean, noise, snr_db):
    """Return noise scaled so 10*log10(|s|^2/|n|^2) equals snr_db."""
    es = float(np.sum(clean ** 2))
    en = float(np.sum(noise ** 2))
    if es <= 0.0 or en <= 0.0:
        raise DataError("cannot set an SNR against silent speech or noise")
    return noise * np.sqrt(es / (en * 10.0 ** (snr_db / 10.0)))


def measured_snr_db(clean, noise):
    return 10.0 * np.log10(np.sum(np.asarray(clean) ** 2)
                           / np.sum(np.asarray(noise) ** 2))


def noise_swap_augment(pair_a, pair_b):
    """Exchange the noise components; labels follow the speech. The
    incoming noise is looped or trimmed to the speech length and each
    mixture is recomputed."""
    if pair_a.sample_rate != pair_b.sample_rate:
        raise DataError(f"sample rates differ: {pair_a.sample_rate} vs"
                        f" {pair_b.sample_rate}")

    def fit(noise, length):
        if noise.size < length:
            noise = np.tile(noise, -(-length // noise.size))
        return noise[:length]

    n_for_a = fit(pair_b.noise, pair_a.clean.size)
    n_for_b = fit(pair_a.noise, pair_b.clean.size)
    new_a = UtterancePair.from_components(
        pair_a.clean, n_for_a, pair_a.speaker_id,
        measured_snr_db(pair_a.clean, n_for_a), pair_a.sample_rate)
    new_b = UtterancePair.from_components(
        pair_b.clean, n_for_b, pair_b.speaker_id,
        measured_snr_db(pair_b.clean, n_for_b), pair_b.sample_rate)
    return new_a, new_b


@dataclass
class Manifest:
    root: Path
    sample_rate: int
    entries: list = field(default_factory=list)

    def split_entries(self, split):
        return [e for e in self.entries if e["split"] == split]

    @property
    def speakers(self):
        return sorted({e["speaker_id"] for e in self.entries})


def save_manifest(manifest, path):
    path = Path(path)
    with path.open("w") as fh:
        header = {"kind": "header", "sample_rate": manifest.sample_rate}
        fh.write(json.dumps(header) + "\n")
        for e in manifest.entries:
            fh.write(json.dumps(e) + "\n")


def load_manifest(path):
    path = Path(path)
    if not path.exists():
        raise DataError(f"manifest not found: {path}")
    sample_rate, entries = 16000, []
    with path.open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("kind") == "header":
                sample_rate = rec["sample_rate"]
            else:
                entries.append(rec)
    return Manifest(root=path.parent, sample_rate=sample_rate, entries=entries)


def load_pair(manifest, entry):
    """Rebuild an UtterancePair from disk; the mixture is recomputed from
    the stored components (float32 storage keeps them consistent to 1e-6
    with the stored mix, which is verified)."""
    sr, clean = read_wav(manifest.root / entry["clean"])
    sr_n, noise = read_wav(manifest.root / entry["noise"])
    if sr != manifest.sample_rate or sr_n != sr:
        raise DataError(f"sample rate mismatch reading {entry['clean']}")
    _, mix_stored = read_wav(manifest.root / entry["mixture"])
    pair = UtterancePair.from_components(clean, noise, entry["speaker_id"],
                                         entry["snr_db"], sr)
    if np.max(np.abs(pair.mixture - mix_stored), initial=0.0) > 1e-6:
        raise DataError(f"stored mixture inconsistent for {entry['mixture']}")
    return pair


def _assign_splits(count):
    n_test = max(1, round(0.15 * count)) if count >= 2 else 0
    n_dev = max(1, round(0.10 * count)) if count >= 3 else 0
    labels = ["train"] * (count - n_test - n_dev)
    labels += ["dev"] * n_dev + ["test"] * n_test
    return labels


def generate_corpus(out_dir, n_speakers, per_speaker, snr_set=(0.0, 5.0, 10.0),
                    seed=0, sample_rate=16000, duration_range=(1.0, 2.0)):
    """Write per-utterance (clean, noise, mixture) float32 WAV triples and
    a JSON-lines manifest. Bit-identical for a fixed seed: every utterance
    draws from its own rng stream keyed by (seed, speaker, index)."""
    if n_speakers < 2 or per_speaker < 1:
        raise DataError("need n_speakers >= 2 and per_speaker >= 1")
    out_dir = Path(out_dir)
    profiles = make_speaker_profiles(n_speakers)
    manifest = Manifest(root=out_dir, sample_rate=sample_rate)
    for prof in profiles:
        spk_dir = out_dir / f"spk{prof.speaker_id:02d}"
        spk_dir.mkdir(parents=True, exist_ok=True)
        splits = _assign_splits(per_speaker)
        for j in range(per_speaker):
            rng = np.random.default_rng([seed, prof.speaker_id, j])
            duration = rng.uniform(*duration_range)
            speech = synthesize_speech(prof, duration, sample_rate, rng)
            kind = NOISE_KINDS[j % len(NOISE_KINDS)]
            snr = float(snr_set[j % len(snr_set)])
            noise = synthesize_noise(kind, speech.size, sample_rate, rng)
            noise = scale_noise_to_snr(speech, noise, snr)
            pair = UtterancePair.from_components(speech, noise,
                                                 prof.speaker_id, snr,
                                                 sample_rate)
            rel = {}
            for part, wave in (("clean", pair.clean), ("noise", pair.noise),
                               ("mixture", pair.mixture)):
                rel[part] = f"spk{prof.speaker_id:02d}/utt{j:03d}.{part}.wav"
                write_wav(out_dir / rel[part], sample_rate, wave,
                          encoding="float32")
            manifest.entries.append({
                "clean": rel["clean"], "noise": rel["noise"],
                "mixture": rel["mixture"], "speaker_id": prof.speaker_id,
                "snr_db": snr, "split": splits[j], "noise_kind": kind,
                "samples": int(speech.size),
            })
    save_manifest(manifest, out_dir / "manifest.jsonl")
    return manifest


def corpus_digest(out_dir):
    """SHA-256 over the manifest plus every WAV, for determinism checks."""
    out_dir = Path(out_dir)
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(out_dir).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def make_batches(entries, batch_size, seed, stft_config=StftConfig()):
    """Bucketed, seeded batching. Entries land in geometric frame-count
    buckets (ratio 1.25), are shuffled within a bucket, sliced into
    batches, and the batch order is shuffled; every entry appears exactly
    once and within any batch max/min frame count <= 1.25."""
    if not entries:
        raise DataError("cannot batch an empty split")
    if batch_size < 1:
        raise DataError("batch_size must be >= 1")
    frames = [frame_count(e["samples"], stft_config) for e in entries]
    k_min = min(frames)
    buckets = {}
    for e, k in zip(entries, frames):
        b = int(np.floor(np.log(k / k_min) / np.log(BUCKET_RATIO) + 1e-12))
        buckets.setdefault(b, []).append(e)
    rng = np.random.default_rng(seed)
    batches = []
    for b in sorted(buckets):
        members = buckets[b]
        order = rng.permutation(len(members))
        for start in range(0, len(members), batch_size):
            batches.append([members[i] for i in order[start:start + batch_size]])
    rng.shuffle(batches)
    return batches


def iter_loaded_batches(manifest, batches):
    """Yield lists of UtterancePairs; a worker thread loads up to
    PREFETCH_DEPTH batches ahead of the consumer so decoding overlaps
    compute. Closing the generator (or dropping it when the consumer
    raises) stops the worker."""
    q = queue.Queue(maxsize=PREFETCH_DEPTH)
    sentinel = object()
    fail = []
    stop = threading.Event()

    def put(item):
        while not stop.is_set():
            try:
                q.put(item, timeout=PREFETCH_POLL_S)
                return True
            except queue.Full:
                pass
        return False

    def worker():
        try:
            for batch in batches:
                if not put([load_pair(manifest, e) for e in batch]):
                    return
        except BaseException as exc:  # surfaced on the consumer side
            fail.append(exc)
        finally:
            put(sentinel)

    thread = threading.Thread(target=worker, name=PREFETCH_THREAD, daemon=True)
    thread.start()
    try:
        while (item := q.get()) is not sentinel:
            yield item
    finally:
        stop.set()
        thread.join()
    if fail:
        raise fail[0]


@dataclass(frozen=True)
class ProtocolSplit:
    mode: str
    target_speaker: int
    train: tuple
    dev: tuple
    test: tuple
    use_spk: bool

    @property
    def banned_speakers(self):
        """Speakers that must never appear in a training batch."""
        if self.mode == "Close":
            return frozenset()
        return frozenset([self.target_speaker])


PROTOCOL_MODES = ("Close", "Open", "OpenSpk")


def protocol_split(manifest, mode, target_speaker):
    """Close: train on the target speaker alone. Open / OpenSpk: train on
    every other speaker. Testing always happens on the target's held-out
    samples; OpenSpk additionally activates the speaker branch."""
    canon = {m.lower(): m for m in PROTOCOL_MODES}
    if str(mode).lower() not in canon:
        raise DataError(f"unknown protocol {mode!r}, expected one of"
                        f" {PROTOCOL_MODES}")
    mode = canon[str(mode).lower()]
    if target_speaker not in manifest.speakers:
        raise DataError(f"speaker {target_speaker} not in corpus"
                        f" (has {manifest.speakers})")
    if mode == "Close":
        keep = lambda e: e["speaker_id"] == target_speaker
    else:
        keep = lambda e: e["speaker_id"] != target_speaker
    train = tuple(e for e in manifest.entries
                  if e["split"] == "train" and keep(e))
    dev = tuple(e for e in manifest.entries if e["split"] == "dev" and keep(e))
    test = tuple(e for e in manifest.entries
                 if e["split"] == "test" and e["speaker_id"] == target_speaker)
    if not train:
        raise DataError(f"protocol {mode} leaves no training data")
    if not test:
        raise DataError(f"no held-out test samples for speaker {target_speaker}")
    return ProtocolSplit(mode=mode, target_speaker=target_speaker,
                         train=train, dev=dev, test=test,
                         use_spk=(mode == "OpenSpk"))
