"""Corpus generation, augmentation, batching, and protocol splits."""

import json
import threading

import numpy as np
import pytest

from sase.audio import read_wav
from sase.data import (
    PREFETCH_THREAD,
    Manifest,
    UtterancePair,
    corpus_digest,
    generate_corpus,
    iter_loaded_batches,
    load_manifest,
    load_pair,
    make_batches,
    make_speaker_profiles,
    measured_snr_db,
    noise_swap_augment,
    protocol_split,
    scale_noise_to_snr,
    synthesize_noise,
    synthesize_speech,
)
from sase.dsp import StftConfig, frame_count
from sase.errors import DataError, NumericalError

SR = 16000


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    manifest = generate_corpus(root, n_speakers=4, per_speaker=6, seed=7,
                               duration_range=(0.5, 0.9))
    return manifest


def test_profiles_are_pairwise_distinct():
    profiles = make_speaker_profiles(6)
    for a in profiles:
        for b in profiles:
            if a.speaker_id == b.speaker_id:
                continue
            ratio = max(a.f0_base, b.f0_base) / min(a.f0_base, b.f0_base)
            assert ratio >= 1.25
            assert abs(a.modulation_rate - b.modulation_rate) >= 0.8


def test_profiles_deterministic():
    assert make_speaker_profiles(4) == make_speaker_profiles(4)


def test_speech_has_expected_pitch():
    # The autocorrelation of a harmonic stack peaks at the pitch period.
    prof = make_speaker_profiles(4)[1]
    x = synthesize_speech(prof, 1.0, SR, np.random.default_rng(0))
    r = np.correlate(x, x, mode="full")[x.size - 1:]
    lo = int(SR / (prof.f0_base * 1.15))
    hi = int(SR / (prof.f0_base * 0.85))
    lag = lo + int(np.argmax(r[lo:hi]))
    assert r[lag] >= 0.3 * r[0]
    f_est = SR / lag
    assert 0.85 * prof.f0_base <= f_est <= 1.15 * prof.f0_base


def test_speech_is_rms_normalized_and_finite():
    prof = make_speaker_profiles(2)[0]
    x = synthesize_speech(prof, 0.5, SR, np.random.default_rng(3))
    assert x.shape == (8000,)
    assert np.all(np.isfinite(x))
    assert abs(np.sqrt(np.mean(x ** 2)) - 0.1) < 1e-9


def test_noise_families_have_unit_rms():
    for kind in ("white", "bandpass", "modulated"):
        x = synthesize_noise(kind, SR, SR, np.random.default_rng(1))
        assert abs(np.sqrt(np.mean(x ** 2)) - 1.0) < 1e-9


def test_bandpass_noise_concentrates_in_band():
    x = synthesize_noise("bandpass", 4 * SR, SR, np.random.default_rng(2))
    spec = np.abs(np.fft.rfft(x)) ** 2
    freqs = np.fft.rfftfreq(x.size, 1.0 / SR)
    in_band = spec[(freqs >= 500) & (freqs <= 2200)].sum()
    assert in_band / spec.sum() >= 0.85


def test_modulated_noise_is_intermittent():
    # Coefficient of variation of short-window rms: near zero for white
    # noise, large for the gated family.
    def envelope_cv(kind):
        x = synthesize_noise(kind, 4 * SR, SR, np.random.default_rng(5))
        frames = x[: (x.size // 400) * 400].reshape(-1, 400)
        rms = np.sqrt((frames ** 2).mean(axis=1))
        return rms.std() / rms.mean()

    assert envelope_cv("white") <= 0.15
    assert envelope_cv("modulated") >= 0.3


def test_unknown_noise_kind():
    with pytest.raises(DataError):
        synthesize_noise("pink", 100, SR, np.random.default_rng(0))


def test_pair_rejects_length_mismatch():
    with pytest.raises(DataError):
        UtterancePair(np.zeros(10), np.zeros(9), np.zeros(10), 0, 0.0, SR)


def test_pair_rejects_wrong_mixture():
    s, n = np.ones(8), np.ones(8)
    with pytest.raises(DataError):
        UtterancePair(s, n, s + n + 1e-6, 0, 0.0, SR)


def test_scale_noise_hits_requested_snr():
    rng = np.random.default_rng(11)
    s = rng.normal(scale=0.1, size=5000)
    n = synthesize_noise("white", 5000, SR, rng)
    for snr in (-5.0, 0.0, 12.5):
        scaled = scale_noise_to_snr(s, n, snr)
        assert abs(measured_snr_db(s, scaled) - snr) < 1e-9


def test_scale_noise_rejects_silence():
    with pytest.raises(DataError):
        scale_noise_to_snr(np.zeros(10), np.ones(10), 0.0)


def test_noise_swap_with_itself_is_identity():
    rng = np.random.default_rng(4)
    pair = UtterancePair.from_components(rng.normal(size=100),
                                         rng.normal(size=100), 1, 0.0, SR)
    a, b = noise_swap_augment(pair, pair)
    np.testing.assert_array_equal(a.clean, pair.clean)
    np.testing.assert_array_equal(a.noise, pair.noise)
    np.testing.assert_array_equal(a.mixture, pair.mixture)
    np.testing.assert_array_equal(b.mixture, pair.mixture)


def test_noise_swap_invariants_and_labels():
    rng = np.random.default_rng(6)
    pa = UtterancePair.from_components(rng.normal(size=120),
                                       rng.normal(size=120), 0, 5.0, SR)
    pb = UtterancePair.from_components(rng.normal(size=90),
                                       rng.normal(size=90), 3, 0.0, SR)
    na, nb = noise_swap_augment(pa, pb)
    assert na.speaker_id == 0 and nb.speaker_id == 3
    assert na.clean.size == 120 and nb.clean.size == 90
    np.testing.assert_array_equal(na.mixture, na.clean + na.noise)
    np.testing.assert_array_equal(nb.mixture, nb.clean + nb.noise)
    # the shorter noise is looped into the longer slot
    np.testing.assert_array_equal(na.noise[:90], pb.noise)
    np.testing.assert_array_equal(na.noise[90:], pb.noise[:30])


def test_noise_swap_double_swap_restores():
    rng = np.random.default_rng(8)
    pa = UtterancePair.from_components(rng.normal(size=100),
                                       rng.normal(size=100), 0, 0.0, SR)
    pb = UtterancePair.from_components(rng.normal(size=100),
                                       rng.normal(size=100), 1, 0.0, SR)
    sa, sb = noise_swap_augment(pa, pb)
    ra, rb = noise_swap_augment(sa, sb)
    np.testing.assert_array_equal(ra.mixture, pa.mixture)
    np.testing.assert_array_equal(rb.mixture, pb.mixture)


def test_noise_swap_rejects_rate_mismatch():
    pa = UtterancePair.from_components(np.ones(10), np.ones(10), 0, 0.0, 16000)
    pb = UtterancePair.from_components(np.ones(10), np.ones(10), 1, 0.0, 8000)
    with pytest.raises(DataError):
        noise_swap_augment(pa, pb)


def test_corpus_counts_and_layout(corpus):
    assert len(corpus.entries) == 24
    wavs = sorted(corpus.root.rglob("*.wav"))
    assert len(wavs) == 72
    assert corpus.speakers == [0, 1, 2, 3]
    for split in ("train", "dev", "test"):
        assert corpus.split_entries(split)


def test_corpus_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_corpus(a, n_speakers=2, per_speaker=3, seed=123,
                    duration_range=(0.5, 0.6))
    generate_corpus(b, n_speakers=2, per_speaker=3, seed=123,
                    duration_range=(0.5, 0.6))
    assert corpus_digest(a) == corpus_digest(b)
    c = tmp_path / "c"
    generate_corpus(c, n_speakers=2, per_speaker=3, seed=124,
                    duration_range=(0.5, 0.6))
    assert corpus_digest(a) != corpus_digest(c)


def test_corpus_snr_measured_from_disk(corpus):
    for entry in corpus.entries[:8]:
        _, s = read_wav(corpus.root / entry["clean"])
        _, n = read_wav(corpus.root / entry["noise"])
        assert abs(measured_snr_db(s, n) - entry["snr_db"]) < 0.01


def test_corpus_mixture_consistent_after_storage(corpus):
    for entry in corpus.entries[:8]:
        _, s = read_wav(corpus.root / entry["clean"])
        _, n = read_wav(corpus.root / entry["noise"])
        _, x = read_wav(corpus.root / entry["mixture"])
        assert np.max(np.abs(x - (s + n))) < 1e-6


def test_manifest_round_trip(corpus, tmp_path):
    from sase.data import save_manifest
    path = tmp_path / "m.jsonl"
    save_manifest(corpus, path)
    loaded = load_manifest(path)
    assert loaded.sample_rate == corpus.sample_rate
    assert loaded.entries == corpus.entries


def test_manifest_header_with_null_stats_loads(corpus, tmp_path):
    # Older corpora wrote a "stats": null field into the header.
    path = tmp_path / "m.jsonl"
    header = {"kind": "header", "sample_rate": 8000, "stats": None}
    path.write_text("\n".join(json.dumps(rec) for rec in
                              [header, *corpus.entries]) + "\n")
    loaded = load_manifest(path)
    assert loaded.sample_rate == 8000
    assert loaded.entries == corpus.entries


def test_load_pair_round_trip(corpus):
    entry = corpus.entries[0]
    pair = load_pair(corpus, entry)
    assert pair.speaker_id == entry["speaker_id"]
    assert pair.clean.size == entry["samples"]
    np.testing.assert_array_equal(pair.mixture, pair.clean + pair.noise)


def test_missing_manifest():
    with pytest.raises(DataError):
        load_manifest("/nonexistent/manifest.jsonl")


def _fake_entries(lengths):
    return [{"clean": f"u{i}.wav", "noise": "", "mixture": "",
             "speaker_id": 0, "snr_db": 0.0, "split": "train",
             "samples": n} for i, n in enumerate(lengths)]


def test_batches_partition_exactly():
    entries = _fake_entries(np.random.default_rng(0).integers(8000, 32000, 37))
    batches = make_batches(entries, batch_size=4, seed=1)
    flat = [e["clean"] for b in batches for e in b]
    assert sorted(flat) == sorted(e["clean"] for e in entries)
    assert len(flat) == len(entries)


def test_batches_deterministic_and_seed_sensitive():
    entries = _fake_entries([16000] * 30)
    a = make_batches(entries, batch_size=4, seed=5)
    b = make_batches(entries, batch_size=4, seed=5)
    c = make_batches(entries, batch_size=4, seed=6)
    key = lambda bs: [[e["clean"] for e in batch] for batch in bs]
    assert key(a) == key(b)
    assert key(a) != key(c)


def test_batches_respect_frame_ratio():
    rng = np.random.default_rng(2)
    entries = _fake_entries(rng.integers(4000, 64000, 120))
    config = StftConfig()
    batches = make_batches(entries, batch_size=8, seed=3, stft_config=config)
    for batch in batches:
        ks = [frame_count(e["samples"], config) for e in batch]
        assert max(ks) / min(ks) <= 1.25


def test_batches_reject_empty():
    with pytest.raises(DataError):
        make_batches([], batch_size=4, seed=0)


def test_prefetch_preserves_order(corpus):
    entries = corpus.split_entries("train")[:6]
    batches = [entries[:3], entries[3:6]]
    eager = [[load_pair(corpus, e) for e in b] for b in batches]
    threaded = list(iter_loaded_batches(corpus, batches))
    assert len(threaded) == 2
    for eb, tb in zip(eager, threaded):
        for ep, tp in zip(eb, tb):
            np.testing.assert_array_equal(ep.mixture, tp.mixture)


def _prefetch_threads():
    return [t for t in threading.enumerate() if t.name == PREFETCH_THREAD]


def test_prefetch_worker_stops_when_generator_closes(corpus):
    batches = [[e] for e in corpus.entries[:6]]
    loaded = iter_loaded_batches(corpus, batches)
    next(loaded)
    assert _prefetch_threads()  # the worker is blocked on a full queue
    loaded.close()
    assert not _prefetch_threads()


def test_prefetch_worker_stops_when_consumer_raises(corpus):
    batches = [[e] for e in corpus.entries[:6]]

    def consume():
        for _ in iter_loaded_batches(corpus, batches):
            raise NumericalError("synthetic failure")

    with pytest.raises(NumericalError):
        consume()
    assert not _prefetch_threads()


def test_protocol_close(corpus):
    split = protocol_split(corpus, "Close", target_speaker=2)
    assert {e["speaker_id"] for e in split.train} == {2}
    assert all(e["speaker_id"] == 2 for e in split.test)
    assert not split.use_spk
    assert split.banned_speakers == frozenset()


def test_protocol_open(corpus):
    split = protocol_split(corpus, "Open", target_speaker=2)
    train_speakers = {e["speaker_id"] for e in split.train}
    assert train_speakers == {0, 1, 3}
    assert all(e["speaker_id"] == 2 for e in split.test)
    assert not split.use_spk
    assert split.banned_speakers == frozenset([2])


def test_protocol_openspk(corpus):
    split = protocol_split(corpus, "OpenSpk", target_speaker=0)
    assert split.use_spk
    assert 0 not in {e["speaker_id"] for e in split.train}
    assert 0 not in {e["speaker_id"] for e in split.dev}


def test_protocol_disjoint_samples(corpus):
    for mode in ("Close", "Open", "OpenSpk"):
        split = protocol_split(corpus, mode, target_speaker=1)
        train_ids = {e["clean"] for e in split.train + split.dev}
        test_ids = {e["clean"] for e in split.test}
        assert not train_ids & test_ids


def test_protocol_unknown_speaker(corpus):
    with pytest.raises(DataError):
        protocol_split(corpus, "Open", target_speaker=99)


def test_protocol_unknown_mode(corpus):
    with pytest.raises(DataError):
        protocol_split(corpus, "Leave-one-out", target_speaker=0)
