"""The three benchmark workloads and the loop that times them.

Each workload drives ``sase`` through its public entry points: the
``sase train`` and ``sase enhance`` commands run in-process through
``sase.cli.main``, and ``train-full`` repeats the optimizer step that
``sase.train.train`` performs per batch. Program functions are always
reached through their module at call time (``sase.autodiff.backward``,
never a copied binding), so the traced run's rebinding takes effect.

A round is one timed program call: one ``sase train`` call, one optimizer
step, or one ``sase enhance`` call on one file. A run repeats whole
cycles of rounds (enhance cycles through its files) until ``--seconds``
have passed, so every run does the same work per cycle and the failed
share does not depend on how many cycles fit.
"""

import contextlib
import copy
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import sase.autodiff
import sase.checkpoint
import sase.cli
import sase.dsp
import sase.model
import sase.optim
import sase.train
from sase.data import UtterancePair

import corpus
import oracles
from spans import Tracer


@dataclass(frozen=True)
class Sizes:
    d: int
    heads: int
    stft: tuple  # (dft_size, hop, window_length)
    main_channels: tuple
    spk_channels: tuple
    gru_speakers: int
    gru_per_speaker: int
    gru_durations: tuple  # seconds, uniform range
    gru_epochs: int
    batch_size: int
    full_batch: int
    full_seconds: float
    probe_seconds: float  # train-full's gradient probes use this much audio
    enhance_seconds: tuple

    @property
    def n_bins(self):
        return self.stft[0] // 2 + 1

    def stft_config(self):
        dft, hop, win = self.stft
        return sase.dsp.StftConfig(dft, hop, "blackman", win)

    def full_model(self, n_speakers):
        return sase.model.ModelConfig(
            d=self.d, heads=self.heads, n_bins=self.n_bins,
            n_speakers=n_speakers, main_channels=self.main_channels,
            spk_channels=self.spk_channels)


# The published layout at desk width (d=128, 4 heads, 257 bins).
STANDARD = Sizes(d=128, heads=4, stft=(512, 128, 512),
                 main_channels=(45, 90), spk_channels=(30, 60),
                 gru_speakers=4, gru_per_speaker=6, gru_durations=(0.6, 0.7),
                 gru_epochs=3, batch_size=8, full_batch=3, full_seconds=0.35,
                 probe_seconds=0.1, enhance_seconds=(1.0, 2.0, 3.0))
# Same code paths at toy sizes, for the benchmark's own tests.
TINY = Sizes(d=8, heads=2, stft=(64, 16, 64), main_channels=(3, 4),
             spk_channels=(2, 3), gru_speakers=3, gru_per_speaker=4,
             gru_durations=(0.02, 0.03), gru_epochs=2, batch_size=4,
             full_batch=3, full_seconds=0.015, probe_seconds=0.01,
             enhance_seconds=(0.01, 0.02))


@dataclass
class Round:
    seconds: float
    ops: int  # optimizer steps, or files enhanced
    passes: float  # passes over the workload's data (epochs)
    audio_s: float  # seconds of audio processed
    digest: str


def _digest(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _cli(argv):
    """``sase <argv>`` in-process; its prints go to stderr so the result
    line stays the last line of stdout."""
    with contextlib.redirect_stdout(sys.stderr):
        code = sase.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"sase {argv[0]} exited {code}")


def _tape_grads(loss_fn, params):
    with sase.autodiff.Tape():
        total = loss_fn()
        grads = sase.autodiff.backward(total)
    return {n: grads[p] for n, p in params.items() if p in grads}


def _pair(clean, noise, speaker):
    return UtterancePair.from_components(
        clean.astype(np.float64), noise.astype(np.float64), speaker, 0.0,
        corpus.SAMPLE_RATE)


class Workload:
    warmup = 0  # rounds run before the timed window, not timed
    cycle = 1  # rounds per whole cycle of the workload's inputs
    repeats = True  # every round starts from the same state

    def __init__(self, work, seed, sizes):
        self.work = Path(work)
        self.seed = seed
        self.sizes = sizes
        self._hooks = []

    def hook(self, module, name, make):
        """Rebind ``module.name`` to ``make(original)`` until ``close``."""
        original = getattr(module, name)
        self._hooks.append((module, name, original))
        setattr(module, name, make(original))
        return original

    def close(self):
        while self._hooks:
            module, name, original = self._hooks.pop()
            setattr(module, name, original)

    def state(self):
        return None

    def restore(self, state):
        pass


class TrainGru(Workload):
    """``sase train`` with the OpenSpk protocol on the reduced ``gru``
    layout: the desk-scale training users run. Per-timestep tape recording
    and its backward dominate; no conv2d, no MHSA."""

    name = "train-gru"

    def setup(self):
        s = self.sizes
        self.manifest = corpus.write_corpus(
            self.work / "corpus", self.seed, s.gru_speakers,
            s.gru_per_speaker, s.gru_durations)
        self.target = self.seed % s.gru_speakers
        self.train_audio_s = sum(
            e["samples"] for e in corpus.read_manifest(self.manifest)
            if e["split"] == "train" and e["speaker_id"] != self.target
        ) / corpus.SAMPLE_RATE
        self.config = self.work / "config.json"
        dft, hop, win = s.stft
        self.config.write_text(json.dumps({
            "train": {"epochs": s.gru_epochs, "batch_size": s.batch_size,
                      "seed": self.seed, "protocol": "OpenSpk",
                      "target_speaker": self.target},
            "model": {"d": s.d, "heads": s.heads, "arch": "gru",
                      "n_bins": s.n_bins},
            "loss": {"alpha": 0.3},
            "stft": {"dft_size": dft, "hop": hop, "window_length": win},
        }))
        self.calls = 0
        self.out = None
        self.scored = []  # per epoch of the latest call: clean-signal digests

        def observe_loss(fn):
            def utterance_loss(pair, *args, **kwargs):
                self.scored[-1].append(_digest(np.asarray(pair.clean).tobytes()))
                return fn(pair, *args, **kwargs)
            return utterance_loss

        def observe_epoch(fn):
            def make_batches(*args, **kwargs):
                self.scored.append([])
                return fn(*args, **kwargs)
            return make_batches

        # Observation hooks, present in every call: one digest per scored
        # utterance and a mark at each epoch start.
        self.utterance_loss = self.hook(sase.train, "utterance_loss", observe_loss)
        self.hook(sase.train, "make_batches", observe_epoch)

    def round(self):
        if self.out is not None:
            shutil.rmtree(self.out)
        self.calls += 1
        self.out = self.work / f"train{self.calls}"
        self.scored = []
        t0 = time.perf_counter()
        _cli(["train", "--manifest", str(self.manifest), "--config",
              str(self.config), "--out-dir", str(self.out)])
        seconds = time.perf_counter() - t0
        meta = json.loads((self.out / "final" / "optimizer_meta.json").read_text())
        outputs = ("report.json", "final/params.bin", "final/optimizer.bin")
        epochs = self.sizes.gru_epochs
        return Round(seconds, meta["step"], epochs, epochs * self.train_audio_s,
                     _digest(*((self.out / rel).read_bytes() for rel in outputs)))

    def check(self):
        bad = []
        entries = corpus.read_manifest(self.manifest)
        root = self.manifest.parent
        clean_of = {}
        for e in entries:
            clean_of[_digest(corpus.read_wav(root / e["clean"]).tobytes())] = e
        expected = sorted(e["clean"] for e in entries if e["split"] == "train"
                          and e["speaker_id"] != self.target)
        if len(self.scored) != self.sizes.gru_epochs:
            bad.append(f"train-gru: {len(self.scored)} epochs observed,"
                       f" {self.sizes.gru_epochs} configured")
        for epoch, digests in enumerate(self.scored, 1):
            seen = sorted(clean_of[d]["clean"] if d in clean_of else "?"
                          for d in digests)
            if seen != expected:
                bad.append(f"train-gru: epoch {epoch} scored {len(seen)}"
                           f" utterances, the split has {len(expected)}"
                           " (or some differ)")
            if any(d in clean_of and clean_of[d]["speaker_id"] == self.target
                   for d in digests):
                bad.append(f"train-gru: epoch {epoch} scored the target speaker")

        report = json.loads((self.out / "report.json").read_text())
        losses = [rec["loss"] for rec in report["epochs"]]
        if not losses[-1] < losses[0]:
            bad.append(f"train-gru: training loss did not fall: {losses}")

        stored = sase.checkpoint.load_config(self.out / "final")
        model_config = sase.model.ModelConfig.from_json_dict(stored["effective_model"])
        train_config = sase.train.TrainConfig.from_json_dict(stored["train"])
        stft_config = train_config.stft

        selected = self.out / report["final"]["selected_checkpoint"]
        best = sase.checkpoint.load_params(selected)
        scores = []
        for e in entries:
            if e["split"] == "test" and e["speaker_id"] == self.target:
                clean = corpus.read_wav(root / e["clean"])
                x = clean + corpus.read_wav(root / e["noise"])
                y, _ = sase.model.enhance(x, best, model_config, stft_config)
                scores.append(oracles.si_sdr(clean, y))
        test = report["final"]["test"]
        if test["count"] != len(scores) or abs(test["si_sdr"] - np.mean(scores)) > 1e-9:
            bad.append(f"train-gru: report test SI-SDR {test['si_sdr']!r} over"
                       f" {test['count']} files, recomputed {np.mean(scores)!r}"
                       f" over {len(scores)}")

        final = sase.checkpoint.load_params(self.out / "final")
        e = next(e for e in entries if e["split"] == "train"
                 and e["speaker_id"] != self.target)
        pair = _pair(corpus.read_wav(root / e["clean"]),
                     corpus.read_wav(root / e["noise"]), e["speaker_id"])
        label = stored["speaker_labels"][str(e["speaker_id"])]

        def loss():
            return self.utterance_loss(pair, final, model_config, train_config,
                                       label).total

        probes = oracles.fd_probes(lambda: float(loss().data), final,
                                   _tape_grads(loss, final),
                                   np.random.default_rng([self.seed, 7]))
        return bad + oracles.fd_failures(probes, "train-gru")


class TrainFull(Workload):
    """Optimizer steps of the full model (speaker CNN + BiLSTM, 2-layer
    BiLSTM, 2 MHSA modules) on one fixed batch: the conv2d vjp dominates,
    norms and MHSA are exercised, no data loading or checkpoints."""

    name = "train-full"
    # The first two steps grow the heap to the tape's size; their page
    # faults make them about 15% slower, a cost a training run pays once.
    # They also give the loss-falls check its first step.
    warmup = 2
    repeats = False

    def setup(self):
        s = self.sizes
        n = int(round(s.full_seconds * corpus.SAMPLE_RATE))
        self.pairs = []
        for i in range(s.full_batch):
            rng = np.random.default_rng([self.seed, 202, i])
            self.pairs.append(_pair(*corpus.mixture(rng, i, n, i), i))
        self.model_config = s.full_model(n_speakers=s.full_batch)
        self.train_config = sase.train.TrainConfig(
            model=self.model_config, stft=s.stft_config())
        self.params = sase.model.init_model(self.model_config, seed=self.seed)
        stft_config = self.train_config.stft
        mean, var = sase.dsp.compute_feature_stats(
            sase.dsp.log_amplitude_features(sase.dsp.stft(p.mixture, stft_config))
            for p in self.pairs)
        self.params["norm.mean"].data = mean
        self.params["norm.var"].data = var
        self.adam = sase.optim.AdamState(lr=1e-3)
        self.losses = []
        self.audio_s = s.full_batch * n / corpus.SAMPLE_RATE

    def batch_loss(self):
        total = None
        for label, pair in enumerate(self.pairs):
            part = sase.train.utterance_loss(pair, self.params, self.model_config,
                                             self.train_config, label).total
            total = part if total is None else total + part
        return total * (1.0 / len(self.pairs))

    def round(self):
        t0 = time.perf_counter()
        with sase.autodiff.Tape():
            total = self.batch_loss()
            grads = sase.autodiff.backward(total)
        sase.optim.adam_step(self.params, {n: grads[p] for n, p in
                                           self.params.items() if p in grads},
                             self.adam)
        seconds = time.perf_counter() - t0
        loss = float(total.data)
        self.losses.append(loss)
        return Round(seconds, 1, 1, self.audio_s, _digest(
            np.float64(loss).tobytes(),
            *(self.params[n].data.tobytes() for n in sorted(self.params))))

    def state(self):
        return ({n: p.data for n, p in self.params.items()},
                copy.deepcopy(self.adam), len(self.losses))

    def restore(self, state):
        data, adam, n_losses = state
        for name, value in data.items():
            self.params[name].data = value
        self.adam = copy.deepcopy(adam)
        del self.losses[n_losses:]

    def check(self):
        bad = []
        if not all(np.isfinite(self.losses)) or not self.losses[-1] < self.losses[0]:
            bad.append(f"train-full: training loss did not fall: {self.losses}")
        n = int(round(self.sizes.probe_seconds * corpus.SAMPLE_RATE))
        first = self.pairs[0]
        pair = _pair(first.clean[:n], first.noise[:n], 0)

        def loss():
            return sase.train.utterance_loss(pair, self.params, self.model_config,
                                             self.train_config, 0).total

        probes = oracles.fd_probes(lambda: float(loss().data), self.params,
                                   _tape_grads(loss, self.params),
                                   np.random.default_rng([self.seed, 7]))
        return bad + oracles.fd_failures(probes, "train-full")


class Enhance(Workload):
    """In-process ``sase enhance`` of seeded mixtures with a full-model
    checkpoint, one call per file: forward only, no tape. conv2d's patch
    matrix, the LSTM loop and K x K attention set the time; memory peaks
    here."""

    name = "enhance"

    def setup(self):
        s = self.sizes
        (self.work / "in").mkdir(parents=True)
        self.inputs = []
        for i, seconds in enumerate(s.enhance_seconds):
            rng = np.random.default_rng([self.seed, 303, i])
            n = int(round(seconds * corpus.SAMPLE_RATE))
            clean, noise = corpus.mixture(rng, i % 4, n, i)
            path = self.work / "in" / f"mix{i}.wav"
            corpus.write_wav(path, clean.astype(np.float64) + noise)
            self.inputs.append(path)
        self.cycle = len(self.inputs)
        self.samples = [int(round(t * corpus.SAMPLE_RATE))
                        for t in s.enhance_seconds]
        self.model_config = s.full_model(n_speakers=4)
        stft_config = s.stft_config()
        params = sase.model.init_model(self.model_config, seed=self.seed)
        mean, var = sase.dsp.compute_feature_stats(
            sase.dsp.log_amplitude_features(
                sase.dsp.stft(corpus.read_wav(p), stft_config))
            for p in self.inputs)
        params["norm.mean"].data = mean
        params["norm.var"].data = var
        self.checkpoint = self.work / "checkpoint"
        train_config = sase.train.TrainConfig(model=self.model_config,
                                              stft=stft_config)
        sase.checkpoint.save_params(self.checkpoint, params, extra_config={
            "train": train_config.to_json_dict(),
            "effective_model": self.model_config.to_json_dict(),
            "speaker_labels": {str(i): i for i in range(4)}})
        self.calls = 0
        # Per input, from its latest call: (waveform, mask real, mask imag,
        # posterior) as the command's enhance call returned them.
        self.returned = [None] * len(self.inputs)
        self.current = None

        def keep_results(fn):
            def enhance(*args, **kwargs):
                y, output = fn(*args, **kwargs)
                self.returned[self.current] = (
                    y, output.mask_real.data, output.mask_imag.data,
                    output.posterior.data)
                return y, output
            return enhance

        # Observation hook: keeps what the command's enhance call returned.
        self.hook(sase.cli, "enhance", keep_results)

    def round(self):
        i = self.current = self.calls % len(self.inputs)
        self.calls += 1
        path = self.inputs[i]
        out = self._output(path).parent
        if out.exists():
            shutil.rmtree(out)
        t0 = time.perf_counter()
        _cli(["enhance", "--checkpoint", str(self.checkpoint), "--out-dir",
              str(out), str(path)])
        seconds = time.perf_counter() - t0
        audio_s = self.samples[i] / corpus.SAMPLE_RATE
        return Round(seconds, 1, self.samples[i] / sum(self.samples), audio_s,
                     _digest(self._output(path).read_bytes()))

    def state(self):
        return self.calls

    def restore(self, state):
        self.calls = state

    def _output(self, path):
        return self.work / f"out-{path.stem}" / f"{path.stem}.enhanced.wav"

    def check(self):
        bad = []
        dft, hop, win = self.sizes.stft
        for path, returned in zip(self.inputs, self.returned):
            if returned is None:
                bad.append(f"enhance: {path.name} was never enhanced")
                continue
            y, mask_re, mask_im, posterior = returned
            x = corpus.read_wav(path)
            written = corpus.read_wav(self._output(path))
            if written.size != x.size or not np.all(np.isfinite(written)):
                bad.append(f"enhance: {path.name}: {written.size} samples for"
                           f" {x.size} in, or not finite")
                continue
            if not np.array_equal(written, y.astype(np.float32)):
                bad.append(f"enhance: {path.name}: the WAV does not read back")
            ref = oracles.resynthesize(x, mask_re, mask_im, dft, hop, win)
            err = np.max(np.abs(y - ref))
            if not err <= 1e-9 * max(1.0, np.max(np.abs(ref))):
                bad.append(f"enhance: {path.name}: output differs from the"
                           f" resynthesized mask by {err:.3g}")
            if abs(np.sum(posterior) - 1.0) > 1e-12 or np.any(posterior < 0):
                bad.append(f"enhance: {path.name}: posterior {posterior} is"
                           " not a distribution")
        shortest = int(np.argmin(self.samples))
        if self.returned[shortest] is None:
            return bad
        x = corpus.read_wav(self.inputs[shortest])
        params = sase.checkpoint.load_params(self.checkpoint)
        with sase.autodiff.Tape():
            taped = sase.model.forward(sase.dsp.stft(x, self.sizes.stft_config()),
                                       params, self.model_config)
        _, mask_re, mask_im, _ = self.returned[shortest]
        if not (np.array_equal(taped.mask_real.data, mask_re)
                and np.array_equal(taped.mask_imag.data, mask_im)):
            bad.append("enhance: the mask under a Tape differs from the"
                       " no-tape mask")
        return bad


WORKLOADS = {w.name: w for w in (TrainGru, TrainFull, Enhance)}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name, seed, seconds, trace, work, sizes=STANDARD):
    """Set up, time rounds for ``seconds``, check; returns the result dict.

    With ``trace`` each round runs twice from the same state, untraced and
    then traced, and the two must produce byte-identical outputs.
    """
    workload = WORKLOADS[name](work, seed, sizes)
    try:
        return _measure(workload, seconds, trace)
    finally:
        workload.close()


# Whole cycles a run repeats at least, so that the repeated-rounds check
# always has two rounds of each input to compare.
MIN_CYCLES = 2


def _measure(workload, seconds, trace):
    t0 = time.perf_counter()
    workload.setup()
    setup_s = time.perf_counter() - t0
    warm = [workload.round() for _ in range(workload.warmup)]
    start = time.perf_counter()

    def cycles(rounds_per_cycle):
        """Yield whole cycles while fewer than MIN_CYCLES ran or the next,
        at the mean cycle length so far, would end within ``seconds``."""
        done = 0
        while (done < MIN_CYCLES
               or (time.perf_counter() - start) * (1 + 1 / done) <= seconds):
            yield from range(rounds_per_cycle)
            done += 1

    rounds, problems = [], []
    if trace:
        tracer = Tracer()
        plain = traced = 0.0
        for _ in cycles(workload.cycle):
            state = workload.state()
            a = workload.round()
            workload.restore(state)
            with tracer:
                b = workload.round()
            rounds += [a, b]
            plain += a.seconds
            traced += b.seconds
            if a.digest != b.digest:
                problems.append(f"{workload.name}: traced round {len(rounds) // 2}"
                                " output differs from the untraced round")
        metrics = tracer.metrics(sum(r.ops for r in rounds[1::2]))
        metrics["trace.overhead_pct"] = {"value": 100.0 * (traced / plain - 1.0),
                                         "unit": "%"}
        problems += tracer.problems
    else:
        for _ in cycles(workload.cycle):
            rounds.append(workload.round())
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in {
            "setup_s": (setup_s, "s"),
            "epoch_s": (statistics.median(r.seconds / r.passes for r in rounds), "s"),
            "step_s": (statistics.median(r.seconds / r.ops for r in rounds), "s"),
            "enhance_rtf": (statistics.median(r.seconds / r.audio_s
                                              for r in rounds), "s/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }.items()}
        if workload.repeats and any(
                len({r.digest for r in rounds[i::workload.cycle]}) > 1
                for i in range(workload.cycle)):
            problems.append(f"{workload.name}: repeated rounds gave different"
                            " outputs")
    problems += workload.check()
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {"correct": not problems,
            "attempted": sum(r.ops for r in warm + rounds),
            "failed": 0, "metrics": metrics}
