"""Fast tests of the benchmark itself, at toy sizes.

Run with ``python -m pytest benchmarks/tests``. The smoke runs show every
workload completes with the metrics BENCHMARK.json names; the other tests
break the program on purpose and show that the matching check fails.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import sase.autodiff
import sase.cli
import sase.data
import sase.layers
import sase.model
import sase.optim
import sase.train
import workloads

SEED = 3
SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def run(name, tmp_path, trace=False):
    return workloads.run(name, seed=SEED, seconds=0, trace=trace,
                         work=tmp_path / "work", sizes=workloads.TINY)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_end_to_end(name, tmp_path):
    result = run(name, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    shown = {m["name"] for m in SPEC["end_to_end"]}
    assert shown >= set(result["metrics"])
    assert {"setup_s", "peak_rss_mb"} <= set(result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_traced(name, tmp_path):
    result = run(name, tmp_path, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    nodes = result["metrics"]["autodiff.tape_nodes"]["value"]
    assert (nodes == 0) == (name == "enhance")


def test_workload_names_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


def failures(capsys):
    return [line for line in capsys.readouterr().err.splitlines()
            if line.startswith("check failed:")]


def test_gradient_probe_catches_scaled_vjp(tmp_path, capsys, monkeypatch):
    record = sase.autodiff._record

    def scaled(data, parents, vjp, name):
        if name == "matmul":
            inner = vjp
            vjp = lambda g: tuple(1.01 * x for x in inner(g))  # noqa: E731
        return record(data, parents, vjp, name)

    monkeypatch.setattr(sase.autodiff, "_record", scaled)
    assert not run("train-full", tmp_path)["correct"]
    assert any("gradient probe" in line for line in failures(capsys))


def test_resynthesis_catches_perturbed_mask(tmp_path, capsys, monkeypatch):
    apply_mask = sase.model.apply_mask

    def perturbed(spec, mask):
        return apply_mask(spec, type(mask)(mask.real * 1.01, mask.imag))

    monkeypatch.setattr(sase.model, "apply_mask", perturbed)
    assert not run("enhance", tmp_path)["correct"]
    assert any("resynthesized mask" in line for line in failures(capsys))


def test_coverage_catches_dropped_utterance(tmp_path, capsys, monkeypatch):
    make_batches = sase.train.make_batches

    def dropping(*args, **kwargs):
        batches = make_batches(*args, **kwargs)
        return [batches[0][1:]] + batches[1:]

    monkeypatch.setattr(sase.train, "make_batches", dropping)
    assert not run("train-gru", tmp_path)["correct"]
    assert any("scored" in line for line in failures(capsys))


def test_report_check_catches_wrong_test_score(tmp_path, capsys, monkeypatch):
    si_sdr = sase.train.si_sdr
    monkeypatch.setattr(sase.train, "si_sdr", lambda s, y: si_sdr(s, y) + 0.5)
    assert not run("train-gru", tmp_path)["correct"]
    assert any("test SI-SDR" in line for line in failures(capsys))


def test_node_count_catches_untraced_record_binding(tmp_path, capsys, monkeypatch):
    record = sase.autodiff._record
    # A binding the tracer cannot recognise as the tape's _record.
    monkeypatch.setattr(sase.layers, "_record", lambda *a: record(*a))
    assert not run("train-full", tmp_path, trace=True)["correct"]
    assert any("attributed" in line for line in failures(capsys))


def test_loss_check_catches_gradient_ascent(tmp_path, capsys, monkeypatch):
    adam_step = sase.optim.adam_step

    def ascending(params, grads, state):
        adam_step(params, {n: -g for n, g in grads.items()}, state)

    monkeypatch.setattr(sase.optim, "adam_step", ascending)  # train-full
    monkeypatch.setattr(sase.train, "adam_step", ascending)  # sase train
    for name in ("train-full", "train-gru"):
        assert not run(name, tmp_path / name)["correct"]
        assert any(f"{name}: training loss did not fall" in line
                   for line in failures(capsys))


def test_target_check_catches_target_speaker_utterance(tmp_path, capsys,
                                                       monkeypatch):
    iter_loaded_batches = sase.train.iter_loaded_batches
    target = SEED % workloads.TINY.gru_speakers

    def leaking(manifest, batches, *args, **kwargs):
        entry = next(e for e in manifest.entries if e["speaker_id"] == target)
        for i, pairs in enumerate(iter_loaded_batches(manifest, batches,
                                                      *args, **kwargs)):
            yield pairs + [sase.data.load_pair(manifest, entry)] if i == 0 else pairs

    # After the program's own leakage assertion on the batch lists.
    monkeypatch.setattr(sase.train, "iter_loaded_batches", leaking)
    assert not run("train-gru", tmp_path)["correct"]
    assert any("scored the target speaker" in line for line in failures(capsys))


def test_repeat_check_catches_nondeterministic_training(tmp_path, capsys,
                                                        monkeypatch):
    adam_step = sase.optim.adam_step
    calls = []

    def drifting(params, grads, state):
        calls.append(None)  # a step size that never repeats between calls
        adam_step(params, {n: g * (1 + 1e-9 * len(calls))
                           for n, g in grads.items()}, state)

    monkeypatch.setattr(sase.train, "adam_step", drifting)
    assert not run("train-gru", tmp_path)["correct"]
    assert failures(capsys) == ["check failed: train-gru: repeated rounds gave"
                                " different outputs"]


def test_trace_check_catches_output_changed_by_tracing(tmp_path, capsys,
                                                       monkeypatch):
    tracing = []

    class FlaggingTracer(workloads.Tracer):
        def __enter__(self):
            tracing.append(None)
            return super().__enter__()

        def __exit__(self, *exc):
            tracing.clear()
            return super().__exit__(*exc)

    adam_step = sase.optim.adam_step

    def nudged(params, grads, state):
        adam_step(params, grads, state)
        if tracing:  # one ulp in one parameter, only while traced
            p = params[sorted(params)[0]]
            p.data = np.nextafter(p.data, np.inf)

    monkeypatch.setattr(workloads, "Tracer", FlaggingTracer)
    monkeypatch.setattr(sase.optim, "adam_step", nudged)
    assert not run("train-full", tmp_path, trace=True)["correct"]
    assert any("differs from the untraced round" in line
               for line in failures(capsys))


def test_tape_check_catches_mask_that_depends_on_tape(tmp_path, capsys,
                                                      monkeypatch):
    forward = sase.model.forward

    def tape_dependent(*args, **kwargs):
        out = forward(*args, **kwargs)
        if sase.autodiff.active_tape() is not None:
            out.mask_real = out.mask_real * 1.01
        return out

    monkeypatch.setattr(sase.model, "forward", tape_dependent)
    assert not run("enhance", tmp_path)["correct"]
    assert failures(capsys) == ["check failed: enhance: the mask under a Tape"
                                " differs from the no-tape mask"]


def test_posterior_check_catches_unnormalised_posterior(tmp_path, capsys,
                                                        monkeypatch):
    forward = sase.model.forward

    def scaled(*args, **kwargs):
        out = forward(*args, **kwargs)
        out.posterior = out.posterior * 1.01
        return out

    monkeypatch.setattr(sase.model, "forward", scaled)
    assert not run("enhance", tmp_path)["correct"]
    lines = failures(capsys)
    assert lines and all("is not a distribution" in line for line in lines)


@pytest.mark.parametrize("change, message", [
    (lambda y: y[:-1], "samples for"),
    (lambda y: y * np.float32(0.5), "does not read back"),
])
def test_output_check_catches_wrong_wav(tmp_path, capsys, monkeypatch,
                                        change, message):
    write_wav = sase.cli.write_wav
    monkeypatch.setattr(sase.cli, "write_wav",
                        lambda path, rate, y: write_wav(path, rate, change(y)))
    assert not run("enhance", tmp_path)["correct"]
    lines = failures(capsys)
    assert lines and all(message in line for line in lines)


def test_resynthesis_oracle_matches_program():
    import oracles
    from sase.dsp import ComplexMask, StftConfig, apply_mask, istft, stft

    rng = np.random.default_rng(0)
    config = StftConfig(64, 16, "blackman", 64)
    x = rng.standard_normal(1000)
    spec = stft(x, config)
    mask = ComplexMask(rng.standard_normal(spec.shape), rng.standard_normal(spec.shape))
    y = istft(apply_mask(spec, mask), config, x.size)
    ref = oracles.resynthesize(x, mask.real, mask.imag, 64, 16, 64)
    assert np.max(np.abs(y - ref)) < 1e-12
