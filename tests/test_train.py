"""Training harness: schedule, smoke runs, determinism, resume, tables."""

import json
import threading
from dataclasses import replace

import numpy as np
import pytest

from sase.autodiff import Tensor
from sase.data import PREFETCH_THREAD, generate_corpus, load_pair
from sase.errors import DataError, NumericalError
from sase.losses import LossBreakdown, si_sdr
from sase.model import ModelConfig
from sase.train import (
    TrainConfig,
    evaluate_entries,
    lr_at,
    noisy_baseline,
    run_verification_experiment,
    train,
    write_table_csv,
)


def gru_config(**kw):
    base = dict(epochs=2, batch_size=4, seed=3, protocol="Open",
                target_speaker=0,
                model=ModelConfig(d=8, heads=2, n_bins=257, n_speakers=2,
                                  arch="gru"))
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def micro_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("micro")
    return generate_corpus(root, n_speakers=3, per_speaker=4, seed=21,
                           duration_range=(0.30, 0.42))


@pytest.fixture(scope="module")
def duo_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("duo")
    return generate_corpus(root, n_speakers=2, per_speaker=3, seed=22,
                           duration_range=(0.30, 0.40))


def test_lr_constant_through_first_half():
    cfg = TrainConfig()
    assert lr_at(1, cfg) == 0.001
    assert lr_at(50, cfg) == 0.001
    assert lr_at(100, cfg) == 0.001


def test_lr_final_value():
    cfg = TrainConfig()
    assert abs(lr_at(200, cfg) - 0.00001) < 1e-12


def test_lr_linear_midpoint():
    cfg = TrainConfig()
    assert abs(lr_at(150, cfg) - 0.000505) < 1e-12


def test_lr_non_increasing_and_piecewise_linear():
    cfg = TrainConfig()
    lrs = [lr_at(e, cfg) for e in range(1, 201)]
    assert all(b <= a + 1e-15 for a, b in zip(lrs, lrs[1:]))
    steps = np.diff(lrs[100:])  # epochs 101..200, the decay ramp
    assert np.allclose(steps, steps[0], atol=1e-12)


def test_lr_scales_with_epoch_budget():
    cfg = TrainConfig(epochs=40)
    assert lr_at(20, cfg) == 0.001
    assert abs(lr_at(30, cfg) - 0.000505) < 1e-12
    assert abs(lr_at(40, cfg) - 0.00001) < 1e-12


def test_lr_rejects_out_of_range():
    cfg = TrainConfig(epochs=40)
    with pytest.raises(ValueError):
        lr_at(0, cfg)
    with pytest.raises(ValueError):
        lr_at(41, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(lr_initial=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(augment_prob=1.5)


def test_config_json_round_trip():
    cfg = gru_config(protocol="OpenSpk", augment_prob=0.25)
    assert TrainConfig.from_json_dict(cfg.to_json_dict()) == cfg


def test_smoke_run_completes(micro_corpus, tmp_path):
    cfg = gru_config()
    params, report = train(micro_corpus, cfg, tmp_path / "run")
    assert len(report.epochs) == 2
    assert all(np.isfinite(rec["loss"]) for rec in report.epochs)
    assert (tmp_path / "run" / "resolved_config.json").exists()
    assert (tmp_path / "run" / "final" / "params.bin").exists()
    assert (tmp_path / "run" / "best" / "params.bin").exists()
    assert (tmp_path / "run" / "report.json").exists()
    assert (tmp_path / "run" / "report.csv").exists()
    assert report.final["test"]["count"] == 1
    assert len(report.wall_times) == 2
    # stats pass filled the normalization parameters
    assert not np.allclose(params["norm.var"].data, 1.0)


def test_open_protocol_excludes_target(micro_corpus, tmp_path):
    cfg = gru_config()
    _, report = train(micro_corpus, cfg, tmp_path / "run")
    labels = report.config["speaker_labels"]
    assert "0" not in labels and set(labels) == {"1", "2"}


def test_openspk_trains_ce(micro_corpus, tmp_path):
    cfg = gru_config(protocol="OpenSpk")
    _, report = train(micro_corpus, cfg, tmp_path / "run")
    assert report.config["effective_model"]["use_spk"] is True
    assert report.config["effective_model"]["n_speakers"] == 2
    assert all(rec["cross_entropy"] > 0 for rec in report.epochs)


def test_open_without_spk_has_no_ce(micro_corpus, tmp_path):
    cfg = gru_config()
    _, report = train(micro_corpus, cfg, tmp_path / "run")
    assert report.config["effective_model"]["use_spk"] is False
    assert all(rec["cross_entropy"] == 0.0 for rec in report.epochs)


def test_reports_are_bit_identical(micro_corpus, tmp_path):
    cfg = gru_config()
    train(micro_corpus, cfg, tmp_path / "a")
    train(micro_corpus, cfg, tmp_path / "b")
    ra = (tmp_path / "a" / "report.json").read_bytes()
    rb = (tmp_path / "b" / "report.json").read_bytes()
    assert ra == rb
    pa = (tmp_path / "a" / "final" / "params.bin").read_bytes()
    pb = (tmp_path / "b" / "final" / "params.bin").read_bytes()
    assert pa == pb


def test_seed_changes_the_run(micro_corpus, tmp_path):
    train(micro_corpus, gru_config(), tmp_path / "a")
    train(micro_corpus, gru_config(seed=4), tmp_path / "b")
    ra = json.loads((tmp_path / "a" / "report.json").read_text())
    rb = json.loads((tmp_path / "b" / "report.json").read_text())
    assert ra["epochs"] != rb["epochs"]


def test_resume_matches_uninterrupted(micro_corpus, tmp_path):
    cfg = gru_config(epochs=4, checkpoint_every=2)
    _, full = train(micro_corpus, cfg, tmp_path / "full")
    _, tail = train(micro_corpus, cfg, tmp_path / "tail",
                    resume_from=tmp_path / "full" / "epoch002")
    assert tail.epochs[0]["epoch"] == 3
    assert abs(tail.epochs[-1]["loss"] - full.epochs[-1]["loss"]) < 1e-10
    pa = (tmp_path / "full" / "final" / "params.bin").read_bytes()
    pb = (tmp_path / "tail" / "final" / "params.bin").read_bytes()
    assert pa == pb


def test_overfit_single_utterance_is_non_increasing(duo_corpus, tmp_path):
    # Close protocol with per_speaker=3 leaves exactly one training
    # utterance: the repeated-batch overfit oracle.
    cfg = gru_config(epochs=10, protocol="Close", target_speaker=0,
                     augment_prob=0.0)
    _, report = train(duo_corpus, cfg, tmp_path / "run")
    losses = [rec["loss"] for rec in report.epochs]
    assert len(losses) == 10
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:])), losses


def test_nan_loss_aborts_with_diagnostics(micro_corpus, tmp_path, monkeypatch):
    def poisoned(pair, params, model_config, config, label):
        return LossBreakdown(total=Tensor(np.array(np.nan)), sdr_speech=0.0,
                             sdr_noise=0.0, cross_entropy=0.0)

    monkeypatch.setattr("sase.train.utterance_loss", poisoned)
    with pytest.raises(NumericalError, match="epoch 1, batch 0"):
        train(micro_corpus, gru_config(), tmp_path / "run")


def test_nan_loss_leaves_no_prefetch_thread(micro_corpus, tmp_path,
                                            monkeypatch):
    def poisoned(pair, params, model_config, config, label):
        return LossBreakdown(total=Tensor(np.array(np.nan)), sdr_speech=0.0,
                             sdr_noise=0.0, cross_entropy=0.0)

    monkeypatch.setattr("sase.train.utterance_loss", poisoned)
    with pytest.raises(NumericalError):
        train(micro_corpus, gru_config(batch_size=1), tmp_path / "run")
    assert not [t for t in threading.enumerate() if t.name == PREFETCH_THREAD]


def test_evaluate_aggregate_is_mean(micro_corpus, tmp_path):
    cfg = gru_config(epochs=1)
    _, report = train(micro_corpus, cfg, tmp_path / "run")
    from sase.checkpoint import load_params
    params = load_params(tmp_path / "run" / "final")
    entries = [e for e in micro_corpus.entries if e["split"] == "test"
               and e["speaker_id"] == 0]
    mcfg = replace(cfg.model, use_spk=False)
    result = evaluate_entries(micro_corpus, entries, params, mcfg, cfg)
    per = result["per_utterance"]
    agg = result["aggregate"]
    assert agg["count"] == len(per)
    for key in ("si_sdr", "si_sdr_noisy", "loss"):
        assert abs(agg[key] - np.mean([r[key] for r in per])) < 1e-9


def test_evaluate_rejects_empty(micro_corpus):
    cfg = gru_config()
    with pytest.raises(DataError):
        evaluate_entries(micro_corpus, [], {}, cfg.model, cfg)


def test_noisy_baseline_matches_direct_metric(micro_corpus):
    cfg = gru_config()
    entries = [e for e in micro_corpus.entries if e["split"] == "test"]
    base = noisy_baseline(micro_corpus, entries, cfg)
    direct = [si_sdr(load_pair(micro_corpus, e).clean,
                     load_pair(micro_corpus, e).mixture) for e in entries]
    assert abs(base["si_sdr"] - np.mean(direct)) < 1e-9


def test_verification_table_layout(micro_corpus, tmp_path):
    cfg = gru_config(epochs=2)
    rows = run_verification_experiment(micro_corpus, cfg, tmp_path / "verify")
    assert [r["method"] for r in rows] == ["Noisy", "Close", "Open",
                                           "Open+SPK"]
    text = (tmp_path / "verify" / "table.csv").read_text().splitlines()
    assert text[0] == "Method,SI-SDR,Loss"
    assert len(text) == 5
    entries = [e for e in micro_corpus.entries if e["split"] == "test"
               and e["speaker_id"] == 0]
    oracle = np.mean([si_sdr(load_pair(micro_corpus, e).clean,
                             load_pair(micro_corpus, e).mixture)
                      for e in entries])
    noisy_written = float(text[1].split(",")[1])
    assert abs(noisy_written - oracle) < 1e-3


def test_table_csv_is_deterministic(tmp_path):
    rows = [{"method": "Noisy", "si_sdr": 1.23456789, "loss": -0.5}]
    write_table_csv(rows, tmp_path / "a.csv")
    write_table_csv(rows, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.csv").read_text().splitlines()[1] == \
        "Noisy,1.2346,-0.5000"
