"""End-to-end CLI behavior: subcommands, exit codes, echoes, diagnostics."""

import json

import numpy as np
import pytest

from sase.cli import main
from sase.data import load_manifest
from sase.errors import NumericalError


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus plus one trained OpenSpk checkpoint, built through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    assert main(["synth-data", "--out-dir", str(corpus), "--seed", "11",
                 "--override", "data.n_speakers=3",
                 "--override", "data.per_speaker=4",
                 "--override", "data.duration_range=[0.3,0.4]"]) == 0
    config = root / "config.json"
    config.write_text(json.dumps({
        "train": {"epochs": 1, "batch_size": 4, "protocol": "OpenSpk",
                  "target_speaker": 0},
        "model": {"d": 8, "heads": 2, "arch": "gru"},
    }))
    run = root / "run"
    assert main(["train", "--manifest", str(corpus / "manifest.jsonl"),
                 "--config", str(config), "--out-dir", str(run)]) == 0
    return {"root": root, "corpus": corpus, "config": config, "run": run,
            "checkpoint": run / "final"}


def test_synth_data_outputs(workspace):
    corpus = workspace["corpus"]
    assert (corpus / "resolved_config.json").exists()
    manifest = load_manifest(corpus / "manifest.jsonl")
    assert len(manifest.entries) == 12
    assert len(list(corpus.rglob("*.wav"))) == 36
    echo = json.loads((corpus / "resolved_config.json").read_text())
    assert echo["command"] == "synth-data"
    assert echo["config"]["data"]["seed"] == 11


def test_train_outputs(workspace):
    run = workspace["run"]
    assert (run / "resolved_config.json").exists()
    assert (run / "report.json").exists()
    assert (run / "final" / "params.bin").exists()
    report = json.loads((run / "report.json").read_text())
    assert len(report["epochs"]) == 1
    assert report["config"]["effective_model"]["use_spk"] is True


def test_enhance_writes_matching_length(workspace, tmp_path):
    manifest = load_manifest(workspace["corpus"] / "manifest.jsonl")
    entry = manifest.entries[0]
    wav = workspace["corpus"] / entry["mixture"]
    out = tmp_path / "enh"
    assert main(["enhance", "--checkpoint", str(workspace["checkpoint"]),
                 "--out-dir", str(out), "--diagnostics", str(wav)]) == 0
    from sase.audio import read_wav
    _, x = read_wav(wav)
    _, y = read_wav(out / f"{wav.stem}.enhanced.wav")
    assert y.size == x.size
    post = np.loadtxt(out / f"{wav.stem}.posterior.csv", delimiter=",")
    assert post.shape[1] == 2  # two training speakers
    np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-9)
    # the reduced architecture has no attention maps to dump
    assert not list(out.glob("*.attention.*"))


def test_enhance_missing_input(workspace, tmp_path):
    code = main(["enhance", "--checkpoint", str(workspace["checkpoint"]),
                 "--out-dir", str(tmp_path), str(tmp_path / "missing.wav")])
    assert code == 2


def test_enhance_bad_checkpoint(workspace, tmp_path):
    manifest = load_manifest(workspace["corpus"] / "manifest.jsonl")
    wav = workspace["corpus"] / manifest.entries[0]["mixture"]
    empty = tmp_path / "not-a-checkpoint"
    empty.mkdir()
    code = main(["enhance", "--checkpoint", str(empty),
                 "--out-dir", str(tmp_path / "o"), str(wav)])
    assert code == 2


def test_evaluate_csv_round_trips(workspace, tmp_path):
    out = tmp_path / "eval"
    assert main(["evaluate", "--manifest",
                 str(workspace["corpus"] / "manifest.jsonl"),
                 "--checkpoint", str(workspace["checkpoint"]),
                 "--out-dir", str(out)]) == 0
    lines = (out / "evaluation.csv").read_text().splitlines()
    assert lines[0] == "utterance,speaker_id,si_sdr,si_sdr_noisy,loss"
    body = [ln.split(",") for ln in lines[1:]]
    per, agg = body[:-1], body[-1]
    assert agg[0] == "aggregate"
    for col in (2, 3, 4):
        mean = np.mean([float(row[col]) for row in per])
        assert float(agg[col]) == mean  # repr round trip is exact
    assert len(per) == 3  # one held-out test utterance per speaker


def test_evaluate_uses_checkpoint_stft_config(workspace, tmp_path):
    manifest = str(workspace["corpus"] / "manifest.jsonl")
    assert main(["train", "--manifest", manifest,
                 "--config", str(workspace["config"]),
                 "--out-dir", str(tmp_path / "run"),
                 "--override", "stft.dft_size=256",
                 "--override", "stft.window_length=256",
                 "--override", "model.n_bins=129"]) == 0
    assert main(["evaluate", "--manifest", manifest,
                 "--checkpoint", str(tmp_path / "run" / "final"),
                 "--out-dir", str(tmp_path / "eval")]) == 0
    assert (tmp_path / "eval" / "evaluation.csv").exists()


def test_evaluate_empty_split_fails(workspace, tmp_path):
    code = main(["evaluate", "--manifest",
                 str(workspace["corpus"] / "manifest.jsonl"),
                 "--checkpoint", str(workspace["checkpoint"]),
                 "--out-dir", str(tmp_path), "--split", "dev",
                 "--override", "model.d=8"])
    assert code == 0  # dev split is nonempty in this corpus


def test_verify_table_and_determinism(workspace, tmp_path):
    args = ["verify", "--manifest", str(workspace["corpus"] / "manifest.jsonl"),
            "--config", str(workspace["config"])]
    assert main(args + ["--out-dir", str(tmp_path / "v1")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "v2")]) == 0
    t1 = (tmp_path / "v1" / "table.csv").read_bytes()
    t2 = (tmp_path / "v2" / "table.csv").read_bytes()
    assert t1 == t2
    lines = t1.decode().splitlines()
    assert lines[0] == "Method,SI-SDR,Loss"
    assert [ln.split(",")[0] for ln in lines[1:]] == \
        ["Noisy", "Close", "Open", "Open+SPK"]


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_missing_required_flag_is_usage_error():
    assert main(["train", "--out-dir", "/tmp/x"]) == 1


def test_bad_override_is_usage_error(tmp_path):
    assert main(["synth-data", "--out-dir", str(tmp_path),
                 "--override", "no-equals-sign"]) == 1


def test_bad_corpus_request_is_data_error(tmp_path):
    assert main(["synth-data", "--out-dir", str(tmp_path),
                 "--override", "data.n_speakers=1"]) == 2


def test_bad_model_config_is_config_error(tmp_path, workspace):
    code = main(["train", "--manifest",
                 str(workspace["corpus"] / "manifest.jsonl"),
                 "--out-dir", str(tmp_path),
                 "--override", "model.d=8", "--override", "model.heads=3"])
    assert code == 1


def test_numerical_failure_exit_code(workspace, tmp_path, monkeypatch):
    def explode(*a, **k):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr("sase.cli.run_train", explode)
    code = main(["train", "--manifest",
                 str(workspace["corpus"] / "manifest.jsonl"),
                 "--config", str(workspace["config"]),
                 "--out-dir", str(tmp_path)])
    assert code == 3


def test_inspect_checkpoint(workspace, capsys):
    assert main(["inspect", str(workspace["checkpoint"])]) == 0
    text = capsys.readouterr().out
    assert "total parameters" in text
    assert "norm.mean" in text


def test_inspect_manifest(workspace, capsys):
    assert main(["inspect", str(workspace["corpus"] / "manifest.jsonl")]) == 0
    text = capsys.readouterr().out
    assert "12 utterances" in text
    assert "train: 6" in text


def test_inspect_wav(workspace, capsys):
    manifest = load_manifest(workspace["corpus"] / "manifest.jsonl")
    wav = workspace["corpus"] / manifest.entries[0]["clean"]
    assert main(["inspect", str(wav)]) == 0
    assert "samples" in capsys.readouterr().out


def test_inspect_bogus_target(tmp_path):
    assert main(["inspect", str(tmp_path / "nothing.xyz")]) == 2


def test_dotted_override_lands_in_echo(tmp_path):
    assert main(["synth-data", "--out-dir", str(tmp_path), "--seed", "3",
                 "--override", "data.per_speaker=2",
                 "--override", "data.n_speakers=2",
                 "--override", "data.duration_range=[0.3,0.35]",
                 "--override", "model.d=64"]) == 0
    echo = json.loads((tmp_path / "resolved_config.json").read_text())
    assert echo["config"]["data"]["per_speaker"] == 2
    assert echo["config"]["model"]["d"] == 64
