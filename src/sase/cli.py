"""Command-line surface: synth-data, train, enhance, evaluate, verify,
inspect.

Every subcommand echoes its fully resolved configuration into the output
directory before doing any heavy work, so a run is reproducible from the
echo alone. Exit codes: 0 success, 1 usage or configuration error, 2 data
error, 3 numerical failure.
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .audio import read_wav, write_wav
from .checkpoint import load_config, load_params
from .data import generate_corpus, load_manifest
from .dsp import StftConfig
from .errors import DataError, NumericalError, ShapeError
from .layers import softmax
from .model import ModelConfig, enhance
from .train import TrainConfig, evaluate_entries, run_verification_experiment
from .train import train as run_train

DATA_DEFAULTS = {
    "n_speakers": 4, "per_speaker": 12, "snr_set": [0.0, 5.0, 10.0],
    "seed": 0, "sample_rate": 16000, "duration_range": [1.0, 2.0],
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the documented contract is 1
    def error(self, message):
        raise UsageError(message)


def _deep_update(dst, src):
    for key, value in src.items():
        if isinstance(value, dict) and isinstance(dst.get(key), dict):
            _deep_update(dst[key], value)
        else:
            dst[key] = value
    return dst


def _set_dotted(cfg, dotted, value):
    keys = dotted.split(".")
    node = cfg
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise UsageError(f"override {dotted!r} descends into a scalar")
    node[keys[-1]] = value


def _parse_override(text):
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise UsageError(f"override {text!r} is not of the form key=value")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def resolve_config(args):
    """Defaults <- config file <- --override flags <- --seed."""
    cfg = {
        "train": TrainConfig().to_json_dict(),
        "data": dict(DATA_DEFAULTS),
    }
    # surface the nested sections at the top level for override ergonomics
    for section in ("model", "loss", "stft"):
        cfg[section] = cfg["train"].pop(section)
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise DataError(f"config file not found: {path}")
        with path.open() as fh:
            _deep_update(cfg, json.load(fh))
    for text in getattr(args, "override", None) or []:
        key, value = _parse_override(text)
        _set_dotted(cfg, key, value)
    if getattr(args, "seed", None) is not None:
        cfg["train"]["seed"] = args.seed
        cfg["data"]["seed"] = args.seed
    return cfg


def build_train_config(cfg):
    merged = dict(cfg["train"])
    merged["loss"] = cfg["loss"]
    merged["model"] = cfg["model"]
    merged["stft"] = cfg["stft"]
    return TrainConfig.from_json_dict(merged)


def _echo_config(out_dir, command, cfg, **extras):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"command": command, **extras, "config": cfg}
    with (out_dir / "resolved_config.json").open("w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _checkpoint_setup(ckpt_dir):
    """Params + model/stft configs as stored next to the checkpoint."""
    stored = load_config(ckpt_dir)
    model_config = ModelConfig.from_json_dict(stored["effective_model"])
    stft_config = StftConfig(**stored["train"]["stft"])
    return load_params(ckpt_dir), model_config, stft_config, stored


def cmd_synth_data(args):
    cfg = resolve_config(args)
    data = cfg["data"]
    _echo_config(args.out_dir, "synth-data", cfg)
    manifest = generate_corpus(
        args.out_dir, n_speakers=data["n_speakers"],
        per_speaker=data["per_speaker"], snr_set=tuple(data["snr_set"]),
        seed=data["seed"], sample_rate=data["sample_rate"],
        duration_range=tuple(data["duration_range"]))
    print(f"wrote {len(manifest.entries)} utterances for"
          f" {len(manifest.speakers)} speakers under {args.out_dir}")
    return 0


def cmd_train(args):
    cfg = resolve_config(args)
    train_config = build_train_config(cfg)
    _echo_config(args.out_dir, "train", cfg, manifest=str(args.manifest))
    manifest = load_manifest(args.manifest)
    _, report = run_train(manifest, train_config, args.out_dir)
    final = report.final
    print(f"trained {train_config.epochs} epochs"
          f" ({train_config.protocol}, target speaker"
          f" {train_config.target_speaker});"
          f" test SI-SDR {final['test']['si_sdr']:.2f} dB"
          f" (noisy {final['test']['si_sdr_noisy']:.2f} dB)")
    print(f"report: {Path(args.out_dir) / 'report.json'}")
    return 0


def _frame_posteriors(logits):
    return softmax(logits.T).data  # rows = frames


def cmd_enhance(args):
    out_dir = Path(args.out_dir)
    cfg = resolve_config(args)
    _echo_config(out_dir, "enhance", cfg, checkpoint=str(args.checkpoint),
                 inputs=[str(p) for p in args.inputs],
                 diagnostics=bool(args.diagnostics))
    params, model_config, stft_config, _ = _checkpoint_setup(args.checkpoint)
    for wav_path in args.inputs:
        wav_path = Path(wav_path)
        try:
            rate, x = read_wav(wav_path)
        except (OSError, ValueError) as exc:
            raise DataError(f"cannot read {wav_path}: {exc}") from exc
        y, output = enhance(x, params, model_config, stft_config)
        out_path = out_dir / f"{wav_path.stem}.enhanced.wav"
        write_wav(out_path, rate, y)
        print(f"{wav_path} -> {out_path} ({y.size} samples)")
        if not args.diagnostics:
            continue
        if output.speaker_logits is not None:
            post = _frame_posteriors(output.speaker_logits.data)
            np.savetxt(out_dir / f"{wav_path.stem}.posterior.csv", post,
                       delimiter=",", fmt="%.17g")
        for idx, att in enumerate(output.attention):
            module, head = divmod(idx, model_config.heads)
            np.savetxt(out_dir / f"{wav_path.stem}.attention.m{module}"
                                 f"h{head}.csv",
                       att, delimiter=",", fmt="%.17g")
    return 0


def cmd_evaluate(args):
    out_dir = Path(args.out_dir)
    cfg = resolve_config(args)
    _echo_config(out_dir, "evaluate", cfg, manifest=str(args.manifest),
                 checkpoint=str(args.checkpoint), split=args.split)
    manifest = load_manifest(args.manifest)
    params, model_config, stft_config, _ = _checkpoint_setup(args.checkpoint)
    eval_config = replace(build_train_config(cfg), stft=stft_config)
    entries = manifest.split_entries(args.split)
    if not entries:
        raise DataError(f"split {args.split!r} is empty")
    result = evaluate_entries(manifest, entries, params, model_config,
                              eval_config)
    csv_path = out_dir / "evaluation.csv"
    with csv_path.open("w") as fh:
        fh.write("utterance,speaker_id,si_sdr,si_sdr_noisy,loss\n")
        for row in result["per_utterance"]:
            fh.write(f"{row['utterance']},{row['speaker_id']},"
                     f"{row['si_sdr']!r},{row['si_sdr_noisy']!r},"
                     f"{row['loss']!r}\n")
        agg = result["aggregate"]
        fh.write(f"aggregate,,{agg['si_sdr']!r},{agg['si_sdr_noisy']!r},"
                 f"{agg['loss']!r}\n")
    print(f"evaluated {agg['count']} utterances: SI-SDR"
          f" {agg['si_sdr']:.2f} dB (noisy {agg['si_sdr_noisy']:.2f} dB)")
    print(f"wrote {csv_path}")
    return 0


def cmd_verify(args):
    cfg = resolve_config(args)
    train_config = build_train_config(cfg)
    _echo_config(args.out_dir, "verify", cfg, manifest=str(args.manifest))
    manifest = load_manifest(args.manifest)
    rows = run_verification_experiment(manifest, train_config, args.out_dir)
    for row in rows:
        print(f"{row['method']:>9}: SI-SDR {row['si_sdr']:8.3f} dB,"
              f" loss {row['loss']:9.4f}")
    print(f"table: {Path(args.out_dir) / 'table.csv'}")
    return 0


def cmd_inspect(args):
    target = Path(args.target)
    if target.is_dir() and (target / "params.json").exists():
        params, model_config, stft_config, stored = _checkpoint_setup(target)
        print(f"checkpoint {target}")
        print(f"  arch {model_config.arch}, D={model_config.d},"
              f" heads={model_config.heads}, bins={model_config.n_bins},"
              f" spk_branch={model_config.use_spk}")
        print(f"  stft: dft={stft_config.dft_size} hop={stft_config.hop}"
              f" window={stft_config.window_kind}")
        total = 0
        for name in sorted(params):
            p = params[name]
            total += p.data.size
            flag = "train" if p.requires_grad else "fixed"
            print(f"  {name:32s} {str(p.shape):>14s} {flag}")
        print(f"  total parameters: {total}")
    elif target.suffix == ".jsonl":
        manifest = load_manifest(target)
        seconds = sum(e["samples"] for e in manifest.entries) \
            / manifest.sample_rate
        print(f"manifest {target}")
        print(f"  {len(manifest.entries)} utterances,"
              f" speakers {manifest.speakers},"
              f" {seconds:.1f} s audio at {manifest.sample_rate} Hz")
        for split in ("train", "dev", "test"):
            n = len(manifest.split_entries(split))
            print(f"  {split}: {n}")
        snrs = sorted({e["snr_db"] for e in manifest.entries})
        kinds = sorted({e.get("noise_kind", "?") for e in manifest.entries})
        print(f"  snr set {snrs}, noise kinds {kinds}")
    elif target.suffix == ".wav":
        try:
            rate, x = read_wav(target)
        except (OSError, ValueError) as exc:
            raise DataError(f"cannot read {target}: {exc}") from exc
        rms = float(np.sqrt(np.mean(x ** 2)))
        print(f"wav {target}: {x.size} samples, {rate} Hz,"
              f" {x.size / rate:.3f} s, rms {rms:.4f},"
              f" peak {np.max(np.abs(x)):.4f}")
    else:
        raise DataError(f"cannot inspect {target}: expected a checkpoint"
                        " directory, a .jsonl manifest, or a .wav file")
    return 0


def build_parser():
    parser = _Parser(prog="sase", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def common(p, out_required=True):
        p.add_argument("--config", help="JSON config file with train/model/"
                                        "loss/stft/data sections")
        p.add_argument("--seed", type=int, help="override every seed")
        p.add_argument("--override", action="append", metavar="KEY=VALUE",
                       help="dotted config override, e.g. model.d=64")
        p.add_argument("--out-dir", required=out_required,
                       help="directory for outputs and the config echo")

    p = sub.add_parser("synth-data", help="generate a synthetic corpus")
    common(p)
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("train", help="train one protocol arm")
    common(p)
    p.add_argument("--manifest", required=True, help="corpus manifest.jsonl")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("enhance", help="enhance WAV files with a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True, help="checkpoint directory")
    p.add_argument("--diagnostics", action="store_true",
                   help="write per-frame posterior and attention CSVs")
    p.add_argument("inputs", nargs="+", help="input WAV files")
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("evaluate", help="score a checkpoint on a manifest split")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=("train", "dev", "test"))
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("verify", help="run the three-protocol comparison")
    common(p)
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("inspect", help="describe a checkpoint, manifest, or WAV")
    p.add_argument("target")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ShapeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
