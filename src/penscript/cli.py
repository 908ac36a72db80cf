"""Command line front end wiring the modules into reproducible runs.

Every command takes an explicit --seed (no wall-clock randomness), reads
and writes plain files, and prints a JSON summary to stdout. Dataset
files are the (data, labels) pair used throughout; configs are JSON
objects mirroring the typed configs, under keys model/train/loss/augment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from penscript import metrics
from penscript.dataio import (
    Alphabet,
    FoldPlan,
    Sample,
    build_alphabet,
    equations_alphabet,
    label_entries,
    make_splits,
    parse_recording,
    write_recording,
)
from penscript.jsonconfig import check_object, parse
from penscript.losses import CHARACTER_LOSSES, LossParams, beam_decode, greedy_decode
from penscript.netcore.model import (
    ModelConfig,
    load_checkpoint,
    save_checkpoint,
)
from penscript.netcore.train import TrainConfig, predict, train
from penscript.preprocess import AugmentConfig, augment, interpolate
from penscript.seeding import derive_seed
from penscript.segment import split_equation
from penscript import fdcheck


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _read_json(path: str, what: str):
    """The parsed JSON file; a ValueError for text that is not JSON names the file."""
    return parse(_read(path), f"{what} {path}")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    return check_object(_read_json(path, "config"), f"config {path}", {})


def _section(cfg: dict, key: str, path: str | None) -> dict:
    """The config file's `key` object, or {} when the file has none."""
    return check_object(cfg.get(key, {}), f"config {path} section {key!r}", {})


def _from_config(cls, d: dict, path: str | None):
    """cls.from_dict(d); a shape fault names the config file, when one was read."""
    return cls.from_dict(d, None if path is None else f"config {path}: {cls.__name__}")


def _alphabet(choice: str, labels: list[str]) -> Alphabet:
    if choice == "equations":
        return equations_alphabet()
    if choice == "auto":
        return build_alphabet(labels)
    raise ValueError(f"unknown alphabet {choice!r}")


def _load_dataset(args) -> tuple[list[Sample], Alphabet]:
    labels_text = _read(args.labels)
    strings = []
    if args.alphabet == "auto":
        strings = [entry["label"] for _, entry in label_entries(labels_text)]
    alphabet = _alphabet(args.alphabet, strings)
    samples = parse_recording(_read(args.data), labels_text, alphabet)
    return samples, alphabet


def _write_dataset(
    data_path: Path, labels_path: Path, samples: list[Sample], alphabet: Alphabet
) -> str:
    """Write samples as a (data, labels) file pair; returns the data text."""
    data_text, labels_text = write_recording(samples, alphabet)
    data_path.write_text(data_text, encoding="utf-8")
    labels_path.write_text(labels_text, encoding="utf-8")
    return data_text


def _emit(obj: dict) -> None:
    json.dump(obj, sys.stdout, indent=2, ensure_ascii=False)
    sys.stdout.write("\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_ingest(args) -> int:
    samples, alphabet = _load_dataset(args)
    out = _out_dir(args)
    _write_dataset(out / "data.csv", out / "labels.jsonl", samples, alphabet)

    histogram = {s: 0 for s in alphabet.symbols}
    for s in samples:
        for i in s.label:
            histogram[alphabet.decode(i)] += 1
    by_len: dict[int, list[int]] = {}
    for s in samples:
        by_len.setdefault(len(s.label), []).append(s.num_timesteps)
    length_stats = {
        str(k): {
            "count": len(v),
            "mean_timesteps": float(np.mean(v)),
            "std_timesteps": float(np.std(v)),
        }
        for k, v in sorted(by_len.items())
    }
    _emit(
        {
            "samples": len(samples),
            "writers": len({s.writer_id for s in samples}),
            "class_histogram": histogram,
            "length_stats": length_stats,
        }
    )
    return 0


def cmd_split(args) -> int:
    samples, _ = _load_dataset(args)
    plan = make_splits(samples, args.mode, args.k, args.seed)
    out = _out_dir(args)
    (out / "folds.json").write_text(plan.to_json(), encoding="utf-8")
    _emit(
        {
            "mode": plan.mode,
            "k": plan.k,
            "fold_sizes": [{"train": len(tr), "val": len(va)} for tr, va in plan.folds],
        }
    )
    return 0


def cmd_augment(args) -> int:
    samples, alphabet = _load_dataset(args)
    cfg_file = _load_config(args.config)
    cfg = _from_config(AugmentConfig, _section(cfg_file, "augment", args.config), args.config)
    methods = set(args.methods.split(",")) if args.methods else set()
    augmented = [
        augment(s, cfg, methods, derive_seed(args.seed, i)) for i, s in enumerate(samples)
    ]
    out = _out_dir(args)
    data_text = _write_dataset(out / "data.csv", out / "labels.jsonl", augmented, alphabet)
    digest = hashlib.sha256(data_text.encode("utf-8")).hexdigest()
    _emit({"samples": len(augmented), "methods": sorted(methods), "sha256": digest})
    return 0


def cmd_segment(args) -> int:
    samples, alphabet = _load_dataset(args)
    # every recording is split before --out is made, so a failure writes nothing
    opts = {"threshold": args.threshold, "min_len": args.min_len, "alphabet": alphabet}
    results = [split_equation(s, **opts) for s in samples]
    out = _out_dir(args)
    manifest = []
    for i, (s, result) in enumerate(zip(samples, results)):
        stem = f"sample{i:04d}"
        _write_dataset(out / f"{stem}.csv", out / f"{stem}.jsonl", result.samples, alphabet)
        manifest.append(
            {
                "index": i,
                "label": alphabet.decode_label(s.label),
                "assignment": list(result.assignment),
                "ambiguous": result.ambiguous,
            }
        )
    (out / "manifest.json").write_text(
        json.dumps(manifest, ensure_ascii=False, indent=2), encoding="utf-8"
    )
    _emit({"equations": len(samples), "characters": sum(len(r) for r in results)})
    return 0


def cmd_train(args) -> int:
    samples, alphabet = _load_dataset(args)
    cfg_file = _load_config(args.config)
    start_model, header = load_checkpoint(args.resume) if args.resume else (None, {})

    section = _section(cfg_file, "model", args.config)
    if "num_classes" in section:
        raise ValueError(
            "config key 'model.num_classes' is not read; the alphabet sets the class count"
        )
    # a resumed model supplies the defaults, and train() rejects a setting
    # that differs from it; --units sizes whichever recurrent kind results
    saved = start_model.cfg.to_dict() if start_model else {}
    model_dict = {**saved, "num_classes": alphabet.size, **section}
    if args.recurrent is not None:
        model_dict["recurrent_kind"] = args.recurrent
    kind = model_dict.get("recurrent_kind", ModelConfig.recurrent_kind)
    for flag, key in (
        ("filters", "conv_filters"),
        ("kernel", "conv_kernel"),
        ("pool", "pool_size"),
        ("units", "lstm_units" if kind == "LSTM" else "bilstm_units"),
        ("dropout", "dropout_rate"),
    ):
        value = getattr(args, flag)
        if value is not None:
            model_dict[key] = value
    if args.no_batchnorm:
        model_dict["use_batchnorm"] = False
    model_cfg = _from_config(ModelConfig, model_dict, args.config)

    train_dict = dict(_section(cfg_file, "train", args.config))
    if "seed" in train_dict:
        raise ValueError("config key 'train.seed' is not read; set the seed with --seed")
    train_dict["seed"] = args.seed
    for flag, key in (
        ("epochs", "epochs"),
        ("batch_size", "batch_size"),
        ("lr", "learning_rate"),
        ("target_len", "target_len"),
    ):
        value = getattr(args, flag)
        if value is not None:
            train_dict[key] = value
    if "epochs" not in train_dict:
        raise ValueError("epochs must be set via --epochs or the config file")
    train_cfg = _from_config(TrainConfig, train_dict, args.config)

    loss_params = _from_config(LossParams, _section(cfg_file, "loss", args.config), args.config)

    if args.folds:
        plan = FoldPlan.from_dict(_read_json(args.folds, "fold plan"), f"fold plan {args.folds}")
        index = 0 if args.fold is None else args.fold
        if not 0 <= index < plan.k:
            raise ValueError(f"--fold {index} is outside the plan's folds 0..{plan.k - 1}")
        fold = plan.folds[index]
    elif args.fold is not None:
        raise ValueError("--fold needs a fold plan from --folds")
    else:
        everything = tuple(range(len(samples)))
        fold = (everything, everything)

    saved_symbols = header.get("alphabet")
    if saved_symbols is not None and saved_symbols != list(alphabet.symbols):
        raise ValueError(
            f"--resume: the checkpoint's alphabet is {saved_symbols},"
            f" but this dataset's is {list(alphabet.symbols)}"
        )

    model, history = train(
        samples, fold, model_cfg, train_cfg, args.loss, loss_params, model=start_model
    )

    out = _out_dir(args)
    with open(out / "history.jsonl", "w", encoding="utf-8") as f:
        for record in history:
            f.write(json.dumps(record) + "\n")
    save_checkpoint(
        str(out / "model.ckpt"),
        model,
        extra={
            "train": train_cfg.to_dict(),
            "loss": args.loss,
            "loss_params": loss_params.to_dict(),
            "alphabet": list(alphabet.symbols),
            "epochs_completed": header.get("epochs_completed", 0) + train_cfg.epochs,
        },
    )
    final = history[-1] if history else {}
    _emit({"epochs": len(history), "final": final, "checkpoint": str(out / "model.ckpt")})
    return 0


def cmd_evaluate(args) -> int:
    refs = [line for line in _read(args.refs).splitlines() if line.strip()]
    hyps = [line for line in _read(args.hyps).splitlines() if line.strip()]
    if len(refs) != len(hyps):
        raise ValueError("reference and hypothesis files differ in line count")
    alphabet = _alphabet(args.alphabet, refs + hyps)
    scripts = [metrics.edit_distance(r, h) for r, h in zip(refs, hyps)]
    hists = metrics.error_positions(scripts, [len(r) for r in refs], args.bins)
    report = {
        "cer": metrics.cer_of_scripts(scripts),
        "wer": metrics.wer([[r] for r in refs], [[h] for h in hyps]),
        "histograms": {k: v.tolist() for k, v in hists.items()},
        "confusion": metrics.confusion_matrix(scripts, alphabet).tolist(),
        "confusion_symbols": list(alphabet.symbols),
    }
    if all(len(r) == 1 for r in refs) and all(len(h) == 1 for h in hyps):
        report["crr"] = metrics.crr(refs, hyps)
    _emit(report)
    return 0


def cmd_decode(args) -> int:
    if args.beam < 1:
        raise ValueError(f"--beam must be >= 1, got {args.beam}")
    model, header = load_checkpoint(args.checkpoint)
    if args.beam > 1 and model.task != "seq2seq":
        raise ValueError(f"--beam {args.beam} needs a seq2seq model, not a {model.task} one")
    # load_checkpoint has checked these fields when present; decode needs them
    check_object(header, f"checkpoint {args.checkpoint} header", {"alphabet": list, "train": dict})
    alphabet = Alphabet(header["alphabet"])
    samples = parse_recording(_read(args.data), _read(args.labels), alphabet)
    if samples[0].num_channels != model.in_channels:
        raise ValueError(
            f"checkpoint {args.checkpoint} takes {model.in_channels} input channels,"
            f" but data {args.data} has {samples[0].num_channels}"
        )

    decode = greedy_decode if args.beam == 1 else lambda y: beam_decode(y, args.beam)
    hyps = predict(
        model,
        (interpolate(s, header["train"]["target_len"]).values[None] for s in samples),
        [f"recording {i}" for i in range(len(samples))],
        decode,
    )
    refs = [s.label for s in samples]
    decoded = [
        {"reference": alphabet.decode_label(r), "hypothesis": alphabet.decode_label(h)}
        for r, h in zip(refs, hyps)
    ]
    _emit({"decoded": decoded, "cer": metrics.cer(refs, hyps)})
    return 0


def cmd_gradcheck(args) -> int:
    if not 0 < args.tolerance < float("inf"):
        raise ValueError(f"--tolerance must be a finite positive number, got {args.tolerance!r}")
    report = fdcheck.run_all(args.seed)
    worst = max(report.values())
    _emit({"max_rel_error": {k: float(v) for k, v in report.items()}, "worst": worst})
    return 0 if worst < args.tolerance else 1


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="recording data file")
    p.add_argument("--labels", required=True, help="labels file, one JSON object per line")
    p.add_argument(
        "--alphabet",
        default="equations",
        choices=("equations", "auto"),
        help="label alphabet: the fixed 15-symbol equation set, or built from labels",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="penscript",
        description="Handwriting recognition from pen sensor time-series",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed (no wall-clock seeding)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse and summarize a dataset")
    _add_dataset_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("split", help="write a k-fold train/validation plan")
    _add_dataset_args(p)
    p.add_argument("--mode", required=True, choices=("WD", "WI"))
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("augment", help="write an augmented copy of a dataset")
    _add_dataset_args(p)
    p.add_argument("--methods", default="scale,shift,jitter,mag_warp,time_warp")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_augment)

    p = sub.add_parser("segment", help="split equations into character samples")
    _add_dataset_args(p)
    p.add_argument("--threshold", type=float, default=0.02)
    p.add_argument("--min-len", dest="min_len", type=int, default=3)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_segment)

    p = sub.add_parser("train", help="train a model")
    _add_dataset_args(p)
    p.add_argument("--loss", required=True, help="ctc or one of " + ", ".join(CHARACTER_LOSSES))
    p.add_argument("--folds", default=None, help="fold plan JSON; omit to train on everything")
    p.add_argument("--fold", type=int, default=None, help="fold of the plan to train on (default 0)")
    p.add_argument("--config", default=None)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--target-len", dest="target_len", type=int, default=None)
    p.add_argument("--filters", type=int, default=None)
    p.add_argument("--kernel", type=int, default=None)
    p.add_argument("--pool", type=int, default=None)
    p.add_argument("--units", type=int, default=None)
    p.add_argument("--recurrent", choices=("LSTM", "BiLSTM"), default=None)
    p.add_argument("--dropout", type=float, default=None)
    p.add_argument("--no-batchnorm", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="score hypothesis labels against references")
    p.add_argument("--refs", required=True, help="reference labels, one per line")
    p.add_argument("--hyps", required=True, help="hypothesis labels, one per line")
    p.add_argument("--alphabet", default="auto", choices=("equations", "auto"))
    p.add_argument("--bins", type=int, default=10)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("decode", help="decode samples with a trained model")
    # no --alphabet: the checkpoint header holds the one the model was trained with
    p.add_argument("--data", required=True, help="recording data file")
    p.add_argument("--labels", required=True, help="labels file, one JSON object per line")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--beam", type=int, default=1, help="beam width (ctc models); 1 = greedy")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("gradcheck", help="finite-difference checks on losses and layers")
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
