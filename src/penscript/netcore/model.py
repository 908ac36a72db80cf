"""The recognition architecture and its checkpoint format.

One convolution block (conv -> max-pool -> batchnorm -> dropout) feeds a
recurrent stack, then a dense head. The sequence head emits per-frame
log-probabilities over classes plus blank; the character head mean-pools
over time and emits one class distribution through an extra dense layer.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from penscript.dataio import Alphabet, Sample
from penscript.jsonconfig import JsonConfig, check_object, check_ranges, parse
from penscript.netcore import tensor as T
from penscript.netcore.layers import BatchNorm1d, BiLSTM, Conv1d, Dense, Dropout, LSTM, MaxPool1d
from penscript.netcore.tensor import Tensor

TASKS = ("seq2seq", "char")


@dataclass(frozen=True)
class ModelConfig(JsonConfig):
    num_classes: int
    conv_filters: int = 200
    conv_kernel: int = 4
    pool_size: int = 2
    dropout_rate: float = 0.2
    recurrent_kind: str = "BiLSTM"
    lstm_units: int = 100
    bilstm_units: int = 60
    bilstm_layers: int = 2
    dense_units: int = 100
    use_batchnorm: bool = True

    def __post_init__(self) -> None:
        check_ranges(self, {
            "num_classes": "[1, inf)", "conv_filters": "[1, inf)", "conv_kernel": "[1, inf)",
            "pool_size": "[1, inf)", "lstm_units": "[1, inf)", "bilstm_units": "[1, inf)",
            "bilstm_layers": "[1, inf)", "dense_units": "[1, inf)", "dropout_rate": "[0, 1)",
        })
        if self.recurrent_kind not in ("LSTM", "BiLSTM"):
            raise ValueError("recurrent_kind must be 'LSTM' or 'BiLSTM'")


class RecognitionModel:
    """Conv trunk + recurrent stack + task head, assembled from a config."""

    def __init__(self, cfg: ModelConfig, in_channels: int, task: str, rng: np.random.Generator):
        if task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}")
        self.cfg = cfg
        self.task = task
        self.in_channels = in_channels

        self.conv = Conv1d(in_channels, cfg.conv_filters, cfg.conv_kernel, rng)
        self.pool = MaxPool1d(cfg.pool_size)
        self.norm = BatchNorm1d(cfg.conv_filters) if cfg.use_batchnorm else None
        self.drop = Dropout(cfg.dropout_rate)

        self.recurrent = []
        width = cfg.conv_filters
        if cfg.recurrent_kind == "LSTM":
            self.recurrent.append(LSTM(width, cfg.lstm_units, rng))
            width = cfg.lstm_units
        else:
            for _ in range(cfg.bilstm_layers):
                self.recurrent.append(BiLSTM(width, cfg.bilstm_units, rng))
                width = 2 * cfg.bilstm_units

        if task == "seq2seq":
            self.head = Dense(width, cfg.num_classes + 1, rng)
            self.char_hidden = None
        else:
            self.char_hidden = Dense(width, cfg.dense_units, rng)
            self.head = Dense(cfg.dense_units, cfg.num_classes, rng)

    def forward(
        self, batch: np.ndarray, mode: str, rng: np.random.Generator | None = None
    ) -> Tensor:
        """Log-probabilities for a (batch, time, channels) array.

        seq2seq: (batch, ceil(time/pool), classes+1); char: (batch, classes).
        An eval forward records no tape (tensor.no_tape): its output is a
        leaf, and backward through it reaches no parameter.
        """
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        with T.no_tape() if mode == "eval" else nullcontext():
            x = Tensor(batch)
            x = self.conv(x)
            x = self.pool(x)
            if self.norm is not None:
                x = self.norm(x, mode)
            x = self.drop(x, mode, rng)
            for layer in self.recurrent:
                x = layer(x)
            if self.task == "seq2seq":
                return T.log_softmax_op(self.head(x))
            x = T.mean_time(x)
            x = T.relu(self.char_hidden(x))
            return T.log_softmax_op(self.head(x))

    def output_frames(self, frames: int) -> int:
        """The sequence head's frame count for inputs of this many frames."""
        return -(-frames // self.cfg.pool_size)

    def parameters(self):
        """(name, Tensor) pairs in checkpoint order."""
        named = [("conv.w", self.conv.w), ("conv.b", self.conv.b)]
        if self.norm is not None:
            named += [(f"norm.{n}", p) for n, p in self.norm.parameters()]
        for i, layer in enumerate(self.recurrent):
            named += [(f"recurrent{i}.{n}", p) for n, p in layer.parameters()]
        if self.char_hidden is not None:
            named += [(f"char_hidden.{n}", p) for n, p in self.char_hidden.parameters()]
        named += [(f"head.{n}", p) for n, p in self.head.parameters()]
        return named

    def buffers(self):
        """Non-trainable named arrays (batchnorm running stats)."""
        if self.norm is None:
            return []
        return [(f"norm.{n}", a) for n, a in self.norm.buffers()]


def forward_seq2seq(sample: Sample, model: RecognitionModel, mode: str = "eval") -> np.ndarray:
    """Per-frame log-probabilities for one sample, as a plain array."""
    if model.task != "seq2seq":
        raise ValueError("model was built for the character task")
    return model.forward(sample.values[None, :, :], mode).data[0]


def save_checkpoint(
    path: str,
    model: RecognitionModel,
    extra: dict | None = None,
) -> None:
    """One-file checkpoint: JSON header line + little-endian float64 blob."""
    arrays = [(n, p.data) for n, p in model.parameters()] + model.buffers()
    header = {
        "model": model.cfg.to_dict(),
        "task": model.task,
        "in_channels": model.in_channels,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
    }
    if extra:
        header.update(extra)
    blob = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in arrays)
    with open(path, "wb") as f:
        f.write(json.dumps(header).encode("utf-8"))
        f.write(b"\n")
        f.write(blob)


_HEADER_KINDS = {"model": dict, "task": str, "in_channels": int, "arrays": list}
# the run fields the train command writes; each is checked when present
_RUN_FIELD_KINDS = {"epochs_completed": int, "alphabet": list, "train": dict}


def load_checkpoint(path: str) -> tuple[RecognitionModel, dict]:
    """Rebuild the model from a checkpoint; returns (model, header).

    A header line that is not a JSON object holding model, task,
    in_channels and arrays of the right kinds, a header or blob that does
    not hold exactly the model's arrays, an array holding NaN or inf, or a
    negative running variance fails with a ValueError naming the file and
    the key or array. So does a run field, when present, that is not what
    train writes: epochs_completed an integer >= 0, alphabet a list of
    distinct symbols, one per class, and train an object whose target_len
    is an integer >= 1.
    """
    with open(path, "rb") as f:
        header_line = f.readline()
        blob = f.read()

    def bad(problem: str) -> ValueError:
        return ValueError(f"checkpoint {path}: {problem}")

    what = f"checkpoint {path} header"
    header = check_object(parse(header_line, what), what, _HEADER_KINDS)
    in_channels = header["in_channels"]
    if in_channels < 1:
        raise bad(f"in_channels must be a positive integer, got {in_channels!r}")
    try:
        cfg = ModelConfig.from_dict(header["model"])
        model = RecognitionModel(cfg, in_channels, header["task"], np.random.default_rng(0))
    except ValueError as exc:
        raise bad(str(exc)) from None

    homes = {**{name: p.data for name, p in model.parameters()}, **dict(model.buffers())}
    specs = [
        check_object(spec, f"checkpoint {path} array entry {n}", {"name": str, "shape": list})
        for n, spec in enumerate(header["arrays"])
    ]
    names = [spec["name"] for spec in specs]
    for spec, name in zip(specs, names):
        if name not in homes:
            raise bad(f"array {name!r} has no home in the model")
        if names.count(name) > 1:
            raise bad(f"array {name!r} appears twice")
        shape = list(homes[name].shape)
        if spec["shape"] != shape:
            raise bad(f"array {name!r} has shape {spec['shape']}, the model's is {shape}")
    missing = [name for name in homes if name not in names]
    if missing:
        raise bad(f"array {missing[0]!r} is missing")

    sizes = [homes[name].size for name in names]
    if len(blob) != 8 * sum(sizes):
        raise bad(f"the blob holds {len(blob)} bytes, but its manifest needs {8 * sum(sizes)}")
    for name, chunk in zip(names, np.split(np.frombuffer(blob, "<f8"), np.cumsum(sizes)[:-1])):
        if not np.isfinite(chunk).all():
            raise bad(f"array {name!r} holds a non-finite value")
        if name == "norm.running_var" and (chunk < 0).any():
            # eval batchnorm takes sqrt(var + eps): every output would be NaN
            raise bad(f"array {name!r} holds a negative variance")
        homes[name][...] = chunk.reshape(homes[name].shape)
    if model.norm is not None:
        model.norm.initialized = True

    check_object(header, what, {k: v for k, v in _RUN_FIELD_KINDS.items() if k in header})
    completed = header.get("epochs_completed", 0)
    if completed < 0:
        raise bad(f"'epochs_completed' must be a non-negative integer, got {completed!r}")
    if "alphabet" in header:
        try:
            size = Alphabet(header["alphabet"]).size
        except ValueError as exc:
            raise bad(f"'alphabet': {exc}") from None
        if size != cfg.num_classes:
            raise bad(f"'alphabet' has {size} symbols, but the model has {cfg.num_classes} classes")
    if "train" in header:
        section = check_object(header["train"], f"{what} 'train'", {"target_len": int})
        target_len = section["target_len"]
        if target_len < 1:
            raise bad(f"'train.target_len' must be a positive integer, got {target_len!r}")
    return model, header
