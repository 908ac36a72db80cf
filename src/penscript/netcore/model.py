"""The recognition architecture and its checkpoint format.

One convolution block (conv -> max-pool -> batchnorm -> dropout, a single
tape node: tensor.conv_block_op) feeds a recurrent stack, then a dense
head. The sequence head emits per-frame log-probabilities over classes
plus blank; the character head mean-pools over time and emits one class
distribution through an extra dense layer.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import zip_longest
from typing import Annotated

import numpy as np

from penscript.dataio import Alphabet, Sample, replacing
from penscript.jsonconfig import JsonConfig, check_object, parse
from penscript.netcore import tensor as T
from penscript.netcore.layers import BatchNorm1d, BiLSTM, Conv1d, Dense, Dropout, LSTM, MaxPool1d
from penscript.netcore.tensor import Tensor

TASKS = ("seq2seq", "char")

# TrainConfig.target_len and a checkpoint's train.target_len; train.py imports this module
TargetLen = Annotated[int, "[1, inf)"]


@dataclass(frozen=True)
class ModelConfig(JsonConfig):
    num_classes: Annotated[int, "[1, inf)"]
    conv_filters: Annotated[int, "[1, inf)"] = 200
    conv_kernel: Annotated[int, "[1, inf)"] = 4
    pool_size: Annotated[int, "[1, inf)"] = 2
    dropout_rate: Annotated[float, "[0, 1)"] = 0.2
    recurrent_kind: str = "BiLSTM"
    lstm_units: Annotated[int, "[1, inf)"] = 100
    bilstm_units: Annotated[int, "[1, inf)"] = 60
    bilstm_layers: Annotated[int, "[1, inf)"] = 2
    dense_units: Annotated[int, "[1, inf)"] = 100
    use_batchnorm: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
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
            # conv, pool, batchnorm and dropout in one tape node; the batch is
            # a constant, so conv builds no gradient into it
            norm = None if self.norm is None else self.norm.block_norm(mode)
            rate = self.drop.active_rate(mode, rng)
            x = T.conv_block_op(batch, self.conv.w, self.conv.b, self.pool.pool, norm, rate, rng)
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


BLOB_DTYPE = np.dtype("<f8")  # the checkpoint blob's element type


def _blob_arrays(model: RecognitionModel) -> list[tuple[str, np.ndarray]]:
    """The (name, array) pairs a checkpoint's blob holds, in blob order."""
    return [(n, p.data) for n, p in model.parameters()] + model.buffers()


def _manifest(arrays: list[tuple[str, np.ndarray]]) -> list[dict]:
    """The header's "arrays" list: one {name, shape} entry per blob array."""
    return [{"name": n, "shape": list(a.shape)} for n, a in arrays]


def save_checkpoint(
    path: str,
    model: RecognitionModel,
    extra: dict | None = None,
) -> None:
    """One-file checkpoint: a JSON header line, then the blob.

    The blob holds each array of _blob_arrays (the parameters, then the
    batchnorm running stats) in that order, C-ordered, as BLOB_DTYPE
    values; the header's "arrays" is their _manifest, in the same order.
    The file replaces path whole or not at all (dataio.replacing), so a
    failed save leaves an earlier checkpoint there as it was.
    """
    arrays = _blob_arrays(model)
    header = {
        "model": model.cfg.to_dict(),
        "task": model.task,
        "in_channels": model.in_channels,
        "arrays": _manifest(arrays),
    }
    if extra:
        header.update(extra)
    blob = b"".join(np.ascontiguousarray(a, dtype=BLOB_DTYPE).tobytes() for _, a in arrays)
    with replacing(path, "wb") as f:
        f.write(json.dumps(header).encode("utf-8"))
        f.write(b"\n")
        f.write(blob)


_HEADER_KINDS = {"model": dict, "task": str, "in_channels": Annotated[int, "[1, inf)"], "arrays": list}
# the run fields the train command writes; each is checked when present
_RUN_FIELD_KINDS = {"epochs_completed": Annotated[int, "[0, inf)"], "alphabet": list, "train": dict}


def load_checkpoint(path: str) -> tuple[RecognitionModel, dict]:
    """Rebuild the model from a checkpoint; returns (model, header).

    A header line that is not a JSON object holding model, task,
    in_channels (a positive integer) and arrays of the right kinds, arrays
    other than the _manifest save_checkpoint writes for that model (named
    by its first differing entry), a blob of another size, an array holding
    NaN or inf, or a negative running variance fails with a ValueError
    naming the file. So does a run field, when present, that is not what
    train writes: epochs_completed a non-negative integer, alphabet a list
    of distinct symbols, one per class, and train an object whose
    target_len is a positive integer.
    """
    with open(path, "rb") as f:
        header_line = f.readline()
        blob = f.read()

    def bad(problem: str) -> ValueError:
        return ValueError(f"checkpoint {path}: {problem}")

    what = f"checkpoint {path} header"
    header = check_object(parse(header_line, what), what, _HEADER_KINDS)
    try:
        cfg = ModelConfig.from_dict(header["model"])
        model = RecognitionModel(cfg, header["in_channels"], header["task"], np.random.default_rng(0))
    except ValueError as exc:
        raise bad(str(exc)) from None

    arrays = _blob_arrays(model)
    listed = [json.dumps(entry, sort_keys=True) for entry in header["arrays"]]
    manifest = [json.dumps(entry, sort_keys=True) for entry in _manifest(arrays)]
    for i, (held, want) in enumerate(zip_longest(listed, manifest, fillvalue="nothing")):
        if held != want:
            raise bad(f"array entry {i}: the file lists {held}, the model holds {want}")

    sizes = [a.size for _, a in arrays]
    nbytes = BLOB_DTYPE.itemsize * sum(sizes)
    if len(blob) != nbytes:
        raise bad(f"the blob holds {len(blob)} bytes, but its manifest needs {nbytes}")
    chunks = np.split(np.frombuffer(blob, BLOB_DTYPE), np.cumsum(sizes)[:-1])
    for (name, home), chunk in zip(arrays, chunks):
        if not np.isfinite(chunk).all():
            raise bad(f"array {name!r} holds a non-finite value")
        if name == "norm.running_var" and (chunk < 0).any():
            # eval batchnorm takes sqrt(var + eps): every output would be NaN
            raise bad(f"array {name!r} holds a negative variance")
        home[...] = chunk.reshape(home.shape)
    if model.norm is not None:
        model.norm.initialized = True

    check_object(header, what, {k: v for k, v in _RUN_FIELD_KINDS.items() if k in header})
    if "alphabet" in header:
        try:
            size = Alphabet(header["alphabet"]).size
        except ValueError as exc:
            raise bad(f"'alphabet': {exc}") from None
        if size != cfg.num_classes:
            raise bad(f"'alphabet' has {size} symbols, but the model has {cfg.num_classes} classes")
    if "train" in header:
        check_object(header["train"], f"{what} 'train'", {"target_len": TargetLen})
    return model, header
