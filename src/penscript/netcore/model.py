"""The recognition architecture and its checkpoint format.

One convolution block (conv -> max-pool -> batchnorm -> dropout, a single
tape node: tensor.conv_block_op) feeds a recurrent stack, then a dense
head. The sequence head emits per-frame log-probabilities over classes
plus blank; the character head mean-pools over time and emits one class
distribution through an extra dense layer. param_spec lists the model's
parameters, names and shapes, without building it; the model's
parameters live in one store laid out by that spec, two flat vectors of
which each parameter's .data and .grad are views (see RecognitionModel);
never rebind either attribute of a model parameter. A checkpoint's blob
is that store, then the batchnorm running stats.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import accumulate, chain, islice, zip_longest
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


def param_spec(cfg: ModelConfig, in_channels: int, task: str):
    """Yield (name, shape) for each parameter of the model cfg describes,
    in store (checkpoint) order, in plain Python ints: the model's layout,
    known without touching numpy memory. A generator, so a walk that stops
    early costs only the entries it reached, whatever sizes cfg holds.
    """
    if task not in TASKS:
        raise ValueError(f"task must be one of {TASKS}")
    width = cfg.conv_filters
    yield from [("conv.w", (width, in_channels, cfg.conv_kernel)), ("conv.b", (width,))]
    if cfg.use_batchnorm:
        yield from [("norm.gamma", (width,)), ("norm.beta", (width,))]
    if cfg.recurrent_kind == "LSTM":
        layers, units, directions = 1, cfg.lstm_units, [""]
    else:
        layers, units, directions = cfg.bilstm_layers, cfg.bilstm_units, ["fwd.", "bwd."]
    for i in range(layers):
        for d in directions:
            yield from [(f"recurrent{i}.{d}wx", (width, 4 * units)), (f"recurrent{i}.{d}wh", (units, 4 * units))]
            yield f"recurrent{i}.{d}b", (4 * units,)
        width = len(directions) * units
    if task == "char":
        yield from [("char_hidden.w", (width, cfg.dense_units)), ("char_hidden.b", (cfg.dense_units,))]
        width = cfg.dense_units
    classes = cfg.num_classes + 1 if task == "seq2seq" else cfg.num_classes
    yield from [("head.w", (width, classes)), ("head.b", (classes,))]


class RecognitionModel:
    """Conv trunk + recurrent stack + task head, assembled from a config.

    spec is list(param_spec(cfg, in_channels, task)), the layout of the
    model's one parameter store: flat holds every parameter's values, in
    spec order (checkpoint order), each C-ordered, at the offsets the
    spec's shapes give, and flat_grad, of the same size and zero from the
    build, their gradients. Each parameter's .data and .grad are views of
    the two vectors at that parameter's offset, so an in-place write to
    either reaches the store, and an optimizer steps the whole model
    through flat and flat_grad. The rule that keeps this true: never
    rebind a model parameter's .data or .grad, only write into them. A
    parameter's .grad exists from the build, so Tensor.backward always
    adds into it and never adopts.
    """

    def __init__(self, cfg: ModelConfig, in_channels: int, task: str, rng: np.random.Generator):
        self.spec = list(param_spec(cfg, in_channels, task))
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

        params = [p for _, p in self.parameters()]
        self.flat = np.concatenate([p.data.ravel() for p in params])
        # np.zeros rather than zeros_like: the allocator can hand over fresh
        # zero pages, which a model that only decodes never writes
        self.flat_grad = np.zeros(self.flat.shape)
        bounds = list(accumulate((math.prod(shape) for _, shape in self.spec), initial=0))
        for p, (_, shape), start, end in zip(params, self.spec, bounds, bounds[1:]):
            p.data, p.grad = self.flat[start:end].reshape(shape), self.flat_grad[start:end].reshape(shape)

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
        """(name, Tensor) pairs in spec order, which is the store's and the
        checkpoint's: the spec's names, each with its layer's tensor."""
        layers = [self.conv, self.norm, *self.recurrent, self.char_hidden, self.head]
        tensors = [p for layer in layers if layer is not None for _, p in layer.parameters()]
        return [(name, p) for (name, _), p in zip(self.spec, tensors, strict=True)]

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


def _manifest(cfg: ModelConfig, in_channels: int, task: str):
    """Yield the header's "arrays" entries, one {name, shape} object per
    blob array, in blob order: the spec's, then the batchnorm running
    stats when batchnorm is on."""
    stats = [("norm.running_mean", (cfg.conv_filters,)), ("norm.running_var", (cfg.conv_filters,))]
    for name, shape in chain(param_spec(cfg, in_channels, task), stats if cfg.use_batchnorm else []):
        yield {"name": name, "shape": list(shape)}


def save_checkpoint(
    path: str,
    model: RecognitionModel,
    extra: dict | None = None,
) -> None:
    """One-file checkpoint: a JSON header line, then the blob.

    The blob is the parameter store, model.flat, then the batchnorm
    running stats, as BLOB_DTYPE values; the header's "arrays" lists the
    model's _manifest, the same arrays in the same order. The file
    replaces path whole or not at all (dataio.replacing), so a failed save
    leaves an earlier checkpoint there as it was.
    """
    header = {
        "model": model.cfg.to_dict(),
        "task": model.task,
        "in_channels": model.in_channels,
        "arrays": list(_manifest(model.cfg, model.in_channels, model.task)),
    }
    if extra:
        header.update(extra)
    with replacing(path, "wb") as f:
        f.write(json.dumps(header).encode("utf-8"))
        f.write(b"\n")
        for array in [model.flat, *(a for _, a in model.buffers())]:
            f.write(np.asarray(array, BLOB_DTYPE).tobytes())


_HEADER_KINDS = {"model": dict, "task": str, "in_channels": Annotated[int, "[1, inf)"], "arrays": list}
# the run fields the train command writes; each is checked when present
_RUN_FIELD_KINDS = {"epochs_completed": Annotated[int, "[0, inf)"], "alphabet": list, "train": dict}


def load_checkpoint(path: str) -> tuple[RecognitionModel, dict]:
    """Rebuild the model from a checkpoint; returns (model, header).

    A header line that is not a JSON object holding model, task,
    in_channels (a positive integer) and arrays of the right kinds, a
    model config its class rejects, arrays other than the _manifest of
    that config (named by its first differing entry), a blob of another
    size, an array holding NaN or inf, or a negative running variance
    fails with a ValueError naming the file. Each of these is checked
    before anything is allocated for the model: the manifest is walked
    one entry past the file's list at most, and the blob size is compared
    in Python ints, so no size a header claims costs memory or time. So
    does a run field, when present, that is not what train writes:
    epochs_completed a non-negative integer, alphabet a list of distinct
    symbols, one per class, and train an object whose target_len is a
    positive integer.
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
        # one entry past the file's list is enough to tell them apart
        manifest = list(islice(_manifest(cfg, header["in_channels"], header["task"]), len(header["arrays"]) + 1))
    except ValueError as exc:
        raise bad(str(exc)) from None

    listed = [json.dumps(entry, sort_keys=True) for entry in header["arrays"]]
    held = [json.dumps(entry, sort_keys=True) for entry in manifest]
    for i, (have, want) in enumerate(zip_longest(listed, held, fillvalue="nothing")):
        if have != want:
            raise bad(f"array entry {i}: the file lists {have}, the model holds {want}")

    sizes = [math.prod(entry["shape"]) for entry in manifest]
    nbytes = BLOB_DTYPE.itemsize * sum(sizes)
    if len(blob) != nbytes:
        raise bad(f"the blob holds {len(blob)} bytes, but its manifest needs {nbytes}")
    values = np.frombuffer(blob, BLOB_DTYPE)
    finite = np.isfinite(values)
    if not finite.all():
        first = int(np.searchsorted(np.cumsum(sizes), finite.argmin(), side="right"))
        raise bad(f"array {manifest[first]['name']!r} holds a non-finite value")
    if cfg.use_batchnorm and (values[-cfg.conv_filters :] < 0).any():
        # eval batchnorm takes sqrt(var + eps): every output would be NaN
        raise bad("array 'norm.running_var' holds a negative variance")

    model = RecognitionModel(cfg, header["in_channels"], header["task"], np.random.default_rng(0))
    model.flat[:] = values[: model.flat.size]
    if model.norm is not None:
        model.norm.running_mean[...], model.norm.running_var[...] = values[model.flat.size :].reshape(2, -1)
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
