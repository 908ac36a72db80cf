"""Trainable layers: each is parameters and state around one op of tensor.py.

Initialization: dense and conv weights are uniform in
+-sqrt(6/(fan_in+fan_out)), recurrent matrices uniform in +-1/sqrt(H),
biases zero except the LSTM forget gate at +1. All layers expose
parameters() as (name, Tensor) pairs in a stable order for the optimizer
and for checkpoints.
"""

from __future__ import annotations

import numpy as np

from penscript.netcore import tensor as T
from penscript.netcore.tensor import Tensor


def _xavier(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, shape)


class Dense:
    def __init__(self, fan_in: int, fan_out: int, rng: np.random.Generator):
        self.w = Tensor(_xavier(rng, (fan_in, fan_out), fan_in, fan_out))
        self.b = Tensor(np.zeros(fan_out))

    def __call__(self, x: Tensor) -> Tensor:
        return T.affine(x, self.w, self.b)

    def parameters(self):
        return [("w", self.w), ("b", self.b)]


class Conv1d:
    def __init__(self, c_in: int, c_out: int, kernel: int, rng: np.random.Generator):
        if kernel < 1:
            raise ValueError("kernel size must be >= 1")
        self.w = Tensor(_xavier(rng, (c_out, c_in, kernel), c_in * kernel, c_out))
        self.b = Tensor(np.zeros(c_out))

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv1d_op(x, self.w, self.b)

    def parameters(self):
        return [("w", self.w), ("b", self.b)]


class MaxPool1d:
    def __init__(self, pool: int):
        if pool < 1:
            raise ValueError("pool size must be >= 1")
        self.pool = pool

    def __call__(self, x: Tensor) -> Tensor:
        return T.maxpool1d_op(x, self.pool)

    def parameters(self):
        return []


# running-statistics decay and variance floor of every BatchNorm1d; checkpoints
# do not store them, so a change here changes what a saved model computes
BN_MOMENTUM = 0.9
BN_EPS = 1e-5


class BatchNorm1d:
    """Per-channel normalization over every leading axis (batch and time).

    Train mode uses biased batch statistics and refreshes the running
    stats; eval mode requires at least one prior train-mode call.
    """

    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels))
        self.beta = Tensor(np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.initialized = False

    def __call__(self, x: Tensor, mode: str) -> Tensor:
        if mode == "train":
            axes = tuple(range(x.data.ndim - 1))
            mu = x.data.mean(axis=axes)
            var = x.data.var(axis=axes)
            self.running_mean = BN_MOMENTUM * self.running_mean + (1 - BN_MOMENTUM) * mu
            self.running_var = BN_MOMENTUM * self.running_var + (1 - BN_MOMENTUM) * var
            self.initialized = True
        elif mode == "eval":
            if not self.initialized:
                raise RuntimeError("eval-mode batchnorm before any training step")
            mu, var = self.running_mean, self.running_var
        else:
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        return T.batchnorm_op(x, self.gamma, self.beta, mu, var, BN_EPS, train=(mode == "train"))

    def parameters(self):
        return [("gamma", self.gamma), ("beta", self.beta)]

    def buffers(self):
        return [("running_mean", self.running_mean), ("running_var", self.running_var)]


class Dropout:
    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate

    def __call__(self, x: Tensor, mode: str, rng: np.random.Generator | None = None) -> Tensor:
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        if mode == "eval" or self.rate == 0.0:
            return x
        if rng is None:
            raise ValueError("train-mode dropout needs a random generator")
        return T.dropout_op(x, self.rate, rng)

    def parameters(self):
        return []


class LSTM:
    """Single-direction LSTM returning the full hidden sequence (see tensor.lstm_op)."""

    def __init__(self, c_in: int, hidden: int, rng: np.random.Generator):
        bound = 1.0 / np.sqrt(hidden)
        self.hidden = hidden
        self.wx = Tensor(rng.uniform(-bound, bound, (c_in, 4 * hidden)))
        self.wh = Tensor(rng.uniform(-bound, bound, (hidden, 4 * hidden)))
        bias = np.zeros(4 * hidden)
        bias[hidden : 2 * hidden] = 1.0
        self.b = Tensor(bias)

    def __call__(self, x: Tensor) -> Tensor:
        return T.lstm_op(x, [self.cell])

    @property
    def cell(self) -> tuple[Tensor, Tensor, Tensor]:
        """(wx, wh, b), one direction's entry of tensor.lstm_op's cells."""
        return self.wx, self.wh, self.b

    def parameters(self):
        return [("wx", self.wx), ("wh", self.wh), ("b", self.b)]


class BiLSTM:
    """Forward and backward LSTMs concatenated along features.

    fwd and bwd own the parameters of the two directions; a call runs both
    in one two-direction tensor.lstm_op.
    """

    def __init__(self, c_in: int, hidden: int, rng: np.random.Generator):
        self.fwd = LSTM(c_in, hidden, rng)
        self.bwd = LSTM(c_in, hidden, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return T.lstm_op(x, [self.fwd.cell, self.bwd.cell])

    def parameters(self):
        return [(f"fwd.{n}", p) for n, p in self.fwd.parameters()] + [
            (f"bwd.{n}", p) for n, p in self.bwd.parameters()
        ]
