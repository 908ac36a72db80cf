"""Isolated, paper-shaped calls of each model stage, forward then backward.

Each stage gets a fresh input tensor holding the previous stage's output,
so its forward and Tensor.backward times are its own. The shapes follow
the default model: conv over (B, target_len, 13), then (B, target_len/2,
200) through pool, batchnorm and dropout, two BiLSTM layers of 60 units
per direction, and the 16-way log-softmax head.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

STAGES = (
    "conv", "pool", "batchnorm", "dropout",
    "bilstm0_fwd", "bilstm0_bwd", "bilstm1_fwd", "bilstm1_bwd", "head",
)


def stage_times(
    batch: int, target_len: int, mode: str, model_overrides: dict, seed: int, reps: int = 3
) -> dict[str, tuple[float, float]]:
    """Median (forward_s, backward_s) per stage over reps calls.

    mode is "train" for the training path or "eval" for decoding; it sets
    batchnorm and dropout the way the model's forward does.
    """
    from penscript.netcore import tensor as T
    from penscript.netcore.model import ModelConfig, RecognitionModel
    from penscript.netcore.tensor import Tensor

    rng = np.random.default_rng(seed)
    model = RecognitionModel(ModelConfig(num_classes=15, **model_overrides), 13, "seq2seq", rng)
    x = rng.normal(0.0, 1.0, (batch, target_len, 13))
    model.norm(Tensor(rng.normal(0.0, 1.0, (batch, 4, model.cfg.conv_filters))), "train")

    def lstm_half(i: int, reverse: bool):
        lstm = model.recurrent[i].bwd if reverse else model.recurrent[i].fwd
        if reverse:
            return lambda t: T.reverse_time(lstm(T.reverse_time(t)))
        return lstm

    def both(a: str, b: str):
        return lambda outs: np.concatenate([outs[a], outs[b]], axis=-1)

    # name -> (call, its input from the outputs so far)
    chain = {
        "conv": (model.conv, lambda outs: x),
        "pool": (model.pool, lambda outs: outs["conv"]),
        "batchnorm": (lambda t: model.norm(t, mode), lambda outs: outs["pool"]),
        "dropout": (lambda t: model.drop(t, mode, rng), lambda outs: outs["batchnorm"]),
        "bilstm0_fwd": (lstm_half(0, False), lambda outs: outs["dropout"]),
        "bilstm0_bwd": (lstm_half(0, True), lambda outs: outs["dropout"]),
        "bilstm1_fwd": (lstm_half(1, False), both("bilstm0_fwd", "bilstm0_bwd")),
        "bilstm1_bwd": (lstm_half(1, True), both("bilstm0_fwd", "bilstm0_bwd")),
        "head": (lambda t: T.log_softmax_op(model.head(t)), both("bilstm1_fwd", "bilstm1_bwd")),
    }

    times = {name: ([], []) for name in STAGES}
    for _ in range(reps):
        outs: dict[str, np.ndarray] = {}
        for name in STAGES:
            call, source = chain[name]
            inp = Tensor(source(outs))
            t0 = time.perf_counter()
            out = call(inp)
            t1 = time.perf_counter()
            out.backward(np.ones_like(out.data))
            t2 = time.perf_counter()
            times[name][0].append(t1 - t0)
            times[name][1].append(t2 - t1)
            outs[name] = out.data
    return {n: (statistics.median(f), statistics.median(b)) for n, (f, b) in times.items()}
