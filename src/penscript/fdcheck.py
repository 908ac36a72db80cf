"""Central finite-difference gradient checks for losses and layers.

Each check builds a scalar objective (a fixed random projection of the
op output), differentiates it both analytically and by central
differences with h = 1e-5, and reports the worst relative error. Used by
the command line `gradcheck` and handy in notebooks; the test suite
carries its own independent checker.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from penscript import losses
from penscript.netcore import layers
from penscript.netcore import tensor as T
from penscript.netcore.tensor import Tensor

H = 1e-5


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-10)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def central_diff(fn, x: np.ndarray, h: float = H) -> np.ndarray:
    """d fn / d x elementwise, fn scalar-valued."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = fn()
        flat[i] = orig - h
        lo = fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * h)
    return g


def _draw_batch(rng: np.random.Generator):
    b, k = int(rng.integers(2, 5)), int(rng.integers(2, 6))
    x = rng.normal(0, 2, (b, k))
    return x, [int(rng.integers(k)) for _ in range(b)]


def _draw_ctc(rng: np.random.Generator, b: int):
    """A (b, T, K+1) log-prob batch and b targets of mixed lengths 0-2.

    The lengths run cyclically from a random start, so b = 3 always holds an
    empty target; T >= 3 fits any target of length 2.
    """
    t_len, k = int(rng.integers(3, 7)), int(rng.integers(2, 4))
    lengths = (np.arange(b) + rng.integers(3)) % 3
    targets = [tuple(int(v) for v in rng.integers(0, k, n)) for n in lengths]
    return losses.log_softmax(rng.normal(0, 1, (b, t_len, k + 1))), targets


def check_loss(loss, draw, rng: np.random.Generator, draws: int) -> float:
    """Worst relative gradient error of loss(x, target) over draws from draw(rng)."""
    worst = 0.0
    for _ in range(draws):
        x, target = draw(rng)
        analytic = loss(x, target).grad_logits
        fd = central_diff(lambda: loss(x, target).value, x)
        worst = max(worst, rel_error(analytic, fd))
    return worst


def _graph_check(build, inputs: list[Tensor], rng: np.random.Generator) -> float:
    """Check d(projection of build() output)/d(each tensor in inputs)."""
    out = build()
    proj = rng.normal(0, 1, out.data.shape)

    def objective() -> float:
        return float(np.sum(build().data * proj))

    out.backward(proj)
    worst = 0.0
    for tensor in inputs:
        fd = central_diff(objective, tensor.data)
        worst = max(worst, rel_error(tensor.grad, fd))
    return worst


def check_layers(rng: np.random.Generator) -> dict[str, float]:
    """Gradient checks for every differentiable layer, params and inputs."""
    report = {}

    x = Tensor(rng.normal(0, 1, (2, 6, 3)))
    conv = layers.Conv1d(3, 4, 3, rng)
    report["conv1d"] = _graph_check(lambda: conv(x), [x, conv.w, conv.b], rng)

    # keep window values separated so the pool argmax is stable under h
    xp = Tensor(np.arange(24, dtype=np.float64).reshape(2, 6, 2) * 0.37 % 5.0)
    report["maxpool1d"] = _graph_check(lambda: T.maxpool1d_op(xp, 2), [xp], rng)

    xb = Tensor(rng.normal(0, 1, (3, 5, 4)))
    bn = layers.BatchNorm1d(4)
    report["batchnorm1d"] = _graph_check(lambda: bn(xb, "train"), [xb, bn.gamma, bn.beta], rng)

    xd = Tensor(rng.normal(0, 1, (2, 7)))
    dense = layers.Dense(7, 3, rng)
    report["dense"] = _graph_check(lambda: dense(xd), [xd, dense.w, dense.b], rng)

    xl = Tensor(rng.normal(0, 1, (2, 3, 2)))
    lstm = layers.LSTM(2, 2, rng)
    report["lstm"] = _graph_check(lambda: lstm(xl), [xl] + [p for _, p in lstm.parameters()], rng)

    xbi = Tensor(rng.normal(0, 1, (2, 3, 2)))
    bi = layers.BiLSTM(2, 2, rng)
    report["bilstm"] = _graph_check(lambda: bi(xbi), [xbi] + [p for _, p in bi.parameters()], rng)

    xs = Tensor(rng.normal(0, 1, (2, 4)))
    report["log_softmax"] = _graph_check(lambda: T.log_softmax_op(xs), [xs], rng)

    # train mode, with a fresh generator per build so the dropout mask holds.
    # Frames rise by at least 0.5 in every channel and the weights are
    # positive, so each window's later frame wins by far more than H; with 7
    # frames the last frame is alone in its window, past the right padding.
    # Batchnorm's batch mean cancels b, whose gradient is then exactly zero,
    # so b is checked in a build without it.
    xc = np.arange(7.0)[None, :, None] + rng.uniform(0, 0.5, (2, 7, 3))
    conv_c, bn_c = layers.Conv1d(3, 4, 2, rng), layers.BatchNorm1d(4)
    conv_c.w.data = np.abs(conv_c.w.data) + 0.5

    def block(norm):
        return lambda: T.conv_block_op(xc, conv_c.w, conv_c.b, 2, norm, 0.5, np.random.default_rng(0))

    with_bn = _graph_check(block(bn_c.block_norm("train")), [conv_c.w, bn_c.gamma, bn_c.beta], rng)
    conv_c.w.zero_grad()
    conv_c.b.zero_grad()
    report["conv_block"] = max(with_bn, _graph_check(block(None), [conv_c.w, conv_c.b], rng))

    # two stacked layers: the upper pullback hands the lower one its output
    # gradient, and the lower one hands x its input gradient
    xst = Tensor(rng.normal(0, 1, (2, 3, 2)))
    stack = [layers.BiLSTM(2, 2, rng), layers.BiLSTM(4, 2, rng)]
    stack_params = [p for layer in stack for _, p in layer.parameters()]
    report["bilstm_stack"] = _graph_check(lambda: stack[1](stack[0](xst)), [xst] + stack_params, rng)

    return report


def run_all(seed: int = 0) -> dict[str, float]:
    """Every check; returns name -> max relative error."""
    rng = np.random.default_rng(seed)
    params = losses.LossParams()
    report = {}
    for name, fn in losses.CHARACTER_LOSSES.items():
        report[name] = check_loss(partial(fn, params=params), _draw_batch, rng, 20)
    report["ctc"] = max(
        check_loss(losses.ctc_loss, partial(_draw_ctc, b=b), rng, 4) for b in (1, 2, 3)
    )
    report.update(check_layers(rng))
    return report
