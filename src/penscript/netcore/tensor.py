"""Reverse-mode autodiff on numpy arrays, just enough for the models here.

Every op builds a Tensor holding the forward value, its parents, and a
closure that pushes the output gradient, passed in as its argument, into
the parents. backward() runs the closures in reverse topological order
from a caller-supplied seed gradient. A closure never refers to its own
output Tensor, so a tape holds no reference cycle and is freed as soon as
its last reference goes, without waiting for the cyclic garbage collector.
Everything is float64; batches lead the shape.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents: tuple = ()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self._parents = parents
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def backward(self, seed: np.ndarray) -> None:
        """Propagate d(loss)/d(self) = seed back through the graph."""
        seed = np.asarray(seed, dtype=np.float64)
        if seed.shape != self.data.shape:
            raise ValueError(f"seed shape {seed.shape} != tensor shape {self.data.shape}")
        topo: list[Tensor] = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = self.grad + seed
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b applied along the last axis of x, any leading shape."""
    lead = x.data.shape[:-1]
    fan_in = x.data.shape[-1]
    x2 = x.data.reshape(-1, fan_in)
    out = Tensor((x2 @ w.data + b.data).reshape(*lead, w.data.shape[1]), (x, w, b))

    def back(g):
        g2 = g.reshape(-1, w.data.shape[1])
        x.grad += (g2 @ w.data.T).reshape(x.data.shape)
        w.grad += x2.T @ g2
        b.grad += g2.sum(axis=0)

    out._backward = back
    return out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0), (x,))

    def back(g):
        x.grad += g * (x.data > 0)

    out._backward = back
    return out


def concat_last(parts: list[Tensor]) -> Tensor:
    out = Tensor(np.concatenate([p.data for p in parts], axis=-1), tuple(parts))

    def back(g):
        pos = 0
        for p in parts:
            width = p.data.shape[-1]
            p.grad += g[..., pos : pos + width]
            pos += width

    out._backward = back
    return out


def reverse_time(x: Tensor) -> Tensor:
    out = Tensor(x.data[:, ::-1, :].copy(), (x,))

    def back(g):
        x.grad += g[:, ::-1, :]

    out._backward = back
    return out


def mean_time(x: Tensor) -> Tensor:
    """Mean over the time axis of (batch, time, features)."""
    n = x.data.shape[1]
    out = Tensor(x.data.mean(axis=1), (x,))

    def back(g):
        x.grad += g[:, None, :] / n

    out._backward = back
    return out


def log_softmax_op(x: Tensor) -> Tensor:
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = Tensor(logp, (x,))

    def back(g):
        p = np.exp(logp)
        x.grad += g - p * g.sum(axis=-1, keepdims=True)

    out._backward = back
    return out


def lstm_op(x: Tensor, wx: Tensor, wh: Tensor, b: Tensor) -> Tensor:
    """Single-direction LSTM over (batch, time, c_in) as one tape node.

    wx is (c_in, 4H), wh is (H, 4H) and b is (4H,), gates ordered input,
    forget, cell, output; the initial state is zero. The forward pass runs
    the time loop on plain arrays; its output is bit-identical to the
    plain-numpy per-step reference in
    tests/test_netcore.py::TestLSTM::test_sequence_matches_per_step_reference.
    The backward pass is backpropagation through time with one
    (batch, 4H) @ (4H, H) product per step; the weight, bias and input
    gradients are then single products over all batch * time rows.
    """
    bsz, t_len, c_in = x.data.shape
    h = wh.data.shape[0]
    wx_d, wh_d = wx.data, wh.data
    x2 = x.data.reshape(-1, c_in)
    # hoist the input projection out of the time loop
    xw = (x2 @ wx_d + b.data).reshape(bsz, t_len, 4 * h)
    # time-major per-step state kept for the backward pass; acts holds the
    # four gate activations side by side, like the pre-activations
    acts = np.empty((t_len, bsz, 4 * h))
    cs = np.empty((t_len, bsz, h))
    tcs = np.empty((t_len, bsz, h))
    out_data = np.empty((bsz, t_len, h))
    h_t = np.zeros((bsz, h))
    c_t = np.zeros((bsz, h))
    for t in range(t_len):
        z = xw[:, t, :] + h_t @ wh_d
        # elementwise, so one call over all four blocks equals one per gate
        a = _sigmoid(z)
        a[:, 2 * h : 3 * h] = np.tanh(z[:, 2 * h : 3 * h])
        c_t = a[:, h : 2 * h] * c_t + a[:, :h] * a[:, 2 * h : 3 * h]
        tc = np.tanh(c_t)
        h_t = a[:, 3 * h :] * tc
        acts[t], cs[t], tcs[t], out_data[:, t, :] = a, c_t, tc, h_t
    out = Tensor(out_data, (x, wx, wh, b))

    def back(g):
        i_g, f_g, g_g, o_g = (acts[:, :, k * h : (k + 1) * h] for k in range(4))
        c_prev = np.concatenate([np.zeros((1, bsz, h)), cs[:-1]])
        # d(pre-activation)/d(c_t) for the i, f, g gates, stacked on axis 2
        dz_dc = np.stack(
            [g_g * i_g * (1.0 - i_g), c_prev * f_g * (1.0 - f_g), i_g * (1.0 - g_g * g_g)], axis=2
        )
        dzo_dh = tcs * o_g * (1.0 - o_g)
        dc_dh = o_g * (1.0 - tcs * tcs)
        dz = np.empty((t_len, bsz, 4, h))
        dh = np.zeros((bsz, h))
        dc = np.zeros((bsz, h))
        for t in range(t_len - 1, -1, -1):
            dh += g[:, t, :]
            dc += dh * dc_dh[t]
            np.multiply(dz_dc[t], dc[:, None, :], out=dz[t, :, :3])
            np.multiply(dh, dzo_dh[t], out=dz[t, :, 3])
            dc *= f_g[t]
            dh = dz[t].reshape(bsz, 4 * h) @ wh_d.T
        dz2 = dz.reshape(t_len, bsz, 4 * h).transpose(1, 0, 2).reshape(-1, 4 * h)
        h_prev = np.concatenate([np.zeros((bsz, 1, h)), out_data[:, :-1, :]], axis=1)
        wh.grad += h_prev.reshape(-1, h).T @ dz2
        wx.grad += x2.T @ dz2
        b.grad += dz2.sum(axis=0)
        x.grad += (dz2 @ wx_d.T).reshape(x.data.shape)

    out._backward = back
    return out


def conv1d_op(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Same-length 1-D convolution over (batch, time, c_in).

    w is (c_out, c_in, k); zero padding puts floor((k-1)/2) frames on the
    left and the remainder on the right.
    """
    bsz, t_len, c_in = x.data.shape
    c_out, c_in_w, k = w.data.shape
    if c_in_w != c_in:
        raise ValueError(f"conv expects {c_in_w} input channels, got {c_in}")
    left = (k - 1) // 2
    right = k - 1 - left
    xp = np.pad(x.data, ((0, 0), (left, right), (0, 0)))
    # windows: (batch, time, c_in, k) -> columns (batch*time, c_in*k)
    cols = np.lib.stride_tricks.sliding_window_view(xp, k, axis=1)
    cols2 = cols.reshape(bsz * t_len, c_in * k)
    wmat = w.data.reshape(c_out, c_in * k).T
    out_data = (cols2 @ wmat + b.data).reshape(bsz, t_len, c_out)
    out = Tensor(out_data, (x, w, b))

    def back(g):
        g2 = g.reshape(bsz * t_len, c_out)
        w.grad += (g2.T @ cols2).reshape(c_out, c_in, k)
        b.grad += g2.sum(axis=0)
        gcols = (g2 @ wmat.T).reshape(bsz, t_len, c_in, k)
        gxp = np.zeros_like(xp)
        for i in range(k):
            gxp[:, i : i + t_len, :] += gcols[:, :, :, i]
        x.grad += gxp[:, left : left + t_len, :]

    out._backward = back
    return out


def maxpool1d_op(x: Tensor, pool: int) -> Tensor:
    """Per-window max over time with a partial final window allowed."""
    if pool < 1:
        raise ValueError("pool size must be >= 1")
    bsz, t_len, ch = x.data.shape
    t_out = -(-t_len // pool)
    pad = t_out * pool - t_len
    xp = np.pad(x.data, ((0, 0), (0, pad), (0, 0)), constant_values=-np.inf)
    win = xp.reshape(bsz, t_out, pool, ch)
    idx = win.argmax(axis=2)  # first index on ties
    out = Tensor(np.take_along_axis(win, idx[:, :, None, :], axis=2)[:, :, 0, :], (x,))

    def back(g):
        gwin = np.zeros_like(win)
        np.put_along_axis(gwin, idx[:, :, None, :], g[:, :, None, :], axis=2)
        x.grad += gwin.reshape(bsz, t_out * pool, ch)[:, :t_len, :]

    out._backward = back
    return out


def dropout_op(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; call only in train mode (eval is the identity)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if rate == 0.0:
        return x
    mask = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    out = Tensor(x.data * mask, (x,))

    def back(g):
        x.grad += g * mask

    out._backward = back
    return out
