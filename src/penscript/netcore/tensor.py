"""Reverse-mode autodiff on numpy arrays, just enough for the models here.

Every op defines a closure that maps the output gradient, passed in as
its argument, to its parents' gradients, and then returns Tensor(value,
parents, closure). The constructor takes the pullback, so a closure
cannot see its own output, which does not exist yet: a tape holds no
reference cycle and is freed as soon as its last reference goes. backward() runs the closures
in reverse topological order from a caller-supplied seed gradient.
Everything is float64; batches lead the shape.

A pullback returns one gradient per entry of its node's parents, in that
order, each an array it owns: a fresh one, the gradient it was handed,
or a view of that gradient; no two of them overlap, and none overlaps
any tensor's data. backward() alone adds gradients up, and a node's
contributions reach its parents only after its pullback returns: a
parent with no gradient yet adopts its share as it is, with its bits as
computed, -0.0 included, and one that has a gradient adds its share in
with +=. Otherwise a gradient is made on demand: the first read of .grad
fills it with a fresh zero array, so a tensor whose gradient nobody
reads never holds one, and no two tensors share one. A pullback owns the
gradient it is handed and may overwrite it, since backward() drops that
array once the pullback has run; the output backward() started from
hands its pullback a copy, so its .grad still reads the seed sum.
backward() frees the graph as it walks it: once a node's pullback has
run, the node gives up the pullback (with the activations it kept) and
its parents, and every node but the output backward() started from
drops its gradient. Leaves, the parameters and inputs, keep theirs and
accumulate across graphs. A graph therefore backpropagates once; a
second backward() through it raises ValueError before any pullback runs.

Inside no_tape() the constructor keeps only the value: it drops the
parents and the pullback, so every op's result is a leaf, and an
intermediate array, with the activations its pullback would have kept,
is freed once the next op has read it. backward() through such a result
runs but reaches nothing upstream. RecognitionModel.forward enters
no_tape() in eval mode; the ops never look at it.

Two ops are fused tape nodes: one node stands for a chain of array work
and keeps only what its pullback reads, besides its output.

An LSTM call (lstm_op) allocates one (D, batch, time, 4H) buffer that
holds, in turn, the input projection, the gate activations and their
gradients. Its tape keeps that buffer and nothing else, no copy of the
weights included, besides its output, and no buffer outlives the call
and its pullback. The pullback rebuilds the cell states from the gates
in the buffer, (time + 1, D, batch, H); tanh(c), and then d(c)/d(h),
overwrite them. Besides it allocates a copy of the forget gates, the
time-reversed input, which direction 1's input gradient then overwrites,
and direction 0's input gradient, to which direction 1's is added and
which it returns as the input's; its other scratch is a few frames
long. It reads the output gradient in place and, once BPTT has spent
it, writes h_{t-1} over it.

A conv block call (conv_block_op) runs conv -> max-pool -> batchnorm ->
dropout over a constant input such as the data batch. Its tape keeps
the zero-padded copy of the input that conv builds (the pullback
rebuilds conv's columns from it), pool's per-offset masks, batchnorm's
xhat and dropout's boolean mask; each stage's output goes once the next
stage has read it. In the pullback, dropout and batchnorm make their
input gradients in the gradient they are handed.

conv1d_op, maxpool1d_op, batchnorm_op and dropout_op each wrap one of the
array forward and pullback pairs the block chains, so the block computes
their chain's output and parameter gradients bit for bit.

A BiLSTM call (lstm_op with two directions) splits each direction's
array work outside the time loops, the input projection, the backward
prelude and the gradient products, into two halves. From _SPLIT_ROWS
(12,000) rows per direction (batch * time) on, each split starts one
fresh helper thread for the second half and joins it before going on;
numpy releases the GIL in that work, so the halves overlap on two
cores. Below that the halves run one after the other on the calling
thread: a split measured no faster there, and its cost is the working
memory of a second concurrent BLAS call (about 8 MiB RSS on a batch-10
training step). The rule reads the rows alone. Every array a half writes is
allocated on the calling thread before the split, and the helper only
writes into it: a fresh thread allocates from its own malloc arena,
which the process keeps after the thread ends. There is no setting, and
both paths give the same bits: each half computes the same arrays, and
the fused time loops, and the sum of the two directions' input
gradients, stay on the calling thread.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager

import numpy as np

_taping = True
# frames per chunk of lstm_op's pullback scratch
_CHUNK = 64
# rows per direction (batch * time) from which a BiLSTM call runs its
# direction halves on two threads; at the paper's target_len 800 (400
# frames after pooling) batch 30 is the first to reach it
_SPLIT_ROWS = 12_000


@contextmanager
def no_tape() -> Iterator[None]:
    """Record no graph inside the block; the previous state returns on exit.

    The switch is process-wide, so a taped forward must not run in another
    thread meanwhile.
    """
    global _taping
    saved = _taping
    _taping = False
    try:
        yield
    finally:
        _taping = saved


def _spent(g) -> None:
    """The pullback of a node that backward() has already run through."""
    raise ValueError("backward through a graph that was already backpropagated")


class Tensor:
    """An array, the tensors it was computed from and its pullback.

    .grad is d(loss)/d(self), summed over every path backward() takes.
    Reading it before anything was added gives zeros. Once a child's
    pullback has returned, backward() gives self the child's share: with
    no gradient yet, self adopts that array, with its bits as computed,
    so a zero there may be -0.0 where adding it into zeros gives +0.0;
    else it adds the share in with +=. backward() hands each pullback its
    node's gradient to own, and it may overwrite it; the output
    backward() started from hands over a copy, so its .grad still reads
    the seed sum afterwards.
    """

    __slots__ = ("data", "_grad", "_parents", "_backward")

    def __init__(self, data, parents: tuple = (), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self._grad = None
        self._parents = parents if _taping else ()
        self._backward = backward if _taping else None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        self._grad = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"

    def zero_grad(self) -> None:
        if self._grad is not None:
            self._grad[...] = 0.0

    def backward(self, seed: np.ndarray) -> None:
        """Propagate d(loss)/d(self) = seed back through the graph, freeing it.

        Each node's pullback, parents and (but for self's) gradient go once
        the pullback has run and its parents have their shares; leaves keep
        their gradients.
        """
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
            if node._backward is _spent:
                _spent(None)  # raise now, before any pullback adds to a leaf
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad += seed
        # popping drops the walk's own reference, so a node whose children
        # have all run is freed as soon as its pullback has
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            # a pullback owns its gradient; the output's own stays readable
            grads = node._backward(node.grad.copy() if node is self else node.grad)
            for p, g in zip(node._parents, grads, strict=True):
                if p._grad is None:
                    p._grad = g
                else:
                    p._grad += g
            del grads  # the shares added in go before the next pullback runs
            node._backward = _spent
            node._parents = ()
            if node is not self:
                node._grad = None


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b applied along the last axis of x, any leading shape."""
    lead = x.data.shape[:-1]
    fan_in = x.data.shape[-1]
    x2 = x.data.reshape(-1, fan_in)

    def back(g):
        g2 = g.reshape(-1, w.data.shape[1])
        return (g2 @ w.data.T).reshape(x.data.shape), x2.T @ g2, g2.sum(axis=0)

    return Tensor((x2 @ w.data + b.data).reshape(*lead, w.data.shape[1]), (x, w, b), back)


def relu(x: Tensor) -> Tensor:
    def back(g):
        return (g * (x.data > 0),)

    return Tensor(np.maximum(x.data, 0.0), (x,), back)


def reverse_time(x: Tensor) -> Tensor:
    def back(g):
        return (g[:, ::-1, :],)

    return Tensor(x.data[:, ::-1, :].copy(), (x,), back)


def mean_time(x: Tensor) -> Tensor:
    """Mean over the time axis of (batch, time, features)."""
    n = x.data.shape[1]

    def back(g):
        return (np.repeat(g[:, None, :] / n, n, axis=1),)

    return Tensor(x.data.mean(axis=1), (x,), back)


def log_softmax_op(x: Tensor) -> Tensor:
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    def back(g):
        p = np.exp(logp)
        return (g - p * g.sum(axis=-1, keepdims=True),)

    return Tensor(logp, (x,), back)


def _per_direction(fn: Callable[[int], object], d_n: int, threaded: bool) -> list:
    """[fn(0), .., fn(d_n - 1)] for one or two directions. Unless threaded,
    they run in turn on this thread. With two and threaded, fn(1) runs on a
    fresh thread while this one runs fn(0); the thread is joined before
    this returns or raises, so an exception in either half is raised only
    once both have finished (fn(0)'s first). The two paths compute the
    same bits; the thread costs the memory of a second concurrent BLAS
    call, so lstm_op asks for it only from _SPLIT_ROWS rows per direction.

    fn must only compute: the thread builds no Tensor (no_tape() is
    process-wide). It should also write only into arrays allocated before
    the call, through out= or assignment, since the thread's own
    allocations come from a malloc arena of its own.
    """
    if d_n == 1 or not threaded:
        return [fn(d) for d in range(d_n)]
    results = [None, None]
    failed: list[BaseException] = []

    def second() -> None:
        try:
            results[1] = fn(1)
        except BaseException as exc:
            failed.append(exc)

    helper = threading.Thread(target=second, name="lstm_op direction 1")
    helper.start()
    try:
        results[0] = fn(0)
    finally:
        helper.join()
    if failed:
        raise failed[0]
    return results


def _loop_order(a: np.ndarray, d_n: int, h: int) -> list[np.ndarray]:
    """Views of a (batch, time, D * H) array, one (time, batch, H) per
    direction, each in the order that direction reads time."""
    views = [a[:, :, :h].transpose(1, 0, 2)]
    if d_n == 2:
        views.append(a[:, ::-1, h:].transpose(1, 0, 2))
    return views


def lstm_op(x: Tensor, cells: Sequence[tuple[Tensor, Tensor, Tensor]]) -> Tensor:
    """LSTM over (batch, time, c_in) in D = len(cells) directions, one tape node.

    cells holds (wx, wh, b) per direction: wx is (c_in, 4H), wh is (H, 4H)
    and b is (4H,), gates ordered input, forget, cell, output; the initial
    state is zero. The first direction reads time forward; a second reads
    it backward, so D = 2 is a BiLSTM. The output is (batch, time, D * H),
    the directions side by side, each at the frame it read.

    One Python time loop serves both directions, in the forward pass and
    in backpropagation through time: step t computes the D directions'
    gates at once in one (D, batch, 4H) scratch and stores them into frame
    t of the buffer below. It keeps one rolling (D, batch, H) cell state
    and writes h_t into a contiguous (time + 1, D, batch, H) history, from
    which step t + 1 multiplies h_{t-1} by wh with one stacked np.matmul
    and which fills the output after the loop. The BPTT step multiplies
    the D gradients by wh.T at once in the same way.
    The backward direction projects a time-reversed copy of x and keeps
    its state in loop order, so each direction computes exactly what a
    D = 1 call on its own input does: D = 2 is bit-identical to a D = 1
    call on x joined, on the last axis, with the time-reversed output of a
    D = 1 call on time-reversed x (tests/test_netcore.py::TestBiLSTM).

    A call allocates one (D, batch, time, 4H) buffer and uses it three
    times. The input projection is written into it; step t overwrites its
    frame t with the four gate activations; the pullback overwrites those
    in place with the pre-activations' gradients, whose (batch * time)
    rows per direction the weight, bias and input gradients read as
    single products. The tape keeps that buffer, besides the output, and
    nothing else: the forward and BPTT each stack the directions' wh.

    The pullback first rebuilds the cell states c, (time + 1, D, batch,
    H), from the buffer's gates with the forward's own per-step calls,
    f * c_{t-1} and then + i * g, so they hold the forward's bits; then
    tanh(c_t), again per step, and d(c_t)/d(h_t) overwrite c_t. Besides
    it allocates a copy of the forget gates, which BPTT reads after their
    gradients have replaced them, the time-reversed input, which
    direction 1's input gradient then overwrites, and direction 0's input
    gradient, to which direction 1's is added and which the pullback
    returns as x's. The elementwise temporaries (i * g, 1 - f and the
    prelude's) share one scratch of _CHUNK frames. The output gradient, which the pullback
    owns, is read in place by BPTT; then its (batch * time, D * H) rows
    take each direction's h_{t-1}, from the op's output, in that
    direction's columns, where the wh product reads them.

    With D = 2 the work outside the time loops (the input projection, the
    backward prelude and the gradient products) runs through
    _per_direction, one direction per half, writing only into arrays
    allocated before the split. The call decides once, from its rows per
    direction (batch * time) alone, whether the halves run on two threads
    (from _SPLIT_ROWS rows) or in turn on this one, where a second
    concurrent BLAS call would cost memory and buy no time. Either way the
    two input gradients are added on this thread afterwards, so both paths
    give the same bits.
    """
    d_n = len(cells)
    if d_n not in (1, 2):
        raise ValueError(f"lstm_op runs one or two directions, got {d_n}")
    bsz, t_len, c_in = x.data.shape
    h = cells[0][1].data.shape[0]
    wh_s = np.stack([wh.data for _, wh, _ in cells])
    threaded = bsz * t_len >= _SPLIT_ROWS

    def rows(d, x_rev):
        # direction d's input rows, (batch * time, c_in), in its reading order;
        # the reversed rows are a C-contiguous copy, as reverse_time makes them
        if d == 0:
            return x.data.reshape(-1, c_in)
        np.copyto(x_rev, x.data[:, ::-1, :])
        return x_rev.reshape(-1, c_in)

    # the input projection, then the gate activations, then their gradients
    buf = np.empty((d_n, bsz, t_len, 4 * h))
    x_rev = np.empty_like(x.data) if d_n == 2 else None

    def project(d):
        wx, _, b = cells[d]
        xw = buf[d].reshape(-1, 4 * h)
        np.matmul(rows(d, x_rev), wx.data, out=xw)
        xw += b.data

    _per_direction(project, d_n, threaded)
    del x_rev
    # hist leads with the zero initial state, so step t reads h_{t-1} from
    # [t] and writes h_t to [t + 1]; c is the one cell state, updated in place
    hist = np.empty((t_len + 1, d_n, bsz, h))
    hist[0] = 0.0
    c = np.zeros((d_n, bsz, h))
    frames = buf.transpose(2, 0, 1, 3)
    z = np.empty((d_n, bsz, 4 * h))
    a = np.empty((d_n, bsz, 4 * h))
    i_a, f_a, g_a, o_a = (a[:, :, k * h : (k + 1) * h] for k in range(4))
    g_z = z[:, :, 2 * h : 3 * h]
    ig = np.empty((d_n, bsz, h))
    tc = np.empty((d_n, bsz, h))
    for t in range(t_len):
        np.matmul(hist[t], wh_s, out=z)
        z += frames[t]
        # sigmoid over all four blocks, then tanh over the cell block; the
        # lower clip keeps exp(-z) from overflowing, while z >= 500 gives
        # exactly 1.0 with or without an upper one, and NaN passes either way
        np.maximum(z, -500.0, out=a)
        np.negative(a, out=a)
        np.exp(a, out=a)
        a += 1.0
        np.divide(1.0, a, out=a)
        np.tanh(g_z, out=g_a)
        np.multiply(f_a, c, out=c)
        np.multiply(i_a, g_a, out=ig)
        c += ig
        np.tanh(c, out=tc)
        np.multiply(o_a, tc, out=hist[t + 1])
        frames[t] = a
    # each direction's h_t at the frame it read
    out_data = np.empty((bsz, t_len, d_n * h))
    for d, h_d in enumerate(_loop_order(out_data, d_n, h)):
        h_d[...] = hist[1:, d]
    del hist, wh_s

    def back(g):
        nonlocal buf
        # dz is the buffer as (D, batch, time, 4, H); dzt views it in loop order
        dz = buf.reshape(d_n, bsz, t_len, 4, h)
        dzt = dz.transpose(2, 0, 1, 3, 4)
        buf = None
        i_g, f_g, g_g = (dzt[:, :, :, k, :] for k in range(3))
        # frame chunks and their scratch, in place of full-length temporaries
        chunks = [slice(t0, min(t0 + _CHUNK, t_len)) for t0 in range(0, t_len, _CHUNK)]
        scratch = np.empty((min(_CHUNK, t_len), d_n, bsz, h))
        # the cell states, rebuilt from the gates with the forward's own
        # per-step calls, f * c_{t-1} and then + i * g; cs leads with c_{-1} = 0
        cs = np.empty((t_len + 1, d_n, bsz, h))
        cs[0] = 0.0
        for sl in chunks:
            np.multiply(i_g[sl], g_g[sl], out=scratch[: sl.stop - sl.start])
            for t in range(sl.start, sl.stop):
                np.multiply(f_g[t], cs[t], out=cs[t + 1])
                cs[t + 1] += scratch[t - sl.start]
        # f's, c_{t-1} * f * (1 - f), before tanh replaces the c it reads;
        # BPTT reads f itself from fs
        fs = f_g.copy()
        np.multiply(cs[:-1], f_g, out=f_g)
        for sl in chunks:
            f_g[sl] *= np.subtract(1.0, fs[sl], out=scratch[: sl.stop - sl.start])
        # tanh(c_t), each step's block as the forward computed it, and then
        # d(c_t)/d(h_t) in the same place
        for t in range(1, t_len + 1):
            np.tanh(cs[t], out=cs[t])
        dc_dh = cs[1:]

        def prelude(d):
            # over each gate, the pre-activation's derivative by c_t (i and
            # g) or by h_t (o), which the BPTT loop then scales
            for sl in chunks:
                i_c, g_c, o_c = (dzt[sl, d, :, k, :] for k in (0, 2, 3))
                tcs, s = dc_dh[sl, d], scratch[: sl.stop - sl.start, d]
                # g's, (1 - g * g) * i, waits in s while i's, g * i * (1 - i), is made
                np.multiply(g_c, g_c, out=s)
                np.subtract(1.0, s, out=s)
                s *= i_c
                g_c *= i_c
                np.subtract(1.0, i_c, out=i_c)
                i_c *= g_c
                g_c[...] = s
                # o's, tanh(c) * o * (1 - o), waits in s while tanh(c)
                # becomes d(c_t)/d(h_t) = (1 - tanh(c)^2) * o
                np.multiply(tcs, o_c, out=s)
                tcs *= tcs
                np.subtract(1.0, tcs, out=tcs)
                tcs *= o_c
                np.subtract(1.0, o_c, out=o_c)
                o_c *= s

        _per_direction(prelude, d_n, threaded)
        gs = _loop_order(g, d_n, h)
        wh_t = np.stack([wh.data for _, wh, _ in cells]).transpose(0, 2, 1)
        dh = np.zeros((d_n, bsz, h))
        dc = np.zeros((d_n, bsz, h))
        tmp = np.empty((d_n, bsz, h))
        for t in range(t_len - 1, -1, -1):
            dz_t = dzt[t]
            for d in range(d_n):
                dh[d] += gs[d][t]
            np.multiply(dh, dc_dh[t], out=tmp)
            dc += tmp
            np.multiply(dz_t[:, :, :3], dc[:, :, None, :], out=dz_t[:, :, :3])
            np.multiply(dz_t[:, :, 3], dh, out=dz_t[:, :, 3])
            if t:
                dc *= fs[t]
                np.matmul(dz_t.reshape(d_n, bsz, 4 * h), wh_t, out=dh)
        cs = dc_dh = fs = scratch = None  # freed before the products allocate
        # (direction, batch * time, .) rows in each direction's reading order
        dz2 = dz.reshape(d_n, -1, 4 * h)
        # the spent output gradient as (batch * time, D * H) rows: direction
        # d's columns take its h_{t-1}, (batch, time, H) in its reading order
        g_rows = g.reshape(-1, d_n * h)
        g_prev = g_rows.reshape(bsz, t_len, d_n * h)
        x_rev = np.empty_like(x.data) if d_n == 2 else None
        g_x = np.empty_like(x.data)
        g_wh = np.empty((d_n, h, 4 * h))
        g_wx = np.empty((d_n, c_in, 4 * h))
        g_b = np.empty((d_n, 4 * h))

        def products(d):
            # h_{t-1} in direction d's reading order: its output a frame back
            cols = slice(d * h, (d + 1) * h)
            prev = g_prev[:, :, cols]
            prev[:, 0] = 0.0
            prev[:, 1:] = out_data[:, :-1, :h] if d == 0 else out_data[:, :0:-1, h:]
            np.matmul(g_rows[:, cols].T, dz2[d], out=g_wh[d])
            np.matmul(rows(d, x_rev).T, dz2[d], out=g_wx[d])
            np.sum(dz2[d], axis=0, out=g_b[d])
            # direction 1's input gradient replaces the reversed input once
            # its wx product has read it
            gx_d = g_x if d == 0 else x_rev
            np.matmul(dz2[d], cells[d][0].data.T, out=gx_d.reshape(-1, c_in))

        _per_direction(products, d_n, threaded)
        if d_n == 2:
            g_x += x_rev[:, ::-1, :]  # after the join
        return (g_x,) + tuple(a[d] for d in range(d_n) for a in (g_wx, g_wh, g_b))

    params = tuple(p for cell in cells for p in cell)
    return Tensor(out_data, (x,) + params, back)


def _conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """conv1d_op's output for arrays, and the zero-padded copy of x from
    which its pullback rebuilds the columns."""
    bsz, t_len, c_in = x.shape
    c_out, c_in_w, k = w.shape
    if c_in_w != c_in:
        raise ValueError(f"conv expects {c_in_w} input channels, got {c_in}")
    left = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (left, k - 1 - left), (0, 0)))
    out = (_columns(xp, k) @ w.reshape(c_out, c_in * k).T + b).reshape(bsz, t_len, c_out)
    return out, xp


def _columns(xp: np.ndarray, k: int) -> np.ndarray:
    """The (batch * time, c_in * k) columns of a padded input's k-frame windows."""
    bsz, padded, c_in = xp.shape
    windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=1)
    return windows.reshape(bsz * (padded - k + 1), c_in * k)


def _conv_pullback(g, xp, w: np.ndarray, x_shape: tuple | None = None) -> tuple:
    """The gradients of w and b, reading the columns rebuilt from the padded
    input xp, led by that of an input of x_shape unless x_shape is None (a
    constant input)."""
    c_out, c_in, k = w.shape
    g2 = g.reshape(-1, c_out)
    grads = ((g2.T @ _columns(xp, k)).reshape(c_out, c_in, k), g2.sum(axis=0))
    if x_shape is None:
        return grads
    bsz, t_len, _ = x_shape
    left = (k - 1) // 2
    gcols = (g2 @ w.reshape(c_out, c_in * k)).reshape(bsz, t_len, c_in, k)
    gxp = np.zeros((bsz, t_len + k - 1, c_in))
    for i in range(k):
        gxp[:, i : i + t_len, :] += gcols[:, :, :, i]
    return (gxp[:, left : left + t_len, :],) + grads


def conv1d_op(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Same-length 1-D convolution over (batch, time, c_in).

    w is (c_out, c_in, k); zero padding puts floor((k-1)/2) frames on the
    left and the remainder on the right. The pullback returns x's
    gradient too; conv_block_op is the conv over a constant input.
    """
    out, xp = _conv_forward(x.data, w.data, b.data)

    def back(g):
        return _conv_pullback(g, xp, w.data, x.data.shape)

    return Tensor(out, (x, w, b), back)


def _pool_forward(x: np.ndarray, pool: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """maxpool1d_op's output for an array, and the per-offset masks its
    pullback reads."""
    if pool < 1:
        raise ValueError("pool size must be >= 1")
    out = x[:, ::pool, :].copy()
    out_bits = out.view(np.uint64)
    # takes[k - 1]: where offset k beat offsets 0..k-1 (a final window may lack it)
    takes = []
    for k in range(1, pool):
        xk = x[:, k::pool, :]
        n = xk.shape[1]
        best, best_bits = out[:, :n, :], out_bits[:, :n, :]
        take = xk <= best
        np.logical_not(take, out=take)  # greater, or xk is NaN
        take &= best == best  # a NaN, once in, stays
        # best = where(take, xk, best): flip the bits that differ, where taken
        flip = np.bitwise_xor(best_bits, xk.view(np.uint64))
        flip *= take
        best_bits ^= flip
        takes.append(take)
    return out, takes


def _pool_pullback(g: np.ndarray, takes: list[np.ndarray], x_shape: tuple) -> np.ndarray:
    """The input gradient: g at each window's winning frame, +0.0 elsewhere."""
    pool = len(takes) + 1
    gx = np.empty(x_shape)
    g_bits, gx_bits = g.view(np.uint64), gx.view(np.uint64)
    # a later offset's win overrides an earlier one's; offset 0 keeps the rest
    rest = np.ones(g.shape, dtype=bool)
    for k in range(pool - 1, 0, -1):
        take = takes[k - 1]
        n = take.shape[1]
        rest_k = rest[:, :n, :]
        np.multiply(g_bits[:, :n, :], take & rest_k, out=gx_bits[:, k::pool, :])
        rest_k &= ~take
    np.multiply(g_bits, rest, out=gx_bits[:, ::pool, :])
    return gx


def maxpool1d_op(x: Tensor, pool: int) -> Tensor:
    """Per-window max over time with a partial final window allowed.

    A running max over the pool offsets: offset k's frames x[:, k::pool]
    take a window where they are strictly greater than its best so far, so
    ties keep the first offset, or where they are NaN and the best so far
    is not, so a window's first NaN wins. That is np.argmax over each
    window, with no padded copy and no index array. The backward pass
    routes g through the saved per-offset masks. Both passes select by
    integer ops on the float64 bit patterns: exact, and without a branch
    per element, several times faster than a masked np.copyto.
    """
    out, takes = _pool_forward(x.data, pool)

    def back(g):
        return (_pool_pullback(g, takes, x.data.shape),)

    return Tensor(out, (x,), back)


def _bn_forward(centered, var, eps: float, gamma: np.ndarray, beta: np.ndarray):
    """batchnorm_op's output for arrays, and (xhat, 1 / sqrt(var + eps)), which
    its pullback reads; xhat is made in place of centered."""
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered
    xhat *= inv
    out = gamma * xhat
    out += beta
    return out, (xhat, inv)


def _bn_pullback(g: np.ndarray, saved, gamma: np.ndarray, train: bool) -> tuple:
    """The gradients of the input, gamma and beta: sum_gx = sum(g * xhat)
    and sum_g = sum(g) over the n rows of the leading axes are gamma's and
    beta's, and the input's is made in g: (g - sum_g / n - xhat * (sum_gx /
    n)) * (gamma * inv) in train mode, where mean and variance depend on x,
    else g * (gamma * inv)."""
    xhat, inv = saved
    axes = tuple(range(xhat.ndim - 1))
    n = xhat.size // xhat.shape[-1]
    prod = np.multiply(g, xhat)
    sum_gx = prod.sum(axis=axes)
    sum_g = g.sum(axis=axes)
    if train:
        np.multiply(xhat, sum_gx / n, out=prod)
        g -= sum_g / n
        g -= prod
    g *= gamma * inv
    return g, sum_gx, sum_g


# the norm argument of batchnorm_op and conv_block_op: gamma, beta, stats,
# eps and train
BlockNorm = tuple[Tensor, Tensor, Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]], float, bool]


def batchnorm_op(x: Tensor, norm: BlockNorm) -> Tensor:
    """gamma * (x - mu) / sqrt(var + eps) + beta, per channel (the last axis).

    norm is (gamma, beta, stats, eps, train), as conv_block_op takes it.
    stats maps x's array to (x - mu, var), as BatchNorm1d.statistics does;
    the op owns x - mu and scales it in place into the normalized input.
    train means mu and var are the statistics of x over every leading
    axis, so the pullback into x also goes through them; else they are
    fixed.
    """
    gamma, beta, stats, eps, train = norm
    out, saved = _bn_forward(*stats(x.data), eps, gamma.data, beta.data)

    def back(g):
        return _bn_pullback(g, saved, gamma.data, train)

    return Tensor(out, (x, gamma, beta), back)


def _dropout_forward(x: np.ndarray, rate: float, rng: np.random.Generator, out=None):
    """x times a fresh keep mask and 1 / (1 - rate), into out when given,
    and the boolean mask, one byte an element, which the pullback reads.

    The mask, then the Python scalar: the bits of x * (keep / (1 - rate)),
    for finite values, +-0, +-inf and NaN, without a float64 scale array.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    keep = rng.random(x.shape) >= rate
    out = np.multiply(x, keep, out=out)
    out *= 1.0 / (1.0 - rate)
    return out, keep


def _dropout_pullback(g: np.ndarray, keep: np.ndarray, rate: float) -> np.ndarray:
    """The input gradient, made in g itself with the forward's two multiplies."""
    np.multiply(g, keep, out=g)
    g *= 1.0 / (1.0 - rate)
    return g


def dropout_op(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; call only in train mode (eval is the identity)."""
    if rate == 0.0:
        return x
    out, keep = _dropout_forward(x.data, rate, rng)

    def back(g):
        return (_dropout_pullback(g, keep, rate),)

    return Tensor(out, (x,), back)


def conv_block_op(
    x: np.ndarray,
    w: Tensor,
    b: Tensor,
    pool: int,
    norm: BlockNorm | None,
    rate: float,
    rng: np.random.Generator | None,
) -> Tensor:
    """conv1d_op -> maxpool1d_op -> batchnorm_op -> dropout_op over a
    constant x, such as a data batch, as one tape node.

    Each stage runs its op's own array forward and pullback, so the output
    and every parameter gradient are bit for bit those of the chain of
    single ops; the stages hand each other their gradients as computed.
    norm is None for no batchnorm, or batchnorm_op's norm argument, whose
    stats gets the pooled array. rate is dropout's, and 0 runs none, as in
    eval mode; else rng draws the mask.

    The tape keeps conv's zero-padded input, pool's per-offset masks,
    batchnorm's xhat and dropout's boolean mask, besides the output. The
    padded input is a copy, about k times smaller than conv's (batch * time,
    c_in * k) columns, and so a caller that reuses x cannot change the
    gradient; the pullback rebuilds the columns from it, but not conv's
    output. Each stage's output is freed once the next stage has read it,
    and dropout scales batchnorm's output in place.
    """
    out, xp = _conv_forward(np.asarray(x, dtype=np.float64), w.data, b.data)
    conv_shape = out.shape
    out, takes = _pool_forward(out, pool)
    params = (w, b)
    if norm is not None:
        gamma, beta, stats, eps, train = norm
        out, bn_saved = _bn_forward(*stats(out), eps, gamma.data, beta.data)
        params += (gamma, beta)
    keep = None
    if rate:
        out, keep = _dropout_forward(out, rate, rng, out=out)

    def back(g):
        if keep is not None:
            g = _dropout_pullback(g, keep, rate)
        norm_grads = ()
        if norm is not None:
            g, *norm_grads = _bn_pullback(g, bn_saved, gamma.data, train)
        return (*_conv_pullback(_pool_pullback(g, takes, conv_shape), xp, w.data), *norm_grads)

    return Tensor(out, params, back)
