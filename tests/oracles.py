"""Independent reference implementations the tests trust.

Everything here is deliberately brute force and written against the
definitions, not against the package: a memoized prefix recursion for
edit distance, exhaustive path enumeration for the sequence loss and
decoder, a prefix beam search over a {prefix: masses} dict, max-pooling by
np.argmax, an LSTM op that stores each per-step quantity in its own array
and runs its directions one after the other, the conv block as a chain of
one tape node per stage, a central finite-difference
differentiator, and the original one-line-at-a-time recording reader and
per-value writer.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from penscript.dataio import RecordingFormatError
from penscript.netcore.tensor import Tensor


@lru_cache(maxsize=None)
def ed_oracle(a: str, b: str) -> int:
    """Unit-cost edit distance by the prefix recursion, memoized globally.

    The cache is shared across every pair in a session, which makes the
    exhaustive small-alphabet sweep cheap: all subproblems are prefix
    pairs and there are only as many as there are string pairs.
    """
    if not a:
        return len(b)
    if not b:
        return len(a)
    diag = ed_oracle(a[:-1], b[:-1]) + (0 if a[-1] == b[-1] else 1)
    return min(diag, ed_oracle(a[:-1], b) + 1, ed_oracle(a, b[:-1]) + 1)


def collapse(path, blank: int) -> tuple[int, ...]:
    """CTC collapse: merge adjacent repeats, then drop blanks."""
    out = []
    prev = None
    for k in path:
        if k != prev and k != blank:
            out.append(int(k))
        prev = k
    return tuple(out)


def enumerate_labelings(t_len: int, width: int) -> tuple[np.ndarray, dict]:
    """All frame paths and their collapsed labelings.

    Returns (paths array of shape (W^T, T), {labeling: path index array}).
    """
    paths = np.array(list(product(range(width), repeat=t_len)), dtype=np.int64)
    blank = width - 1
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, row in enumerate(paths):
        groups.setdefault(collapse(row, blank), []).append(i)
    return paths, {lab: np.array(idx) for lab, idx in groups.items()}


def labeling_masses(p: np.ndarray, paths: np.ndarray, groups: dict) -> dict:
    """Total path probability per collapsed labeling, by full enumeration."""
    t_len = p.shape[0]
    path_probs = p[np.arange(t_len), paths].prod(axis=1)
    return {lab: float(path_probs[idx].sum()) for lab, idx in groups.items()}


def ctc_total_oracle(p: np.ndarray, target: tuple[int, ...]) -> float:
    """Probability mass of one target labeling over all alignments."""
    t_len, width = p.shape
    paths, groups = enumerate_labelings(t_len, width)
    masses = labeling_masses(p, paths, groups)
    return masses.get(tuple(target), 0.0)


def best_labeling_oracle(p: np.ndarray) -> tuple[int, ...]:
    """Exact argmax labeling; ties break to the shorter then smaller one."""
    t_len, width = p.shape
    paths, groups = enumerate_labelings(t_len, width)
    masses = labeling_masses(p, paths, groups)
    return min(masses.items(), key=lambda kv: (-kv[1], len(kv[0]), kv[0]))[0]


def prefix_beam_oracle(log_probs: np.ndarray, beam_width: int) -> tuple[int, ...]:
    """Prefix beam search (Hannun et al. 2014) with each beam a dict entry.

    log_probs is a (T, K+1) matrix whose last column is the blank; each
    beam maps its prefix to its blank-ending and label-ending log-masses.
    At each frame a prefix stays (by a blank, or by repeating its last
    label) and grows by each label k; growing by its own last label takes
    only the blank-ending mass. A growth whose source mass is -inf is no
    candidate. The beam_width candidates of largest total mass survive,
    ties going to the shorter, then the lexicographically smaller prefix.
    """
    neg_inf = float("-inf")
    beams = {(): (0.0, neg_inf)}
    for row in np.asarray(log_probs, dtype=np.float64).tolist():
        blank = len(row) - 1
        grown = {}
        for prefix, (p_blank, p_label) in beams.items():
            total = np.logaddexp(p_blank, p_label)
            stay_label = p_label + row[prefix[-1]] if prefix else neg_inf
            grown[prefix] = [total + row[blank], stay_label]
        for prefix, (p_blank, p_label) in beams.items():
            total = np.logaddexp(p_blank, p_label)
            for k in range(blank):
                source = p_blank if prefix and prefix[-1] == k else total
                if source == neg_inf:
                    continue
                masses = grown.setdefault(prefix + (k,), [neg_inf, neg_inf])
                masses[1] = np.logaddexp(masses[1], source + row[k])

        def rank(item):
            prefix, (p_blank, p_label) = item
            return (-np.logaddexp(p_blank, p_label), len(prefix), prefix)

        beams = dict(sorted(grown.items(), key=rank)[:beam_width])
    return next(iter(beams))


def central_diff(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of x, elementwise."""
    grad = np.zeros_like(x)
    flat, gflat = x.ravel(), grad.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = fn()
        flat[i] = keep - h
        lo = fn()
        flat[i] = keep
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Max elementwise difference over the larger gradient scale."""
    a, b = np.asarray(a), np.asarray(b)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-10)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def maxpool_oracle(x: np.ndarray, pool: int, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max-pool of (batch, time, channels) by np.argmax, and the input gradient for g.

    The time axis is padded with -inf to whole windows of `pool` frames,
    so a partial final window pools the frames it has. np.argmax picks
    each window's first maximum, or its first NaN; the output is that
    element and the gradient g goes back to it alone.
    """
    bsz, t_len, ch = x.shape
    t_out = -(-t_len // pool)
    xp = np.pad(x, ((0, 0), (0, t_out * pool - t_len), (0, 0)), constant_values=-np.inf)
    win = xp.reshape(bsz, t_out, pool, ch)
    idx = win.argmax(axis=2)[:, :, None, :]
    gwin = np.zeros_like(win)
    np.put_along_axis(gwin, idx, g[:, :, None, :], axis=2)
    dx = np.zeros_like(x)
    dx += gwin.reshape(bsz, t_out * pool, ch)[:, :t_len, :]
    return np.take_along_axis(win, idx, axis=2)[:, :, 0, :], dx


def lstm_oracle(x, cells):
    """tensor.lstm_op as it stood before its one-buffer rewrite, kept to pin
    every bit of the output and of each gradient.

    The same arrays and operations in the same order, with the two
    directions' array work run one after the other instead of on two
    threads. Takes and returns Tensors, and its pullback returns x's
    gradient and each cell's, in its parents' order, as lstm_op's does.
    """
    d_n = len(cells)
    bsz, t_len, c_in = x.data.shape
    h = cells[0][1].data.shape[0]
    wh_s = np.stack([wh.data for _, wh, _ in cells])
    xw = np.empty((d_n, bsz * t_len, 4 * h))
    x_rows = []
    for d in range(d_n):
        wx, _, b = cells[d]
        rows = x.data if d == 0 else np.ascontiguousarray(x.data[:, ::-1, :])
        rows = rows.reshape(-1, c_in)
        np.matmul(rows, wx.data, out=xw[d])
        xw[d] += b.data
        x_rows.append(rows)
    xw = xw.reshape(d_n, bsz, t_len, 4 * h)
    acts = np.empty((t_len, d_n, bsz, 4 * h))
    cs = np.zeros((t_len + 1, d_n, bsz, h))
    tcs = np.empty((t_len, d_n, bsz, h))
    hs = np.zeros((t_len + 1, d_n, bsz, h))
    z = np.empty((d_n, bsz, 4 * h))
    ig = np.empty((d_n, bsz, h))
    for t in range(t_len):
        a = acts[t]
        np.matmul(hs[t], wh_s, out=z)
        z += xw[:, :, t]
        np.maximum(z, -500.0, out=a)
        np.minimum(a, 500.0, out=a)
        np.negative(a, out=a)
        np.exp(a, out=a)
        a += 1.0
        np.divide(1.0, a, out=a)
        np.tanh(z[:, :, 2 * h : 3 * h], out=a[:, :, 2 * h : 3 * h])
        c = cs[t + 1]
        np.multiply(a[:, :, h : 2 * h], cs[t], out=c)
        np.multiply(a[:, :, :h], a[:, :, 2 * h : 3 * h], out=ig)
        c += ig
        np.tanh(c, out=tcs[t])
        np.multiply(a[:, :, 3 * h :], tcs[t], out=hs[t + 1])
    out_data = np.empty((bsz, t_len, d_n * h))
    out_data[:, :, :h] = hs[1:, 0].transpose(1, 0, 2)
    if d_n == 2:
        out_data[:, :, h:] = hs[:0:-1, 1].transpose(1, 0, 2)

    def back(g):
        gs = np.empty((t_len, d_n, bsz, h))
        dz = np.empty((d_n, bsz, t_len, 4, h))
        dzt = dz.transpose(2, 0, 1, 3, 4)
        dc_dh = np.empty((t_len, d_n, bsz, h))
        for d in range(d_n):
            gs[:, d] = (g[:, :, :h] if d == 0 else g[:, ::-1, h:]).transpose(1, 0, 2)
            i_g, f_g, g_g, o_g = (acts[:, d, :, k * h : (k + 1) * h] for k in range(4))
            dz_i, dz_f, dz_g, dz_o = (dzt[:, d, :, k, :] for k in range(4))
            one_minus = dc_dh[:, d]
            np.multiply(g_g, i_g, out=dz_i)
            dz_i *= np.subtract(1.0, i_g, out=one_minus)
            np.multiply(cs[:-1, d], f_g, out=dz_f)
            dz_f *= np.subtract(1.0, f_g, out=one_minus)
            np.multiply(g_g, g_g, out=dz_g)
            np.subtract(1.0, dz_g, out=dz_g)
            dz_g *= i_g
            np.multiply(tcs[:, d], o_g, out=dz_o)
            dz_o *= np.subtract(1.0, o_g, out=one_minus)
            np.multiply(tcs[:, d], tcs[:, d], out=one_minus)
            np.subtract(1.0, one_minus, out=one_minus)
            one_minus *= o_g
        wh_t = wh_s.transpose(0, 2, 1)
        f_g = acts[..., h : 2 * h]
        dh = np.zeros((d_n, bsz, h))
        dc = np.zeros((d_n, bsz, h))
        tmp = np.empty((d_n, bsz, h))
        for t in range(t_len - 1, -1, -1):
            dz_t = dzt[t]
            dh += gs[t]
            np.multiply(dh, dc_dh[t], out=tmp)
            dc += tmp
            np.multiply(dz_t[:, :, :3], dc[:, :, None, :], out=dz_t[:, :, :3])
            np.multiply(dz_t[:, :, 3], dh, out=dz_t[:, :, 3])
            if t:
                dc *= f_g[t]
                np.matmul(dz_t.reshape(d_n, bsz, 4 * h), wh_t, out=dh)
        dz2 = dz.reshape(d_n, -1, 4 * h)
        g_x, g_cells = None, []
        for d, (wx, wh, b) in enumerate(cells):
            h_prev = np.ascontiguousarray(hs[:-1, d].transpose(1, 0, 2)).reshape(-1, h)
            gx = (dz2[d] @ wx.data.T).reshape(x.data.shape)
            g_cells += [x_rows[d].T @ dz2[d], h_prev.T @ dz2[d], dz2[d].sum(axis=0)]
            g_x = gx if d == 0 else g_x + gx[:, ::-1, :]
        return (g_x, *g_cells)

    params = tuple(p for cell in cells for p in cell)
    return Tensor(out_data, (x,) + params, back)


def conv_block_oracle(x, w, b, pool, norm, rate, rng, eps=1e-5):
    """tensor.conv_block_op in train mode as it stood before its fusion: a
    chain of four tape nodes, kept to pin every bit of the output and of
    each gradient.

    Conv, batchnorm and dropout are the single ops of that time; pooling
    is maxpool_oracle. x is a constant array; norm is None or (gamma,
    beta), normalized by the batch's own statistics; rate 0 draws no mask.
    Takes and returns Tensors, and each node's pullback returns its
    parents' gradients.
    """
    bsz, t_len, c_in = x.shape
    c_out, _, k = w.data.shape
    left = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (left, k - 1 - left), (0, 0)))
    cols2 = np.lib.stride_tricks.sliding_window_view(xp, k, axis=1).reshape(bsz * t_len, c_in * k)
    wmat = w.data.reshape(c_out, c_in * k).T

    def conv_back(g):
        g2 = g.reshape(bsz * t_len, c_out)
        return (g2.T @ cols2).reshape(c_out, c_in, k), g2.sum(axis=0)

    conv = Tensor((cols2 @ wmat + b.data).reshape(bsz, t_len, c_out), (w, b), conv_back)

    def pool_back(g):
        return (maxpool_oracle(conv.data, pool, g)[1],)

    t_out = -(-t_len // pool)
    y = Tensor(maxpool_oracle(conv.data, pool, np.zeros((bsz, t_out, c_out)))[0], (conv,), pool_back)
    if norm is not None:
        y = _batchnorm_node(y, *norm, eps)
    if rate:
        y = _dropout_node(y, rate, rng)
    return y


def _batchnorm_node(x, gamma, beta, eps):
    axes = tuple(range(x.data.ndim - 1))
    n = x.data.size // x.data.shape[-1]
    mu = x.data.mean(axis=axes)
    centered = x.data - mu
    var = (centered * centered).sum(axis=axes) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv

    def back(g):
        sum_gx = (g * xhat).sum(axis=axes)
        sum_g = g.sum(axis=axes)
        return (g - sum_g / n - xhat * (sum_gx / n)) * (gamma.data * inv), sum_gx, sum_g

    out = gamma.data * xhat
    out += beta.data
    return Tensor(out, (x, gamma, beta), back)


def _dropout_node(x, rate, rng):
    keep = rng.random(x.data.shape) >= rate

    def back(g):
        return (g * (keep / (1.0 - rate)),)

    return Tensor(x.data * (keep / (1.0 - rate)), (x,), back)


def assert_valid_script(script) -> None:
    """Check an alignment is a real monotone cover with the claimed counts."""
    ref, hyp = script.reference, script.hypothesis
    i = j = 0
    subs = ins = dels = 0
    for kind, ref_pos, hyp_pos in script.ops:
        assert (ref_pos, hyp_pos) == (i, j), f"op out of order: {(kind, ref_pos, hyp_pos)}"
        if kind == "match":
            assert ref[i] == hyp[j]
            i += 1
            j += 1
        elif kind == "substitute":
            assert ref[i] != hyp[j]
            subs += 1
            i += 1
            j += 1
        elif kind == "delete":
            dels += 1
            i += 1
        elif kind == "insert":
            ins += 1
            j += 1
        else:
            raise AssertionError(f"unknown op kind {kind!r}")
    assert (i, j) == (len(ref), len(hyp)), "ops do not cover both sequences"
    assert (subs, ins, dels) == (script.subs, script.ins, script.dels)
    assert script.distance == subs + ins + dels


def recording_rows_oracle(raw_text: str) -> np.ndarray:
    """The (rows, channels) data matrix of a recording, one line at a time.

    This is the original reader: each non-blank line after the header is
    split, converted with float() and checked on its own, so the first bad
    line raises. The header is assumed well formed.
    """
    lines = raw_text.splitlines()
    header = dict(part.split(":") for part in lines[0].split(","))
    channels = int(header["channels"])
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != channels + 1:
            raise RecordingFormatError(
                f"line {lineno}: expected timestep + {channels} channel fields, got {len(parts)}"
            )
        try:
            parsed = [float(p) for p in parts]
        except ValueError:
            raise RecordingFormatError(f"line {lineno}: non-numeric field") from None
        if not all(np.isfinite(v) for v in parsed):
            raise ValueError(f"line {lineno}: non-finite value")
        rows.append(parsed[1:])
    if not rows:
        raise RecordingFormatError("recording has no data rows")
    return np.asarray(rows, dtype=np.float64)


def recording_text_oracle(value_blocks, rate_hz: float) -> str:
    """Data-file text for consecutive value matrices, one repr(float(v)) per value."""
    channels = value_blocks[0].shape[1]
    lines = [f"channels:{channels},rate_hz:{rate_hz:g}"]
    offset = 0
    for values in value_blocks:
        for t in range(values.shape[0]):
            row = ",".join(repr(float(v)) for v in values[t])
            lines.append(f"{offset + t},{row}")
        offset += values.shape[0]
    return "\n".join(lines) + "\n"
