"""Classification losses with analytic gradients, and the CTC machinery.

The eight character losses take a logit vector and a target index, or a
(B, K) logit matrix and B targets scored as the mean over rows, and return
both the value and its gradient with respect to the logits, all in double
precision. They share one scaffold, `_character_loss`: it checks the
arguments, maps logits to probabilities p, takes clamped logs (so
saturated predictions stay finite) and the (1/K) class scale (switchable
off via LossParams.scale_free), then pulls the loss's gradient in p back
through the softmax Jacobian as p * (g - p.g). Each loss supplies only its
row values and d(loss)/dp.

The sequence side is connectionist temporal classification: a loss that
marginalizes over all monotonic frame-to-label alignments using a
reserved blank class at the last index, plus greedy and prefix beam
decoders. `ctc_loss` takes one (T, K+1) matrix and one target, or a
(B, T, K+1) batch and B targets scored as the mean over rows, like the
character losses. One log-space recursion over the padded (B, T, S)
lattices, `_forward`, gives both CTC passes: the backward variables are
the forward variables of the lattice reversed in time and in state.

The prefix beam search keeps each prefix as a trie node (parent id, last
label, length), so no frame touches a label tuple. Each frame scores every
beam's stay and every extension as one (beams, K+1) candidate matrix and
keeps the beam_width best by total mass, ties going to the shorter and
then the lexicographically smaller prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from typing import Annotated, Sequence

import numpy as np

from penscript.jsonconfig import JsonConfig

NEG_INF = float("-inf")


@dataclass(frozen=True)
class LossParams(JsonConfig):
    """Hyperparameters for every loss variant, defaults tuned for noisy labels."""

    fl_alpha: Annotated[float, "[0, 1]"] = 0.75
    fl_gamma: Annotated[float, "[0, inf)"] = 8.0
    lsr_beta: Annotated[float, "[0, 1]"] = 0.1
    sbs_beta: Annotated[float, "[0, 1]"] = 0.95
    hbs_beta: Annotated[float, "[0, 1]"] = 0.8
    gce_alpha: Annotated[float, "(0, 1]"] = 0.95
    sce_alpha: Annotated[float, "[0, inf)"] = 0.5
    sce_beta: Annotated[float, "[0, inf)"] = 0.5
    jo_alpha: Annotated[float, "[0, inf)"] = 1.2
    jo_beta: Annotated[float, "[0, inf)"] = 0.8
    log_clamp_eps: Annotated[float, "(0, inf)"] = 1e-12
    rce_log_zero: Annotated[float, "(-inf, inf)"] = -4.0
    scale_free: bool = False


@dataclass
class LossOutput:
    value: float
    grad_logits: np.ndarray

    def __post_init__(self) -> None:
        self.value = float(self.value)
        if not np.isfinite(self.value):
            raise ValueError("loss value is not finite")
        if not np.isfinite(self.grad_logits).all():
            raise ValueError("loss gradient is not finite")


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable log-probabilities along the last axis."""
    x = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("logits contain non-finite values")
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def _clamped_log(p: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """log(max(p, eps)) and its derivative in p (zero where the clamp binds)."""
    safe = np.maximum(p, eps)
    dlog = np.where(p >= eps, 1.0 / safe, 0.0)
    return np.log(safe), dlog


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products, each rounded as np.dot rounds that row alone."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _character_loss(body):
    """Make a character loss from body(p, logp, dlog, t, scale, params).

    The body sees (B, K) arrays and t = (rows, targets), which indexes each
    row's target entry, and returns the B row values and their gradient g
    in p. The wrapper checks the arguments, supplies the softmax, the
    clamped log and the (1/K) scale, chains g through the softmax Jacobian
    as p * (g - p.g) and returns the mean over rows, summed in row order as
    a loop over per-sample calls would, with its gradient.
    """

    def loss(logits: np.ndarray, targets, params: LossParams | None = None) -> LossOutput:
        params = params or LossParams()
        x = np.asarray(logits, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[None]
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValueError("character losses take a logit vector or a (B >= 1, K) matrix")
        b, k = x.shape
        t = np.array(targets, dtype=np.int64, ndmin=1)
        if t.shape != (b,):
            raise ValueError("batch size mismatch between logits and targets")
        bad = t[(t < 0) | (t >= k)]
        if bad.size:
            raise ValueError(f"target index {bad[0]} out of range for {k} classes")
        scale = 1.0 if params.scale_free else 1.0 / k
        p = softmax(x)
        logp, dlog = _clamped_log(p, params.log_clamp_eps)
        rows, g = body(p, logp, dlog, (np.arange(b), t), scale, params)
        grad = p * (g - _row_dot(p, g)[:, None]) / b
        return LossOutput(sum(rows / b), grad[0] if single else grad)

    loss.__name__ = loss.__qualname__ = body.__name__
    loss.__doc__ = body.__doc__
    return loss


@_character_loss
def cce(p, logp, dlog, t, scale, params):
    """Class-normalized cross entropy: -(1/K) log p(target)."""
    g = np.zeros_like(p)
    g[t] = -scale * dlog[t]
    return -scale * logp[t], g


@_character_loss
def focal(p, logp, dlog, t, scale, params):
    """Cross entropy damped by (1 - p_t)^gamma so easy samples contribute little."""
    scale = scale * params.fl_alpha
    gamma = params.fl_gamma
    pt = p[t]
    # rows with p_t = 1 give 0: base 1 keeps their powers finite, live zeroes them
    live = pt < 1.0
    q = np.where(live, 1.0 - pt, 1.0)
    mod = live * q**gamma
    dmod = 0.0 if gamma == 0 else live * gamma * q ** (gamma - 1.0)
    g = np.zeros_like(p)
    # d/dp_t of -(1-p_t)^gamma log p_t
    g[t] = scale * (dmod * logp[t] - mod * dlog[t])
    return -scale * mod * logp[t], g


@_character_loss
def lsr(p, logp, dlog, t, scale, params):
    """Cross entropy plus a confidence penalty: -(beta/K) * entropy(p)."""
    pen = params.lsr_beta * scale
    value = -scale * logp[t] + pen * _row_dot(p, logp)
    g = pen * (logp + p * dlog)
    g[t] += -scale * dlog[t]
    return value, g


@_character_loss
def boot_soft(p, logp, dlog, t, scale, params):
    """Cross entropy against beta * one-hot target + (1 - beta) * own prediction."""
    beta = params.sbs_beta
    value = -scale * (beta * logp[t] + (1.0 - beta) * _row_dot(p, logp))
    g = -scale * (1.0 - beta) * (logp + p * dlog)
    g[t] += -scale * beta * dlog[t]
    return value, g


@_character_loss
def boot_hard(p, logp, dlog, t, scale, params):
    """Like boot_soft but mixing in the argmax prediction as a hard label.

    The argmax choice itself is treated as a constant, so the gradient is
    exact everywhere except on decision boundaries.
    """
    beta = params.hbs_beta
    z = (t[0], np.argmax(p, axis=1))
    value = -scale * (beta * logp[t] + (1.0 - beta) * logp[z])
    g = np.zeros_like(p)
    g[t] += -scale * beta * dlog[t]
    g[z] += -scale * (1.0 - beta) * dlog[z]
    return value, g


@_character_loss
def gce(p, logp, dlog, t, scale, params):
    """Box-Cox loss (1 - p_t^alpha) / alpha, spanning cross entropy to MAE.

    No (1/K) factor here: as alpha -> 0 the value approaches -log p_t, the
    unnormalized cross entropy.
    """
    alpha = params.gce_alpha
    pt = p[t]
    g = np.zeros_like(p)
    g[t] = -np.maximum(pt, params.log_clamp_eps) ** (alpha - 1.0)
    return (1.0 - pt**alpha) / alpha, g


@_character_loss
def sce(p, logp, dlog, t, scale, params):
    """Symmetric sum of cross entropy and reverse cross entropy.

    The reverse term swaps prediction and target; log 0 on the one-hot
    target is replaced by the finite rce_log_zero.
    """
    a, b = params.sce_alpha, params.sce_beta
    zero = params.rce_log_zero
    rce_value = -scale * zero * (1.0 - p[t])
    value = a * (-scale * logp[t]) + b * rce_value
    g = np.full_like(p, -b * scale * zero)
    g[t] = -a * scale * dlog[t]
    return value, g


@_character_loss
def joint_opt(p, logp, dlog, t, scale, params):
    """Cross entropy + prior KL + prediction entropy (Tanaka et al. 2018).

    The KL term, added to every row, pulls the batch-mean prediction toward
    the uniform prior; the entropy term pushes each prediction toward
    confidence. Together they resist degenerate label fitting.
    """
    prior = 1.0 / p.shape[1]
    log_pbar, dlog_pbar = _clamped_log(p.mean(axis=0), params.log_clamp_eps)
    kl = np.sum(prior * (np.log(max(prior, params.log_clamp_eps)) - log_pbar))
    value = -scale * logp[t] + params.jo_alpha * kl - params.jo_beta * _row_dot(p, logp)
    # a row's share of d(kl)/dp is 1/B of this; the wrapper's 1/B supplies it
    g = -params.jo_alpha * prior * dlog_pbar - params.jo_beta * (logp + p * dlog)
    g[t] -= scale * dlog[t]
    return value, g


CHARACTER_LOSSES = {
    "cce": cce,
    "focal": focal,
    "lsr": lsr,
    "boot_soft": boot_soft,
    "boot_hard": boot_hard,
    "gce": gce,
    "sce": sce,
    "joint_opt": joint_opt,
}


class CTCInfeasibleError(ValueError):
    """Raised when the frame count cannot fit the target under CTC rules."""


def _skip_mask(ext: np.ndarray) -> np.ndarray:
    """States that may also be entered from two states back: labels that differ
    from the label before them (a blank never differs from the blank before)."""
    skip = np.zeros(ext.shape, dtype=bool)
    skip[:, 2:] = ext[:, 2:] != ext[:, :-2]
    return skip


def _forward(emit: np.ndarray, skip: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Log-space forward variables over a (B, T, S) emission lattice whose
    row r begins at state start[r]; the states below it stay at -inf."""
    b, t_len, s_len = emit.shape
    first = np.arange(s_len) - start[:, None]
    # two leading -inf columns stand in for the states before state 0
    alpha = np.full((b, t_len, s_len + 2), NEG_INF)
    alpha[:, 0, 2:] = np.where((first >= 0) & (first < 2), emit[:, 0], NEG_INF)
    for t in range(1, t_len):
        prev = alpha[:, t - 1]
        comb = np.logaddexp(prev[:, 2:], prev[:, 1:-1])
        comb = np.logaddexp(comb, np.where(skip, prev[:, :-2], NEG_INF))
        np.add(emit[:, t], comb, out=alpha[:, t, 2:])
    return alpha[:, :, 2:]


def ctc_feasible(num_frames: int, target: Sequence[int]) -> bool:
    """A target fits iff frames cover every label plus blanks between repeats."""
    repeats = sum(1 for a, b in zip(target, target[1:]) if a == b)
    return num_frames >= len(target) + repeats


def _log_probs(log_probs: np.ndarray, batched: bool) -> tuple[np.ndarray, bool]:
    """log_probs as a float64 (B, T, K+1) array, and whether it came as one
    (T, K+1) matrix, which becomes a batch of one.

    The decoders take only a matrix, of any frame count (batched=False);
    ctc_loss also takes a batch, and asks for at least one row and one
    frame (batched=True). A ValueError names a wrong shape, or the first
    frame holding a NaN or a +inf, which no log-probability can be, and in
    a batch its row. Every column is checked, so one that a CTC target
    never reads, and that would not reach the loss value, still fails.
    """
    y = np.asarray(log_probs, dtype=np.float64)
    shape = y.shape
    single = y.ndim == 2
    if single:
        y = y[None]
    if batched and (y.ndim != 3 or min(y.shape[:2]) < 1 or y.shape[2] < 2):
        raise ValueError(
            "log_probs must be (frames >= 1, classes+blank) or"
            f" (B >= 1, frames >= 1, classes+blank), with >= 2 columns; got shape {shape}"
        )
    if not batched and (not single or y.shape[2] < 2):
        raise ValueError(
            f"log_probs must be (frames, classes+blank) with >= 2 columns; got shape {shape}"
        )
    # NaN and +inf are the values that are not below +inf
    rows, frames = np.nonzero(~(y < np.inf).all(axis=2))
    if rows.size:
        r, t = rows[0], frames[0]
        where = "" if single else f"row {r}: "
        kind = "NaN" if np.isnan(y[r, t]).any() else "+inf"
        raise ValueError(f"{where}log_probs are {kind} at frame {t}")
    return y, single


def ctc_loss(log_probs: np.ndarray, targets) -> LossOutput:
    """Negative log-probability of the target under all CTC alignments.

    log_probs is a (T, K+1) matrix of per-frame log-probabilities with the
    blank in the last column and targets one label sequence, or a
    (B, T, K+1) batch and B label sequences scored as the mean over rows
    (summed in row order, as a loop over per-row calls would) with its
    (B, T, K+1) gradient. The value sums every monotonic alignment via the
    forward recursion over the blank-interleaved target; the gradient (with
    respect to log_probs) comes from the forward-backward posteriors. A
    batch pads its lattices to the longest with states that emit 0.
    """
    y, single = _log_probs(log_probs, batched=True)
    if single:
        targets = [targets]
    if len(targets) != len(y):
        raise ValueError("batch size mismatch between log_probs and targets")
    b, t_len, width = y.shape
    blank = width - 1
    targets = [tuple(int(i) for i in target) for target in targets]
    s_len = np.array([2 * len(target) + 1 for target in targets])
    ext = np.full((b, s_len.max()), width)  # padding reads the zero column appended below
    for r, target in enumerate(targets):
        where = "" if single else f"row {r}: "
        if any(i == blank for i in target):
            raise ValueError(f"{where}target may not contain the blank index")
        if any(not 0 <= i < blank for i in target):
            raise ValueError(f"{where}target index out of range for {blank} classes")
        if not ctc_feasible(t_len, target):
            raise CTCInfeasibleError(
                f"{where}{t_len} frames cannot align to a length-{len(target)} target"
            )
        ext[r, : s_len[r]] = blank
        ext[r, 1 : s_len[r] : 2] = target
    padded = np.concatenate([y, np.zeros((b, t_len, 1))], axis=2)
    emit = np.take_along_axis(padded, ext[:, None, :], axis=2)  # (B, T, S)

    rows = np.arange(b)
    alpha = _forward(emit, _skip_mask(ext), np.zeros_like(s_len))
    last = alpha[rows, -1, s_len - 1]
    total = np.logaddexp(last, np.where(s_len > 1, alpha[rows, -1, s_len - 2], NEG_INF))
    # the backward pass is the forward pass over the reversed lattice, whose
    # padding comes first, so each row starts where its padding ends
    start = ext.shape[1] - s_len
    beta = _forward(emit[:, ::-1, ::-1], _skip_mask(ext[:, ::-1]), start)[:, ::-1, ::-1]

    # alpha and beta both include the emission at t, so divide it out once
    post = alpha + beta - emit - total[:, None, None]
    grad = np.zeros_like(padded)
    cells = (rows[:, None, None], np.arange(t_len)[:, None], ext[:, None])
    np.subtract.at(grad, cells, np.exp(post))
    grad = grad[:, :, :width] / b
    return LossOutput(sum(-total / b), grad[0] if single else grad)


def greedy_decode(log_probs: np.ndarray) -> tuple[int, ...]:
    """Best-path decoding: frame argmaxes, collapse repeats, drop blanks."""
    y = _log_probs(log_probs, batched=False)[0][0]  # the batch of one's only row
    best = np.argmax(y, axis=1)
    keep = best != y.shape[1] - 1
    keep[1:] &= best[1:] != best[:-1]
    return tuple(best[keep].tolist())


def beam_decode(log_probs: np.ndarray, beam_width: int) -> tuple[int, ...]:
    """Prefix beam search over collapsed labelings (Hannun et al. 2014).

    Prefixes are nodes of a trie: node 0 is the empty prefix, and node i
    is prefix parent[i] followed by label[i], depth[i] labels long. A
    (parent, label) -> node map gives every prefix one id, even one that
    leaves the beam and comes back. The surviving beams are a list of
    nodes in rank order beside arrays of their blank-ending mass,
    label-ending mass and last label (the blank for the empty prefix).

    Each frame's candidates are one (beams, K+1) matrix. Column k < K
    extends each beam by label k, from its total mass; extending by its
    own last label takes only the blank-ending mass, since label-ending
    paths collapse into the repeat. Column K is each beam's stay, by a
    blank (from its total mass) or by repeating its last label (from its
    label-ending mass). An extension whose source mass is -inf is dead
    and never ranked. When a beam and its parent prefix both survive, the
    parent's extension to it is no candidate of its own: its mass joins
    the beam's label-ending mass. Those pairs are found when the beams are
    kept, by a lookup over the kept nodes.

    Candidates rank by total mass, ties going to the shorter and then the
    lexicographically smaller prefix. Only those at or above the
    beam_width-th best mass are sorted, in one sort by (cost, length,
    prefix) whose prefix key builds label tuples only when the sort
    compares two candidates tied exactly on mass and length; the result
    is the only other tuple built.
    Memory follows the trie, at most one node per kept beam per frame, and
    never the width itself; with a beam at least as wide as the number of
    reachable prefixes the search is exact.
    """
    if isinstance(beam_width, bool) or not isinstance(beam_width, (int, np.integer)) or beam_width < 1:
        raise ValueError(f"beam_width must be an integer >= 1, got {beam_width!r}")
    y = _log_probs(log_probs, batched=False)[0][0]  # the batch of one's only row
    blank = y.shape[1] - 1
    width = blank + 1

    # the empty prefix's label is the blank: its stay then reads its
    # blank-ending mass, which is its total, and its label-ending mass
    # stays -inf
    parent, label, depth = [-1], [blank], [0]
    node_of: dict[tuple[int, int], int] = {}

    def prefix(node: int) -> tuple[int, ...]:
        out = []
        while node:
            out.append(label[node])
            node = parent[node]
        return tuple(reversed(out))

    # candidate c is cell divmod(c, width) of the frame's matrix
    def cand_prefix(c: int) -> tuple[int, ...]:
        b, k = divmod(c, width)
        return prefix(nodes[b]) + ((k,) if k != blank else ())

    def prefix_order(c: int, d: int) -> int:
        mine, theirs = cand_prefix(c), cand_prefix(d)
        return (mine > theirs) - (mine < theirs)

    # a sort builds the prefix tuples only to compare two candidates tied on
    # (cost, length); .obj is the candidate
    by_prefix = cmp_to_key(prefix_order)

    nodes = [0]
    p_blank = np.array([0.0])
    p_label = np.array([NEG_INF])
    last = np.array([blank])
    child = merged = None  # beams whose parent survives, and the parent's cell
    for row in y:
        total = np.logaddexp(p_blank, p_label)
        src = total.repeat(width).reshape(-1, width)  # each candidate's source mass
        # extending by the last label (or, for the empty prefix, staying)
        # reads the blank-ending mass
        src.put(np.arange(0, src.size, width) + last, p_blank)
        mass = src + row
        cost = -mass
        cost[src == NEG_INF] = np.nan  # dead; np.partition puts NaN last, and <= skips it
        stay_label = p_label + row.take(last)
        if child is not None:
            # a dead cell's mass is -inf, and logaddexp(x, -inf) is x
            stay_label[child] = np.logaddexp(stay_label[child], mass.take(merged))
            cost.put(merged, np.nan)
        cost[:, blank] = -np.logaddexp(mass[:, blank], stay_label)

        flat = cost.ravel()
        cut = np.inf
        if flat.size > beam_width:
            kth = np.partition(flat, beam_width - 1)[beam_width - 1]
            if kth == kth:  # a NaN kth: fewer live candidates than the width
                cut = kth
        chosen = (flat <= cut).nonzero()[0]
        costs = flat.take(chosen).tolist()
        chosen = chosen.tolist()
        # only the blank column keeps the beam's length
        lengths = [depth[nodes[c // width]] + (c % width != blank) for c in chosen]
        ranked = sorted(zip(costs, lengths, map(by_prefix, chosen)))
        keep = [entry[2].obj for entry in ranked[:beam_width]]

        stay_blank = mass[:, blank].tolist()
        mass[:, blank] = stay_label
        p_label = mass.take(keep)
        kept, kept_blank = [], []
        for c in keep:
            b, k = divmod(c, width)
            node = nodes[b]
            if k == blank:
                kept_blank.append(stay_blank[b])
            else:
                kept_blank.append(NEG_INF)
                grown = node_of.get((node, k))
                if grown is None:
                    grown = node_of[node, k] = len(parent)
                    parent.append(node)
                    label.append(k)
                    depth.append(depth[node] + 1)
                node = grown
            kept.append(node)
        nodes = kept
        p_blank = np.array(kept_blank)
        last = np.array([label[node] for node in nodes])
        beam_of = {node: b for b, node in enumerate(nodes)}
        pairs = [
            (b, beam_of[parent[node]] * width + label[node])
            for b, node in enumerate(nodes)
            if parent[node] in beam_of
        ]
        child, merged = np.array(pairs).T if pairs else (None, None)

    # the beams are kept in rank order, so the first is the best
    return prefix(nodes[0])
