"""A prefix beam search written apart from the program's, to check its decoder.

Follows the algorithm of Hannun et al. (2014) over log-probabilities whose
last class is the blank. The surviving prefixes' blank-ending and
label-ending masses are kept as arrays, and each frame extends every beam
by every label at once. Ties rank the shorter, then the lexicographically
smaller prefix first.
"""

from __future__ import annotations

import numpy as np


def _rank_key(item):
    prefix, (p_blank, p_label) = item
    return (-np.logaddexp(p_blank, p_label), len(prefix), prefix)


def prefix_beam_search(log_probs: np.ndarray, beam_width: int) -> tuple[int, ...]:
    y = np.asarray(log_probs, dtype=np.float64)
    blank = y.shape[1] - 1
    prefixes: list[tuple[int, ...]] = [()]
    p_blank = np.array([0.0])
    p_label = np.array([-np.inf])
    for row in y:
        total = np.logaddexp(p_blank, p_label)
        last = np.array([p[-1] if p else -1 for p in prefixes])
        has_last = last >= 0
        # a prefix stays by a blank, or by repeating its last label
        stay_blank = total + row[blank]
        stay_label = np.where(has_last, p_label + row[np.maximum(last, 0)], -np.inf)
        # a prefix grows by label k; growing by its last label needs a blank between
        source = np.repeat(total[:, None], blank, axis=1)
        source[has_last, last[has_last]] = p_blank[has_last]
        grown = source + row[:blank]

        candidates: dict[tuple[int, ...], list[float]] = {}
        for b, prefix in enumerate(prefixes):
            candidates[prefix] = [stay_blank[b], stay_label[b]]
        for b, prefix in enumerate(prefixes):
            for k in np.flatnonzero(source[b] > -np.inf):
                masses = candidates.setdefault(prefix + (int(k),), [-np.inf, -np.inf])
                masses[1] = np.logaddexp(masses[1], grown[b, k])

        kept = sorted(candidates.items(), key=_rank_key)[:beam_width]
        prefixes = [prefix for prefix, _ in kept]
        p_blank = np.array([m[0] for _, m in kept])
        p_label = np.array([m[1] for _, m in kept])
    return prefixes[0]
