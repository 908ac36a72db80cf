"""Edit distance with alignment, and the derived recognition metrics.

The unit-cost edit distance counts the substitutions, insertions and
deletions needed to turn the hypothesis into the reference. CER divides
the summed counts by the number of reference characters, WER does the
same with words as atomic tokens, and CRR is plain accuracy over
single-symbol references. The traceback keeps a deterministic alignment
so error positions and confusions are reproducible.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from penscript.dataio import Alphabet


class EditScript:
    """Distance, operation counts and the full alignment for one pair.

    ops is a start-to-end list of (kind, ref_pos, hyp_pos) with kind one of
    match/substitute/delete/insert; delete consumes a reference symbol the
    hypothesis lacks, insert consumes an extra hypothesis symbol, and the
    positions of unconsumed sides are insertion points. Plain __slots__
    class: scripts are built in bulk during exhaustive oracle runs.
    """

    __slots__ = ("distance", "subs", "ins", "dels", "ops", "reference", "hypothesis")

    def __init__(self, distance, subs, ins, dels, ops, reference, hypothesis):
        self.distance = distance
        self.subs = subs
        self.ins = ins
        self.dels = dels
        self.ops = ops
        self.reference = reference
        self.hypothesis = hypothesis

    def __repr__(self) -> str:
        return (
            f"EditScript(distance={self.distance}, subs={self.subs}, "
            f"ins={self.ins}, dels={self.dels})"
        )


def edit_distance(reference: Sequence, hypothesis: Sequence) -> EditScript:
    """Minimal unit-cost edit script between two symbol sequences.

    Dynamic program over prefixes with boundary rows ED[i][0] = i and
    ED[0][j] = j; the traceback breaks ties preferring match, then
    substitute, delete, insert, which pins down one canonical alignment.
    """
    ref, hyp = reference, hypothesis
    m, n = len(ref), len(hyp)

    table = [list(range(n + 1))]
    prev = table[0]
    for i in range(1, m + 1):
        ri = ref[i - 1]
        row = [i]
        append = row.append
        for j in range(1, n + 1):
            if ri == hyp[j - 1]:
                append(prev[j - 1])
            else:
                a, b, c = prev[j - 1], prev[j], row[j - 1]
                if b < a:
                    a = b
                if c < a:
                    a = c
                append(a + 1)
        table.append(row)
        prev = row

    ops = []
    subs = ins = dels = 0
    i, j = m, n
    while i > 0 or j > 0:
        here = table[i][j]
        if i > 0 and j > 0 and ref[i - 1] == hyp[j - 1] and table[i - 1][j - 1] == here:
            i -= 1
            j -= 1
            ops.append(("match", i, j))
        elif i > 0 and j > 0 and table[i - 1][j - 1] + 1 == here:
            i -= 1
            j -= 1
            ops.append(("substitute", i, j))
            subs += 1
        elif i > 0 and table[i - 1][j] + 1 == here:
            i -= 1
            ops.append(("delete", i, j))
            dels += 1
        else:
            j -= 1
            ops.append(("insert", i, j))
            ins += 1
    ops.reverse()
    return EditScript(table[m][n], subs, ins, dels, ops, ref, hyp)


def cer(references: Sequence[Sequence], hypotheses: Sequence[Sequence]) -> float:
    """Summed edit operations over the total reference character count."""
    if len(references) != len(hypotheses):
        raise ValueError("references and hypotheses differ in length")
    return cer_of_scripts([edit_distance(r, h) for r, h in zip(references, hypotheses)])


def cer_of_scripts(scripts: Sequence[EditScript]) -> float:
    """cer from edit scripts already computed, one per pair."""
    total_chars = sum(len(s.reference) for s in scripts)
    if total_chars == 0:
        raise ValueError("references contain no characters")
    return sum(s.distance for s in scripts) / total_chars


def wer(references: Sequence[Sequence[str]], hypotheses: Sequence[Sequence[str]]) -> float:
    """Like cer but over word tokens; callers tokenize."""
    return cer(references, hypotheses)


def crr(references: Sequence, hypotheses: Sequence) -> float:
    """Fraction of single-symbol references whose hypothesis is exactly that
    symbol; any other hypothesis, the empty one too, is a miss."""
    if len(references) != len(hypotheses):
        raise ValueError("references and hypotheses differ in length")
    if not references:
        raise ValueError("nothing to score")
    if any(len(r) != 1 for r in references):
        raise ValueError("crr expects single-symbol references")
    return sum(tuple(r) == tuple(h) for r, h in zip(references, hypotheses)) / len(references)


def error_positions(
    scripts: Sequence[EditScript], ref_lengths: Sequence[int], bins: int
) -> dict[str, np.ndarray]:
    """Histograms of where errors fall along the normalized reference.

    Returns mismatch/insert/delete histograms of length `bins`. Each
    non-match op lands in bin floor(bins * ref_pos / ref_len), clamped to
    the last bin; insertions use the insertion point's reference position.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if len(scripts) != len(ref_lengths):
        raise ValueError("scripts and ref_lengths differ in length")
    hists = {
        "mismatch": np.zeros(bins, dtype=np.int64),
        "insert": np.zeros(bins, dtype=np.int64),
        "delete": np.zeros(bins, dtype=np.int64),
    }
    kind_key = {"substitute": "mismatch", "insert": "insert", "delete": "delete"}
    for script, ref_len in zip(scripts, ref_lengths):
        if ref_len <= 0:
            raise ValueError("reference lengths must be positive")
        for kind, ref_pos, _ in script.ops:
            if kind == "match":
                continue
            b = min(bins * ref_pos // ref_len, bins - 1)
            hists[kind_key[kind]][b] += 1
    return hists


def confusion_matrix(scripts: Sequence[EditScript], alphabet: Alphabet) -> np.ndarray:
    """K x K counts: entry (g, p) is how often reference symbol g aligned
    to hypothesis symbol p (matches on the diagonal, substitutions off it)."""
    mat = np.zeros((alphabet.size, alphabet.size), dtype=np.int64)
    for script in scripts:
        for kind, ref_pos, hyp_pos in script.ops:
            if kind == "match":
                g = alphabet.encode(script.reference[ref_pos])
                mat[g, g] += 1
            elif kind == "substitute":
                g = alphabet.encode(script.reference[ref_pos])
                p = alphabet.encode(script.hypothesis[hyp_pos])
                mat[g, p] += 1
    return mat
