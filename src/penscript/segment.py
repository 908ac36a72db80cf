"""Force-based stroke detection and equation-to-character splitting.

Writers lift the pen between characters, so pen-down runs in the force
channel delimit strokes. Characters use a known set of stroke counts
(digits are mostly one stroke, '+' ':' '=' and '5' take two, '4' and '7'
come in one- or two-stroke variants), which lets an equation be split
into per-character windows by finding a stroke-count assignment whose
total matches the detected strokes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from penscript.dataio import FORCE_CHANNEL, Alphabet, Sample, equations_alphabet


class SegmentationError(ValueError):
    """Raised when no stroke-count assignment can explain the detected strokes."""


def default_constraints() -> dict[str, frozenset[int]]:
    """Allowed stroke counts per equation symbol."""
    table = {
        "0": {1}, "1": {1}, "2": {1}, "3": {1}, "4": {1, 2},
        "5": {2}, "6": {1}, "7": {1, 2}, "8": {1}, "9": {1},
        "+": {2}, "-": {1}, "·": {1}, ":": {2}, "=": {2},
    }
    return {sym: frozenset(counts) for sym, counts in table.items()}


def detect_strokes(
    force: Sequence[float], threshold: float, min_len: int = 1
) -> list[tuple[int, int]]:
    """Maximal runs with force > threshold, as inclusive (start, end) pairs.

    Runs shorter than min_len timesteps are dropped as spurious spikes.
    A threshold that is not finite and positive raises a ValueError.
    """
    if not (math.isfinite(threshold) and threshold > 0):
        raise ValueError(f"threshold must be a finite positive number, got {threshold!r}")
    if min_len < 1:
        raise ValueError("min_len must be >= 1")
    force = np.asarray(force, dtype=np.float64)
    down = force > threshold
    # run boundaries from the sign changes of the padded mask
    edges = np.flatnonzero(np.diff(np.concatenate([[False], down, [False]])))
    starts, ends = edges[0::2], edges[1::2] - 1
    return [(int(s), int(e)) for s, e in zip(starts, ends) if e - s + 1 >= min_len]


@dataclass(frozen=True)
class SplitResult(Sequence):
    """Character samples from one equation, with the chosen stroke assignment.

    Behaves as a read-only sequence of the character samples. `ambiguous`
    is set when more than one assignment summed to the detected stroke
    count and the lexicographically smallest one was chosen.
    """

    samples: tuple[Sample, ...]
    assignment: tuple[int, ...]
    ambiguous: bool

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, i):
        return self.samples[i]


def _smallest_assignment(
    options: list[tuple[int, ...]], total: int
) -> tuple[tuple[int, ...], bool] | None:
    """The lexicographically smallest per-character stroke-count choice that
    sums to total, and whether another choice does too; None if none does.

    ways[j][r] counts the choices for characters j.. that sum to r, capped
    at 2 since only "more than one" matters, so each character takes its
    smallest count that leaves a reachable rest. The cost is linear in the
    label length times total, where enumerating choices doubles with every
    two-count symbol.
    """
    n = len(options)
    ways = [[0] * (total + 1) for _ in range(n + 1)]
    ways[n][0] = 1
    for j in range(n - 1, -1, -1):
        for r in range(total + 1):
            ways[j][r] = min(2, sum(ways[j + 1][r - c] for c in options[j] if c <= r))
    if not ways[0][total]:
        return None
    choice = []
    left = total
    for j, opts in enumerate(options):
        choice.append(next(c for c in opts if c <= left and ways[j + 1][left - c]))
        left -= choice[-1]
    return tuple(choice), ways[0][total] > 1


def split_equation(
    sample: Sample,
    constraints: dict[str, frozenset[int]] | None = None,
    threshold: float = 0.02,
    min_len: int = 3,
    alphabet: Alphabet | None = None,
    force_channel: int = FORCE_CHANNEL,
) -> SplitResult:
    """Split an equation sample into one sample per label character.

    Strokes are detected on the force channel, then consecutive strokes are
    grouped by a stroke-count assignment consistent with `constraints`.
    Character j spans from the start of its first stroke to the end of its
    last; pen-up gaps between characters belong to neither. A symbol with
    no constraints, or a force_channel outside the sample's channels, raises
    a ValueError.
    """
    if constraints is None:
        constraints = default_constraints()
    if alphabet is None:
        alphabet = equations_alphabet()

    symbols = [alphabet.decode(i) for i in sample.label]
    missing = [s for s in symbols if s not in constraints]
    if missing:
        raise ValueError(f"no stroke constraints for symbols {missing}")

    channels = sample.values.shape[1]
    if not 0 <= force_channel < channels:
        raise ValueError(f"force_channel {force_channel} out of range for {channels} channels")
    strokes = detect_strokes(sample.values[:, force_channel], threshold, min_len)
    if not strokes:
        raise SegmentationError(f"no strokes detected for label {''.join(symbols)!r}")

    options = [tuple(sorted(constraints[s])) for s in symbols]
    found = _smallest_assignment(options, len(strokes))
    if found is None:
        raise SegmentationError(
            f"{len(strokes)} strokes cannot be assigned to label {''.join(symbols)!r}"
        )
    assignment, ambiguous = found

    pieces = []
    pos = 0
    for sym_index, count in zip(sample.label, assignment):
        start = strokes[pos][0]
        end = strokes[pos + count - 1][1]
        pieces.append(
            Sample(
                values=sample.values[start : end + 1].copy(),
                label=(sym_index,),
                writer_id=sample.writer_id,
                rate_hz=sample.rate_hz,
            )
        )
        pos += count
    return SplitResult(
        samples=tuple(pieces), assignment=assignment, ambiguous=ambiguous
    )
