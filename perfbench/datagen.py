"""Seeded synthetic pen recordings shaped like the paper's equation data.

Plain numpy and text only: the program under test sees nothing but the
files written here. Recordings have 13 channels at 100 Hz with the force
channel last. Every character is drawn as one or two pen-down strokes
(force > 0) separated by pen-up gaps (force exactly 0), so the character
windows are known exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SYMBOLS = tuple("0123456789") + ("+", "-", "·", ":", "=")
CHANNELS = 13
FORCE = 12
RATE_HZ = 100.0

# allowed stroke counts per symbol (the paper's segmentation table)
STROKES = {
    "0": (1,), "1": (1,), "2": (1,), "3": (1,), "4": (1, 2),
    "5": (2,), "6": (1,), "7": (1, 2), "8": (1,), "9": (1,),
    "+": (2,), "-": (1,), "·": (1,), ":": (2,), "=": (2,),
}


@dataclass(frozen=True)
class Equation:
    label: str
    values: np.ndarray  # (timesteps, 13)
    writer_id: int
    windows: tuple[tuple[int, int], ...]  # inclusive row window per character
    counts: tuple[int, ...]  # strokes per character


def canonical_counts(label: str, total: int) -> tuple[int, ...]:
    """Lexicographically smallest allowed stroke counts summing to total.

    A segmenter that meets several feasible assignments must pick one; the
    smallest is the documented choice, so drawing strokes with it makes the
    generated windows the ones a correct segmenter recovers.
    """
    options = [STROKES[s] for s in label]
    out = []
    left = total
    for j, opts in enumerate(options):
        rest = options[j + 1 :]
        lo, hi = sum(min(o) for o in rest), sum(max(o) for o in rest)
        out.append(next(c for c in opts if lo <= left - c <= hi))
        left -= out[-1]
    return tuple(out)


def _label(rng: np.random.Generator, length: int) -> str:
    chars: list[str] = []
    for _ in range(length):
        if chars and rng.random() < 0.2:
            chars.append(chars[-1])  # adjacent repeat: CTC needs a blank between
        else:
            chars.append(SYMBOLS[int(rng.integers(len(SYMBOLS)))])
    return "".join(chars)


def make_equation(rng: np.random.Generator, writer_id: int, length: int) -> Equation:
    """An equation of `length` symbols over 60 + 115 * length timesteps.

    Stroke and gap lengths are drawn, then scaled so the recording has
    exactly that many timesteps; parse and write cost follow the row count,
    so equal label lengths give equal work whatever the seed.
    """
    label = _label(rng, length)
    drawn = [STROKES[s][int(rng.integers(len(STROKES[s])))] for s in label]
    counts = canonical_counts(label, sum(drawn))

    # nominal piece lengths in order: lead gap, then each character's strokes
    # with the gaps inside it, the gap after it, and the trailing gap last
    pieces = [rng.uniform(20, 60)]
    for j, count in enumerate(counts):
        for k in range(count):
            if k:
                pieces.append(rng.uniform(10, 25))
            pieces.append(rng.uniform(45, 75))
        pieces.append(rng.uniform(15, 35) if j + 1 < len(counts) else rng.uniform(20, 60))
    m = 60 + 115 * length
    scale = m / sum(pieces)
    sizes = [int(n * scale) for n in pieces]
    sizes[-1] += m - sum(sizes)

    force = np.zeros(m)
    windows = []
    pos = sizes[0]
    piece = 1
    for count in counts:
        start = pos
        for k in range(count):
            if k:
                pos += sizes[piece]
                piece += 1
            n = sizes[piece]
            profile = np.sin(np.pi * (np.arange(n) + 0.5) / n)
            force[pos : pos + n] = 50.0 + rng.uniform(150.0, 350.0) * profile
            pos += n
            piece += 1
        windows.append((start, pos - 1))
        pos += sizes[piece]
        piece += 1

    t = np.arange(m) / RATE_HZ
    freqs = rng.uniform(0.5, 4.0, CHANNELS - 1)
    phases = rng.uniform(0.0, 2 * np.pi, CHANNELS - 1)
    scale_ch = np.repeat([2.0, 2.0, 50.0, 40.0], 3) * rng.uniform(0.8, 1.2)
    values = np.empty((m, CHANNELS))
    values[:, :FORCE] = scale_ch * (
        np.sin(2 * np.pi * freqs * t[:, None] + phases) + rng.normal(0.0, 0.1, (m, CHANNELS - 1))
    )
    values[:, FORCE] = force
    return Equation(label, values, writer_id, tuple(windows), counts)


def make_corpus(rng: np.random.Generator, writers: int, per_writer: int) -> list[Equation]:
    """writers * per_writer equations whose label lengths cycle through 5-11
    in a shuffled order, so a corpus of a given size has a fixed row count."""
    n = writers * per_writer
    lengths = rng.permutation([5 + i % 7 for i in range(n)])
    return [make_equation(rng, i // per_writer, int(lengths[i])) for i in range(n)]


def write_dataset(equations: list[Equation], data_path: Path, labels_path: Path) -> None:
    """The repo's text format: header, ``t,c1..c13`` rows, JSON-lines labels.

    Floats are written with repr, which round-trips exactly.
    """
    lines = [f"channels:{CHANNELS},rate_hz:{RATE_HZ:g}"]
    labels = []
    offset = 0
    for eq in equations:
        for t, row in enumerate(eq.values.tolist()):
            lines.append(f"{offset + t}," + ",".join(map(repr, row)))
        end = offset + len(eq.values) - 1
        labels.append(
            json.dumps(
                {"label": eq.label, "start": offset, "end": end, "writer_id": eq.writer_id},
                ensure_ascii=False,
            )
        )
        offset = end + 1
    data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    labels_path.write_text("\n".join(labels) + "\n", encoding="utf-8")


def read_rows(path: Path) -> np.ndarray:
    """Channel values of a data file, parsed independently of the program."""
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    return np.array([[float(v) for v in r.split(",")[1:]] for r in rows if r.strip()])


def read_labels(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def plant_edits(rng: np.random.Generator, ref: str) -> tuple[str, int]:
    """A hypothesis at edit distance exactly k from ref, and k.

    Each edit substitutes or inserts a symbol that ref does not contain, so
    every edit needs its own operation and none can be shared: the edit
    distance is exactly the number planted.
    """
    absent = [s for s in SYMBOLS if s not in ref]
    k = int(rng.integers(0, 3))
    chosen = set(rng.choice(len(ref), size=k, replace=False).tolist())
    out = []
    for i, ch in enumerate(ref):
        if i in chosen:
            new = absent[int(rng.integers(len(absent)))]
            out.append(new if rng.random() < 0.5 else new + ch)
        else:
            out.append(ch)
    return "".join(out), k
