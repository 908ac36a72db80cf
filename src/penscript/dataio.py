"""Recording ingestion, alphabets, label encoding and train/validation splits.

A recording is a pair of text files: a data file carrying one header line
``channels:<l>,rate_hz:<r>`` followed by CSV rows ``t,c1,...,cl``, and a
labels file with one JSON object per line holding ``label``, ``start``,
``end`` and ``writer_id``. Each label line yields one :class:`Sample` whose
values are the data rows from ``start`` to ``end`` inclusive.

Blank and whitespace-only data lines are skipped. A numeric field is any
token that Python's ``float()`` accepts (so ``" 1.5"``, ``"+2"``, ``"1e3"``
and ``"1_0"`` all parse), and every value must be finite. A malformed file
fails with an error that names its first bad line. ``write_recording``
writes every value and the header's ``rate_hz`` so that they read back
exactly.

The standard 13-channel layout is front accelerometer (x,y,z), rear
accelerometer (x,y,z), gyroscope (x,y,z), magnetometer (x,y,z) and force;
the force channel is last and must be non-negative.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from penscript.jsonconfig import check_object, parse
from penscript.seeding import stream

CHANNEL_NAMES = (
    "acc_front_x", "acc_front_y", "acc_front_z",
    "acc_rear_x", "acc_rear_y", "acc_rear_z",
    "gyro_x", "gyro_y", "gyro_z",
    "mag_x", "mag_y", "mag_z",
    "force",
)
FORCE_CHANNEL = 12

EQUATION_SYMBOLS = tuple("0123456789") + ("+", "-", "·", ":", "=")


class RecordingFormatError(ValueError):
    """Raised when a recording or labels file is structurally malformed."""


class Alphabet:
    """Ordered symbol set with a reserved trailing blank index.

    The blank is not a symbol: ``encode``/``decode`` reject it. It exists so
    sequence models can emit "no label" frames; its index is always ``len(symbols)``.
    """

    def __init__(self, symbols: Iterable[str]) -> None:
        syms = tuple(symbols)
        if not syms:
            raise ValueError("alphabet needs at least one symbol")
        if any(not isinstance(s, str) or not s for s in syms):
            raise ValueError("alphabet symbols must be non-empty strings")
        if len(set(syms)) != len(syms):
            raise ValueError("alphabet symbols must be distinct")
        self._symbols = syms
        self._index = {s: i for i, s in enumerate(syms)}

    @property
    def symbols(self) -> tuple[str, ...]:
        return self._symbols

    @property
    def size(self) -> int:
        """Number of non-blank classes."""
        return len(self._symbols)

    @property
    def blank_index(self) -> int:
        return len(self._symbols)

    def __len__(self) -> int:
        return len(self._symbols)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and other._symbols == self._symbols

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self._symbols)!r})"

    def encode(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} is not in the alphabet") from None

    def decode(self, index: int) -> str:
        if index == self.blank_index:
            raise ValueError("blank index has no symbol")
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} out of range for {self.size} symbols")
        return self._symbols[index]

    def encode_label(self, text: str) -> tuple[int, ...]:
        """Encode a label string character by character.

        An empty string encodes to an empty tuple; note that Samples
        themselves require a non-empty label.
        """
        return tuple(self.encode(ch) for ch in text)

    def decode_label(self, indices: Iterable[int]) -> str:
        return "".join(self.decode(i) for i in indices)


def equations_alphabet() -> Alphabet:
    """The 15-symbol equation alphabet: digits 0-9 and + - · : = in fixed order."""
    return Alphabet(EQUATION_SYMBOLS)


def build_alphabet(labels: Sequence[str]) -> Alphabet:
    """Alphabet of the distinct characters across labels, sorted by code point."""
    chars = {ch for label in labels for ch in label}
    if not chars:
        raise ValueError("cannot build an alphabet from empty labels")
    return Alphabet(sorted(chars))


@dataclass(frozen=True)
class Sample:
    """One multivariate time-series slice with its label and writer.

    values has shape (m, l): m timesteps by l channels. The array is stored
    read-only so samples can be shared freely across threads.
    """

    values: np.ndarray
    label: tuple[int, ...]
    writer_id: int
    rate_hz: float

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError(f"values must be a non-empty 2-D matrix, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("values contain non-finite entries")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        label = tuple(int(i) for i in self.label)
        if not label:
            raise ValueError("label must be a non-empty index sequence")
        if any(i < 0 for i in label):
            raise ValueError("label indices must be non-negative")
        object.__setattr__(self, "label", label)
        if self.writer_id < 0:
            raise ValueError("writer_id must be non-negative")
        if not (np.isfinite(self.rate_hz) and self.rate_hz > 0):
            raise ValueError("rate_hz must be a positive real")

    @property
    def num_timesteps(self) -> int:
        return self.values.shape[0]

    @property
    def num_channels(self) -> int:
        return self.values.shape[1]

    def with_values(self, values: np.ndarray) -> "Sample":
        """Copy of this sample with new values; label and writer are kept."""
        return Sample(values, self.label, self.writer_id, self.rate_hz)


def _parse_header(line: str) -> tuple[int, float]:
    parts = line.strip().split(",")
    fields = {}
    for part in parts:
        key, sep, value = part.partition(":")
        if not sep:
            raise RecordingFormatError(f"malformed header field {part!r}")
        key = key.strip()
        if key in fields:
            raise RecordingFormatError(f"header field {key!r} is repeated")
        fields[key] = value.strip()
    if set(fields) != {"channels", "rate_hz"}:
        raise RecordingFormatError(
            f"header must declare exactly 'channels' and 'rate_hz', got {sorted(fields)}"
        )
    try:
        channels = int(fields["channels"])
        rate_hz = float(fields["rate_hz"])
    except ValueError:
        raise RecordingFormatError(f"non-numeric header values in {line!r}") from None
    if channels < 1:
        raise RecordingFormatError("header channel count must be >= 1")
    if not (np.isfinite(rate_hz) and rate_hz > 0):
        raise RecordingFormatError("header rate_hz must be a positive real")
    return channels, rate_hz


_LABEL_KINDS = {"label": str, "start": int, "end": int, "writer_id": int}


def label_entries(labels_text: str) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of a labels file.

    Raises RecordingFormatError naming the line when it is not JSON, not an
    object, lacks one of the keys label, start, end and writer_id, when
    label is not a JSON string or is empty, or when start, end or writer_id
    is not a JSON integer.
    """
    for lineno, line in enumerate(labels_text.splitlines(), start=1):
        if not line.strip():
            continue
        what = f"labels line {lineno}"
        try:
            entry = check_object(parse(line, what), what, _LABEL_KINDS)
        except ValueError as exc:
            raise RecordingFormatError(str(exc)) from None
        if not entry["label"]:
            raise RecordingFormatError(f"{what}: label must be a non-empty string, got ''")
        yield lineno, entry


# rows converted per step: large enough to amortise the per-block numpy
# calls, small enough that a block's token list stays a few hundred KB
_PARSE_BLOCK_ROWS = 256


def _data_rows(lines: list[str], channels: int) -> np.ndarray:
    """The (rows, channels) matrix of the data lines after the header.

    Blank lines are skipped. Good rows are converted a block at a time; if
    any check fails, _raise_first_bad_line rescans line by line to name it.
    """
    body = [line for line in lines[1:] if line.strip()]
    if not body:
        raise RecordingFormatError("recording has no data rows")
    width = channels + 1
    if all(line.count(",") == channels for line in body):
        table = np.empty((len(body), width), dtype=np.float64)
        try:
            for start in range(0, len(body), _PARSE_BLOCK_ROWS):
                block = body[start : start + _PARSE_BLOCK_ROWS]
                tokens = ",".join(block).split(",")
                table[start : start + len(block)] = np.fromiter(
                    map(float, tokens), dtype=np.float64, count=len(tokens)
                ).reshape(len(block), width)
        except ValueError:
            pass
        else:
            if np.isfinite(table).all():
                return table[:, 1:]
    _raise_first_bad_line(lines, channels)
    raise AssertionError("block parse rejected rows that the line scan accepts")


def _raise_first_bad_line(lines: list[str], channels: int) -> None:
    """Raise the error for the first malformed data line, naming its number."""
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


def parse_recording(
    raw_text: str,
    labels_text: str,
    alphabet: Alphabet | None = None,
) -> list[Sample]:
    """Parse a data file and its labels file into one Sample per label line.

    Labels are encoded with `alphabet` (the equations alphabet by default).
    Raises RecordingFormatError for structural problems (with the offending
    line number) or a labels file with no label lines, and ValueError for
    out-of-range windows or non-finite data.
    """
    if alphabet is None:
        alphabet = equations_alphabet()

    lines = raw_text.splitlines()
    if not lines or not lines[0].strip():
        raise RecordingFormatError("missing header line")
    channels, rate_hz = _parse_header(lines[0])

    data = _data_rows(lines, channels)

    if channels == len(CHANNEL_NAMES) and (data[:, FORCE_CHANNEL] < 0).any():
        raise ValueError("force channel contains negative values")

    samples: list[Sample] = []
    for lineno, entry in label_entries(labels_text):
        start, end = entry["start"], entry["end"]
        if not 0 <= start <= end < len(data):
            raise ValueError(
                f"labels line {lineno}: window [{start}, {end}] out of range for {len(data)} rows"
            )
        try:
            label = alphabet.encode_label(entry["label"])
        except ValueError as exc:
            raise ValueError(f"labels line {lineno}: {exc}") from None
        samples.append(
            Sample(
                values=data[start : end + 1].copy(),
                label=label,
                writer_id=entry["writer_id"],
                rate_hz=rate_hz,
            )
        )
    if not samples:
        raise RecordingFormatError("the labels file holds no label lines")
    return samples


def _rate_text(rate_hz: float) -> str:
    """rate_hz as the short ``:g`` text when that parses back to the same float, else repr."""
    short = f"{rate_hz:g}"
    return short if float(short) == rate_hz else repr(float(rate_hz))


def write_recording(
    samples: Sequence[Sample],
    alphabet: Alphabet | None = None,
) -> tuple[str, str]:
    """Serialize samples back to (data_text, labels_text).

    Sample rows are concatenated into one stream with consecutive label
    windows, so parse_recording(*write_recording(samples)) reproduces the
    samples bit-exactly. Values are written with repr, which round-trips;
    rate_hz keeps its short ``:g`` text (``rate_hz:100``) unless that would
    lose digits, and is then written with repr too.
    """
    if not samples:
        raise ValueError("nothing to write")
    if alphabet is None:
        alphabet = equations_alphabet()
    channels = samples[0].num_channels
    rate_hz = samples[0].rate_hz
    for s in samples:
        if s.num_channels != channels or s.rate_hz != rate_hz:
            raise ValueError("samples disagree on channel count or rate")

    data_lines = [f"channels:{channels},rate_hz:{_rate_text(rate_hz)}"]
    label_lines = []
    offset = 0
    for s in samples:
        for t, row in enumerate(s.values.tolist(), start=offset):
            data_lines.append(f"{t},{','.join(map(repr, row))}")
        label_lines.append(
            json.dumps(
                {
                    "label": alphabet.decode_label(s.label),
                    "start": offset,
                    "end": offset + s.num_timesteps - 1,
                    "writer_id": s.writer_id,
                },
                ensure_ascii=False,
            )
        )
        offset += s.num_timesteps
    return "\n".join(data_lines) + "\n", "\n".join(label_lines) + "\n"


_FOLD_KINDS = {"train": tuple[int, ...], "val": tuple[int, ...]}


@dataclass(frozen=True)
class FoldPlan:
    """A k-fold train/validation partition over sample indices."""

    mode: str
    k: int
    seed: int
    folds: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.mode not in ("WD", "WI"):
            raise ValueError(f"mode must be 'WD' or 'WI', got {self.mode!r}")
        if self.k < 2:
            raise ValueError("fold count must be >= 2")
        if len(self.folds) != self.k:
            raise ValueError("fold list length must equal k")

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "k": self.k,
            "seed": self.seed,
            "folds": [{"train": list(tr), "val": list(va)} for tr, va in self.folds],
        }

    @classmethod
    def from_dict(cls, d: dict, what: str = "fold plan") -> "FoldPlan":
        """Rebuild a plan; a ValueError, under what, names a missing key or a
        value of the wrong kind."""
        check_object(d, what, {"mode": str, "k": int, "seed": int, "folds": list})
        folds = []
        for n, f in enumerate(d["folds"]):
            check_object(f, f"{what} fold {n}", _FOLD_KINDS)
            folds.append((tuple(f["train"]), tuple(f["val"])))
        return cls(mode=d["mode"], k=d["k"], seed=d["seed"], folds=tuple(folds))

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def make_splits(samples: Sequence[Sample], mode: str, k: int, seed: int) -> FoldPlan:
    """Build a writer-dependent (WD) or writer-independent (WI) k-fold plan.

    WD shuffles each writer's samples and deals them into k balanced chunks,
    so every writer appears in train and validation of each fold (up to one
    sample imbalance). WI shuffles the writers and deals whole writers
    round-robin to folds, keeping writer sets disjoint.
    """
    if mode not in ("WD", "WI"):
        raise ValueError(f"mode must be 'WD' or 'WI', got {mode!r}")
    if k < 2:
        raise ValueError("fold count must be >= 2")
    if not samples:
        raise ValueError("no samples to split")

    by_writer: dict[int, list[int]] = {}
    for idx, s in enumerate(samples):
        by_writer.setdefault(s.writer_id, []).append(idx)

    all_indices = set(range(len(samples)))
    rng = stream(seed)
    folds: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    if mode == "WD":
        val_sets: list[set[int]] = [set() for _ in range(k)]
        for writer in sorted(by_writer):
            indices = np.array(by_writer[writer])
            rng.shuffle(indices)
            for f, chunk in enumerate(np.array_split(indices, k)):
                val_sets[f].update(int(i) for i in chunk)
        for f in range(k):
            val = val_sets[f]
            folds.append((tuple(sorted(all_indices - val)), tuple(sorted(val))))
    else:
        writers = sorted(by_writer)
        if len(writers) < k:
            raise ValueError(f"WI split needs >= {k} writers, got {len(writers)}")
        order = rng.permutation(len(writers))
        for f in range(k):
            val_writers = {writers[w] for pos, w in enumerate(order) if pos % k == f}
            val = {i for w in val_writers for i in by_writer[w]}
            folds.append((tuple(sorted(all_indices - val)), tuple(sorted(val))))

    return FoldPlan(mode=mode, k=k, seed=seed, folds=tuple(folds))
