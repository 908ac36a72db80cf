"""Recording ingestion, alphabets, label encoding and train/validation splits.

A recording is a pair of text files: a data file carrying one header line
``channels:<l>,rate_hz:<r>`` followed by CSV rows ``t,c1,...,cl``, and a
labels file with one JSON object per line holding ``label``, ``start``,
``end`` and ``writer_id``. Each label line yields one :class:`Sample` whose
values are the data rows from ``start`` to ``end`` inclusive.

The standard 13-channel layout is front accelerometer (x,y,z), rear
accelerometer (x,y,z), gyroscope (x,y,z), magnetometer (x,y,z) and force;
the force channel is last and must be non-negative.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from penscript.jsonconfig import is_int
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
        fields[key.strip()] = value.strip()
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


def label_entries(labels_text: str) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of a labels file.

    Raises RecordingFormatError naming the line when it is not JSON, not an
    object, lacks one of the keys label, start, end and writer_id, or when
    start, end or writer_id is not a JSON integer.
    """
    for lineno, line in enumerate(labels_text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RecordingFormatError(f"labels line {lineno}: invalid JSON ({exc.msg})") from None
        if not isinstance(entry, dict):
            raise RecordingFormatError(
                f"labels line {lineno}: expected a JSON object, got {type(entry).__name__}"
            )
        missing = [key for key in ("label", "start", "end", "writer_id") if key not in entry]
        if missing:
            raise RecordingFormatError(
                f"labels line {lineno}: expected keys label, start, end, writer_id;"
                f" missing {', '.join(missing)}"
            )
        for key in ("start", "end", "writer_id"):
            if not is_int(entry[key]):
                raise RecordingFormatError(
                    f"labels line {lineno}: {key} must be an integer, got {entry[key]!r}"
                )
        yield lineno, entry


def parse_recording(
    raw_text: str,
    labels_text: str,
    alphabet: Alphabet | None = None,
) -> list[Sample]:
    """Parse a data file and its labels file into one Sample per label line.

    Labels are encoded with `alphabet` (the equations alphabet by default).
    Raises RecordingFormatError for structural problems (with the offending
    line number) and ValueError for out-of-range windows or non-finite data.
    """
    if alphabet is None:
        alphabet = equations_alphabet()

    lines = raw_text.splitlines()
    if not lines or not lines[0].strip():
        raise RecordingFormatError("missing header line")
    channels, rate_hz = _parse_header(lines[0])

    rows: list[list[float]] = []
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
    data = np.asarray(rows, dtype=np.float64)

    if channels == len(CHANNEL_NAMES) and (data[:, FORCE_CHANNEL] < 0).any():
        raise ValueError("force channel contains negative values")

    samples: list[Sample] = []
    for lineno, entry in label_entries(labels_text):
        start, end = entry["start"], entry["end"]
        if not 0 <= start <= end < len(data):
            raise ValueError(
                f"labels line {lineno}: window [{start}, {end}] out of range for {len(data)} rows"
            )
        samples.append(
            Sample(
                values=data[start : end + 1].copy(),
                label=alphabet.encode_label(str(entry["label"])),
                writer_id=entry["writer_id"],
                rate_hz=rate_hz,
            )
        )
    return samples


def write_recording(
    samples: Sequence[Sample],
    alphabet: Alphabet | None = None,
) -> tuple[str, str]:
    """Serialize samples back to (data_text, labels_text).

    Sample rows are concatenated into one stream with consecutive label
    windows, so parse_recording(*write_recording(samples)) reproduces the
    samples bit-exactly. Floats are written with repr, which round-trips.
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

    data_lines = [f"channels:{channels},rate_hz:{rate_hz:g}"]
    label_lines = []
    offset = 0
    for s in samples:
        for t in range(s.num_timesteps):
            row = ",".join(repr(float(v)) for v in s.values[t])
            data_lines.append(f"{offset + t},{row}")
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
    def from_dict(cls, d: dict) -> "FoldPlan":
        """Rebuild a plan; a ValueError names any missing key or non-integer value."""
        _require_keys(d, ("mode", "k", "seed", "folds"), "fold plan")
        for key in ("k", "seed"):
            if not is_int(d[key]):
                raise ValueError(f"fold plan: {key} must be an integer, got {d[key]!r}")
        if not isinstance(d["folds"], list):
            raise ValueError("fold plan: folds must be a list")
        folds = []
        for n, f in enumerate(d["folds"]):
            _require_keys(f, ("train", "val"), f"fold plan fold {n}")
            for part in ("train", "val"):
                if not isinstance(f[part], list):
                    raise ValueError(f"fold plan fold {n}: {part} must be a list of indices")
                for i in f[part]:
                    if not is_int(i):
                        raise ValueError(
                            f"fold plan fold {n}: {part} index {i!r} is not an integer"
                        )
            folds.append((tuple(f["train"]), tuple(f["val"])))
        return cls(mode=d["mode"], k=d["k"], seed=d["seed"], folds=tuple(folds))

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "FoldPlan":
        return cls.from_dict(json.loads(text))


def _require_keys(obj, keys: tuple[str, ...], what: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ValueError(f"{what} is missing the key(s) {', '.join(missing)}")


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
