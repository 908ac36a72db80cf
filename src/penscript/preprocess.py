"""Length normalization and label-preserving augmentation.

Five stochastic augmentations are supported: per-channel scaling,
shifting and jittering, magnitude warping of the accelerometer channels
and joint time warping. All randomness flows through an explicit seed;
each (method, channel) pair draws from its own substream so results do
not depend on channel iteration order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from penscript.dataio import FORCE_CHANNEL, Sample
from penscript.jsonconfig import JsonConfig, check_ranges
from penscript.seeding import stream

# canonical application order; also the substream ids
METHOD_IDS = {"scale": 0, "shift": 1, "jitter": 2, "mag_warp": 3, "time_warp": 4}


@dataclass(frozen=True)
class AugmentConfig(JsonConfig):
    """Knobs for the five augmentations.

    p_apply is the per-channel application probability (per-sample for the
    joint time warp). Shift amplitudes differ between the force channel and
    everything else because force is on a much larger scale. warp_sigma
    is below 1 so every time-warp speed stays positive.
    """

    p_apply: float = 0.5
    scale_sigma: float = 0.1
    jitter_sigma: float = 0.1
    shift_force: float = 200.0
    shift_other: float = 20.0
    mag_warp_low: float = 0.7
    mag_warp_high: float = 1.3
    warp_sigma: float = 0.1
    bezier_control_points: int = 10
    accelerometer_channels: tuple[int, ...] = (0, 1, 2, 3, 4, 5)
    force_channel: int = FORCE_CHANNEL

    def __post_init__(self) -> None:
        check_ranges(self, {
            "p_apply": "[0, 1]", "scale_sigma": "[0, inf)", "jitter_sigma": "[0, inf)",
            "shift_force": "[0, inf)", "shift_other": "[0, inf)",
            "mag_warp_low": "(-inf, inf)", "mag_warp_high": "(-inf, inf)",
            "warp_sigma": "[0, 1)", "bezier_control_points": "[2, inf)",
        })
        if not self.mag_warp_low < self.mag_warp_high:
            raise ValueError("mag_warp_low must be < mag_warp_high")
        object.__setattr__(
            self, "accelerometer_channels", tuple(int(c) for c in self.accelerometer_channels)
        )


def interpolate(sample: Sample, target_len: int) -> Sample:
    """Resample to exactly target_len timesteps.

    Longer inputs are linearly resampled per channel onto target_len
    equidistant points over [0, m-1] (endpoints preserved); shorter inputs
    keep their rows and are zero-padded at the end. Equal length is the
    identity. The label never changes.
    """
    if target_len < 1:
        raise ValueError("target_len must be >= 1")
    m, l = sample.values.shape
    if m == target_len:
        return sample
    if m > target_len:
        grid = np.linspace(0.0, m - 1, target_len)
        old = np.arange(m, dtype=np.float64)
        out = np.empty((target_len, l))
        for c in range(l):
            out[:, c] = np.interp(grid, old, sample.values[:, c])
        return sample.with_values(out)
    out = np.zeros((target_len, l))
    out[:m] = sample.values
    return sample.with_values(out)


def bezier(points: Iterable[float], samples: int) -> np.ndarray:
    """Evaluate the Bézier curve with the given control values.

    Returns the degree-(n-1) curve at `samples` equidistant parameters in
    [0, 1], computed with de Casteljau. Endpoints are hit exactly.
    """
    ctrl = np.asarray(list(points), dtype=np.float64)
    if ctrl.ndim != 1 or len(ctrl) < 2:
        raise ValueError("need at least two control points")
    if samples < 2:
        raise ValueError("need at least two output samples")
    t = np.linspace(0.0, 1.0, samples)[:, None]
    vals = np.broadcast_to(ctrl, (samples, len(ctrl))).copy()
    while vals.shape[1] > 1:
        vals = vals[:, :-1] * (1.0 - t) + vals[:, 1:] * t
    return vals[:, 0]


def warp_time_map(speeds: np.ndarray, length: int) -> np.ndarray:
    """Turn per-interval speeds into a time map over [0, length-1].

    The map is the normalized cumulative sum of the (positive) speeds: it
    is strictly increasing and hits 0 and length-1 exactly, so warping with
    it preserves sequence endpoints.
    """
    speeds = np.asarray(speeds, dtype=np.float64)
    if len(speeds) != length - 1:
        raise ValueError("need exactly length-1 interval speeds")
    if (speeds <= 0).any():
        raise ValueError("speeds must be positive")
    cum = np.concatenate([[0.0], np.cumsum(speeds)])
    cum *= (length - 1) / cum[-1]
    cum[-1] = length - 1
    return cum


def _substream(seed: int, method: str, channel: int) -> np.random.Generator:
    return stream(seed, METHOD_IDS[method], channel)


def _scale(col: np.ndarray, c: int, rng: np.random.Generator, cfg: AugmentConfig) -> np.ndarray:
    return col * rng.uniform(1.0 - cfg.scale_sigma, 1.0 + cfg.scale_sigma)


def _shift(col: np.ndarray, c: int, rng: np.random.Generator, cfg: AugmentConfig) -> np.ndarray:
    amp = cfg.shift_force if c == cfg.force_channel else cfg.shift_other
    return col + rng.uniform(-amp, amp)


def _jitter(col: np.ndarray, c: int, rng: np.random.Generator, cfg: AugmentConfig) -> np.ndarray:
    std = cfg.jitter_sigma * col.std()
    return col + (rng.normal(0.0, std, size=len(col)) if std > 0 else 0.0)


def _mag_warp(col: np.ndarray, c: int, rng: np.random.Generator, cfg: AugmentConfig) -> np.ndarray:
    ctrl = rng.uniform(cfg.mag_warp_low, cfg.mag_warp_high, cfg.bezier_control_points)
    return col * bezier(ctrl, len(col))


# the per-channel methods in application order: each maps a channel's
# column, once its coin lands, to the new column, drawing from its substream
_CHANNEL_METHODS = {"scale": _scale, "shift": _shift, "jitter": _jitter, "mag_warp": _mag_warp}


def augment(sample: Sample, cfg: AugmentConfig, methods: set[str], seed: int) -> Sample:
    """Apply the selected augmentations, each gated by a seeded coin.

    Scale, shift and jitter draw one coin and one parameter set per channel;
    magnitude warping touches only cfg.accelerometer_channels; the time warp
    is a single joint resampling of all channels. Methods compose in the
    fixed order scale, shift, jitter, mag_warp, time_warp. Label, writer_id,
    and shape are all preserved.
    """
    unknown = set(methods) - set(METHOD_IDS)
    if unknown:
        raise ValueError(f"unknown augmentation methods: {sorted(unknown)}")
    if not methods:
        return sample

    m, l = sample.values.shape
    if "shift" in methods and not 0 <= cfg.force_channel < l:
        raise ValueError(f"force_channel {cfg.force_channel} out of range for {l} channels")
    if "mag_warp" in methods:
        bad = [c for c in cfg.accelerometer_channels if not 0 <= c < l]
        if bad:
            raise ValueError(f"accelerometer channels {bad} out of range for {l} channels")

    values = np.array(sample.values)

    for method, transform in _CHANNEL_METHODS.items():
        if method not in methods:
            continue
        channels = cfg.accelerometer_channels if method == "mag_warp" else range(l)
        for c in channels:
            rng = _substream(seed, method, c)
            if rng.random() < cfg.p_apply:
                values[:, c] = transform(values[:, c], c, rng, cfg)

    if "time_warp" in methods and m > 2:
        rng = _substream(seed, "time_warp", 0)
        if rng.random() < cfg.p_apply:
            ctrl = rng.uniform(1.0 - cfg.warp_sigma, 1.0 + cfg.warp_sigma, cfg.bezier_control_points)
            tmap = warp_time_map(bezier(ctrl, m - 1), m)
            old = np.arange(m, dtype=np.float64)
            values = np.column_stack([np.interp(tmap, old, values[:, c]) for c in range(l)])

    return sample.with_values(values)
