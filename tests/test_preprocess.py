import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penscript.dataio import Sample
from penscript.preprocess import (
    AugmentConfig,
    augment,
    bezier,
    interpolate,
    warp_time_map,
)

ALL_METHODS = {"scale", "shift", "jitter", "mag_warp", "time_warp"}


def make_sample(values, label=(0,)):
    return Sample(np.asarray(values, dtype=np.float64), label, 0, 100.0)


class TestInterpolate:
    def test_linear_midpoint(self):
        s = make_sample([[0.0], [1.0]])
        out = interpolate(s, 3)
        # downsampling only happens when m > target; here we zero pad
        assert out.values[:2, 0].tolist() == [0.0, 1.0]
        assert out.values[2, 0] == 0.0

    def test_downsample_midpoint(self):
        s = make_sample([[0.0], [0.5], [1.0]])
        out = interpolate(s, 2)
        assert out.values[:, 0].tolist() == [0.0, 1.0]

    def test_identity_when_equal(self):
        s = make_sample([[1.0, 2.0], [3.0, 4.0]])
        out = interpolate(s, 2)
        assert np.array_equal(out.values, s.values)

    def test_constant_channel_stays_constant(self, rng):
        values = np.column_stack([np.full(50, 3.7), rng.normal(0, 1, 50)])
        out = interpolate(make_sample(values), 20)
        assert np.allclose(out.values[:, 0], 3.7)

    def test_zero_pad(self):
        s = make_sample([[1.0, 1.0]])
        out = interpolate(s, 4)
        assert out.values.shape == (4, 2)
        assert np.array_equal(out.values[1:], np.zeros((3, 2)))

    def test_endpoints_preserved_on_downsample(self, rng):
        values = rng.normal(0, 1, (37, 3))
        out = interpolate(make_sample(values), 11)
        assert np.allclose(out.values[0], values[0])
        assert np.allclose(out.values[-1], values[-1])

    def test_idempotent(self, rng):
        s = make_sample(rng.normal(0, 1, (29, 2)))
        once = interpolate(s, 12)
        twice = interpolate(once, 12)
        assert np.array_equal(once.values, twice.values)

    def test_label_unchanged(self):
        s = make_sample(np.ones((5, 1)), label=(3, 1))
        assert interpolate(s, 3).label == (3, 1)

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            interpolate(make_sample(np.ones((2, 1))), 0)


class TestBezier:
    def test_linear(self):
        assert bezier([0.0, 1.0], 3).tolist() == [0.0, 0.5, 1.0]

    def test_quadratic_midpoint(self):
        # B(t) = 2t(1-t) for control values (0, 1, 0)
        out = bezier([0.0, 1.0, 0.0], 3)
        assert out.tolist() == [0.0, 0.5, 0.0]

    def test_constant(self):
        assert np.allclose(bezier([2.0] * 5, 7), 2.0)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            bezier([1.0], 3)

    @given(
        st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=10),
        st.integers(min_value=2, max_value=50),
    )
    @settings(deadline=None, max_examples=50)
    def test_endpoints_exact(self, points, samples):
        out = bezier(points, samples)
        assert out[0] == points[0]
        assert out[-1] == points[-1]

    @given(st.lists(st.floats(min_value=0.5, max_value=1.5), min_size=2, max_size=10))
    @settings(deadline=None, max_examples=50)
    def test_convex_hull(self, points):
        out = bezier(points, 20)
        assert out.min() >= min(points) - 1e-12
        assert out.max() <= max(points) + 1e-12


class TestWarpTimeMap:
    @given(st.lists(st.floats(min_value=0.9, max_value=1.1), min_size=2, max_size=20))
    @settings(deadline=None, max_examples=50)
    def test_strictly_increasing_onto(self, speeds):
        m = len(speeds) + 1
        tmap = warp_time_map(np.array(speeds), m)
        assert tmap[0] == 0.0
        assert tmap[-1] == m - 1
        assert (np.diff(tmap) > 0).all()


class TestAugment:
    def setup_method(self):
        rng = np.random.default_rng(99)
        values = rng.normal(0, 5, (60, 13))
        values[:, 12] = np.abs(values[:, 12])
        self.sample = Sample(values, (1, 2), 3, 100.0)
        self.cfg = AugmentConfig()

    def test_empty_methods_identity(self):
        out = augment(self.sample, self.cfg, set(), seed=1)
        assert out is self.sample

    def test_p_apply_zero_identity(self):
        cfg = AugmentConfig(p_apply=0.0)
        out = augment(self.sample, cfg, ALL_METHODS, seed=1)
        assert np.array_equal(out.values, self.sample.values)

    # Pinned from the per-method channel loops that augment ran before its
    # per-channel methods shared one loop; any change to a draw, its order
    # or the arithmetic on a column moves the digest.
    @pytest.mark.parametrize(
        "methods, digest",
        [
            ("scale", "8378fede1d0e12e906899316b182b43fb5b44c311a2da18ce98fb8adffc47e2c"),
            ("shift", "e8d8aa350503a4ccd65695c037b38d980e80442c93a5a03e4daf94ec6f56a55b"),
            ("jitter", "5abbbafdb2ab66323695b89fc50a0a45f91b1ca2d9b2831752cdd4d08b087c40"),
            ("mag_warp", "96a287cf6f594a41b571180aa286438a52574187d3247915549d385c3befa08a"),
            (
                "scale,shift,jitter,mag_warp,time_warp",
                "8fb35cc9f872d625ea86499299073f124c8bef7c58019da2fb23332391b2a8d0",
            ),
        ],
    )
    def test_same_seed_output_is_pinned(self, methods, digest):
        values = self.sample.values.copy()
        values[:, 7] = 2.5  # a constant channel, which jitter leaves alone
        values[::4, 3] = -0.0
        sample = make_sample(values, self.sample.label)
        out = augment(sample, AugmentConfig(p_apply=0.7), set(methods.split(",")), seed=23)
        assert hashlib.sha256(out.values.tobytes()).hexdigest() == digest

    def test_deterministic(self):
        a = augment(self.sample, self.cfg, ALL_METHODS, seed=5)
        b = augment(self.sample, self.cfg, ALL_METHODS, seed=5)
        assert np.array_equal(a.values, b.values)
        c = augment(self.sample, self.cfg, ALL_METHODS, seed=6)
        assert not np.array_equal(a.values, c.values)

    def test_label_and_shape_preserved(self):
        out = augment(self.sample, self.cfg, ALL_METHODS, seed=2)
        assert out.label == self.sample.label
        assert out.writer_id == self.sample.writer_id
        assert out.values.shape == self.sample.values.shape

    def test_scale_ratio_constant_per_channel(self):
        cfg = AugmentConfig(p_apply=1.0)
        out = augment(self.sample, cfg, {"scale"}, seed=11)
        for c in range(13):
            ratios = out.values[:, c] / self.sample.values[:, c]
            assert np.allclose(ratios, ratios[0])
            assert 0.9 <= ratios[0] <= 1.1

    def test_shift_amplitudes(self):
        cfg = AugmentConfig(p_apply=1.0)
        out = augment(self.sample, cfg, {"shift"}, seed=13)
        deltas = out.values - self.sample.values
        for c in range(13):
            col = deltas[:, c]
            assert np.allclose(col, col[0])
            bound = 200.0 if c == 12 else 20.0
            assert abs(col[0]) <= bound

    def test_jitter_noise_scale(self):
        rng = np.random.default_rng(4)
        values = rng.normal(0, 3, (10_000, 2))
        sample = Sample(values, (0,), 0, 100.0)
        cfg = AugmentConfig(p_apply=1.0, force_channel=1, accelerometer_channels=(0,))
        out = augment(sample, cfg, {"jitter"}, seed=21)
        for c in range(2):
            added = out.values[:, c] - values[:, c]
            expected = 0.1 * values[:, c].std()
            assert abs(added.std() - expected) <= 0.1 * expected

    def test_jitter_constant_channel_untouched(self):
        values = np.ones((50, 2))
        sample = Sample(values, (0,), 0, 100.0)
        cfg = AugmentConfig(p_apply=1.0, force_channel=1, accelerometer_channels=(0,))
        out = augment(sample, cfg, {"jitter"}, seed=3)
        assert np.array_equal(out.values, values)

    def test_mag_warp_only_accelerometer_channels(self):
        cfg = AugmentConfig(p_apply=1.0)
        out = augment(self.sample, cfg, {"mag_warp"}, seed=17)
        changed = [
            c
            for c in range(13)
            if not np.array_equal(out.values[:, c], self.sample.values[:, c])
        ]
        assert set(changed) <= {0, 1, 2, 3, 4, 5}
        assert changed  # at p_apply=1 every accelerometer channel moves
        for c in changed:
            ratios = out.values[:, c] / self.sample.values[:, c]
            assert ratios.min() >= 0.7 - 1e-9
            assert ratios.max() <= 1.3 + 1e-9

    def test_time_warp_preserves_endpoints(self):
        cfg = AugmentConfig(p_apply=1.0)
        out = augment(self.sample, cfg, {"time_warp"}, seed=19)
        assert not np.array_equal(out.values, self.sample.values)
        assert np.allclose(out.values[0], self.sample.values[0], atol=1e-9)
        assert np.allclose(out.values[-1], self.sample.values[-1], atol=1e-9)
        assert out.values.shape == self.sample.values.shape

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            augment(self.sample, self.cfg, {"crop"}, seed=1)

    def test_invalid_channel_index_rejected(self):
        small = Sample(np.ones((10, 3)), (0,), 0, 100.0)
        with pytest.raises(ValueError):
            augment(small, AugmentConfig(), {"shift"}, seed=1)
        with pytest.raises(ValueError):
            augment(small, AugmentConfig(force_channel=2), {"mag_warp"}, seed=1)

    def test_methods_not_applied_leave_other_channels(self):
        # force_channel valid, shift only: non-selected methods leave data alone
        small = Sample(np.ones((10, 3)), (0,), 0, 100.0)
        cfg = AugmentConfig(p_apply=1.0, force_channel=2, accelerometer_channels=(0,))
        out = augment(small, cfg, {"scale"}, seed=4)
        ratios = out.values / small.values
        assert np.allclose(ratios, ratios[0:1, :])


class TestAugmentConfig:
    def test_json_round_trip(self):
        cfg = AugmentConfig(p_apply=0.25, accelerometer_channels=(1, 2))
        assert AugmentConfig.from_dict(cfg.to_dict()) == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            AugmentConfig(p_apply=1.5)
        with pytest.raises(ValueError):
            AugmentConfig(mag_warp_low=1.4)
        with pytest.raises(ValueError):
            AugmentConfig(bezier_control_points=1)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            AugmentConfig.from_dict({"p_appply": 0.5})

    @pytest.mark.parametrize(
        "field", ["scale_sigma", "jitter_sigma", "shift_force", "shift_other", "warp_sigma"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.1])
    def test_spread_must_be_finite_non_negative(self, field, value):
        interval = "[0, 1)" if field == "warp_sigma" else "[0, inf)"
        with pytest.raises(ValueError) as exc:
            AugmentConfig(**{field: value})
        assert str(exc.value) == f"{field} must be in {interval}, got {value!r}"

    @pytest.mark.parametrize("value", [1.0, 1.5])
    def test_warp_sigma_below_one(self, value):
        with pytest.raises(ValueError) as exc:
            AugmentConfig(warp_sigma=value)
        assert str(exc.value) == f"warp_sigma must be in [0, 1), got {value}"

    @pytest.mark.parametrize("field", ["mag_warp_low", "mag_warp_high"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_mag_warp_bounds_finite(self, field, value):
        with pytest.raises(ValueError) as exc:
            AugmentConfig(**{field: value})
        assert str(exc.value) == f"{field} must be in (-inf, inf), got {value!r}"

    def test_zero_spreads_accepted(self):
        sample = make_sample(np.random.default_rng(3).normal(0, 1, (30, 13)))
        cfg = AugmentConfig(
            p_apply=1.0, scale_sigma=0.0, jitter_sigma=0.0, shift_force=0.0,
            shift_other=0.0, warp_sigma=0.0,
        )
        out = augment(sample, cfg, {"scale", "shift", "jitter", "time_warp"}, seed=2)
        assert np.allclose(out.values, sample.values)
