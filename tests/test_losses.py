import numpy as np
import pytest

from penscript.losses import (
    CHARACTER_LOSSES,
    LossParams,
    boot_hard,
    boot_soft,
    cce,
    focal,
    gce,
    joint_opt,
    log_softmax,
    lsr,
    sce,
    softmax,
)
from oracles import central_diff, rel_err

P = LossParams()


class TestLogSoftmax:
    def test_symmetry(self):
        out = log_softmax(np.zeros(2))
        assert np.allclose(out, [-np.log(2)] * 2, atol=1e-15)

    def test_shift_invariance(self):
        for c in (-3.0, 0.0, 100.0):
            out = log_softmax(np.full(4, c))
            assert np.allclose(out, -np.log(4), atol=1e-15)

    def test_no_overflow(self):
        out = log_softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(out).all()
        assert abs(out[0]) < 1e-9
        assert abs(out[1] + 1000.0) < 1e-9

    def test_exp_sums_to_one(self, rng):
        for _ in range(20):
            x = rng.normal(0, 10, rng.integers(2, 9))
            assert abs(np.exp(log_softmax(x)).sum() - 1.0) < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            log_softmax(np.array([np.nan, 0.0]))


class TestFrozenValues:
    def test_cce_uniform_15(self):
        value = cce(np.zeros(15), 0, P).value
        assert abs(value - np.log(15) / 15) < 1e-12

    def test_lsr_two_class_example(self):
        # (ln 2)/2 - 0.1 * (ln 2)/2
        value = lsr(np.zeros(2), 0, P).value
        assert abs(value - 0.9 * np.log(2) / 2) < 1e-12
        assert abs(value - 0.3119162312929884) < 1e-6

    def test_sce_two_class_example(self):
        # 0.5*(ln 2)/2 + 0.5*(-(1/2)(0.5*0 + 0.5*(-4)))
        value = sce(np.zeros(2), 0, P).value
        expected = 0.5 * np.log(2) / 2 + 0.5
        assert abs(value - expected) < 1e-12
        assert abs(value - 0.6732867951399864) < 1e-6

    def test_perfect_prediction_zero(self):
        x = np.array([50.0, 0.0, 0.0])
        assert cce(x, 0, P).value < 1e-12
        assert focal(x, 0, P).value < 1e-12
        assert gce(x, 0, P).value < 1e-12
        assert sce(x, 0, P).value < 1e-10


class TestReductions:
    def test_focal_reduces_to_cce(self, rng):
        params = LossParams(fl_alpha=1.0, fl_gamma=0.0)
        for _ in range(20):
            x = rng.normal(0, 2, 6)
            t = int(rng.integers(6))
            assert abs(focal(x, t, params).value - cce(x, t, params).value) < 1e-12

    def test_lsr_reduces_to_cce(self, rng):
        params = LossParams(lsr_beta=0.0)
        for _ in range(20):
            x = rng.normal(0, 2, 5)
            t = int(rng.integers(5))
            assert abs(lsr(x, t, params).value - cce(x, t, params).value) < 1e-12

    def test_bootstrap_reduces_to_cce(self, rng):
        params = LossParams(sbs_beta=1.0, hbs_beta=1.0)
        for _ in range(20):
            x = rng.normal(0, 2, 4)
            t = int(rng.integers(4))
            assert abs(boot_soft(x, t, params).value - cce(x, t, params).value) < 1e-12
            assert abs(boot_hard(x, t, params).value - cce(x, t, params).value) < 1e-12

    def test_sce_reduces_to_scaled_cce(self, rng):
        params = LossParams(sce_alpha=0.5, sce_beta=0.0)
        for _ in range(20):
            x = rng.normal(0, 2, 7)
            t = int(rng.integers(7))
            assert abs(sce(x, t, params).value - 0.5 * cce(x, t, params).value) < 1e-12

    def test_gce_approaches_log_loss(self, rng):
        # (1 - p^a)/a = -log p + a(log p)^2/2 + O(a^2); compare against K * cce
        params = LossParams(gce_alpha=1e-4)
        for _ in range(20):
            k = 6
            x = rng.normal(0, 1, k)
            t = int(rng.integers(k))
            unnormalized = k * cce(x, t, P).value
            assert abs(gce(x, t, params).value - unnormalized) < 1e-3

    def test_gce_alpha_one_is_mae_like(self, rng):
        params = LossParams(gce_alpha=1.0)
        for _ in range(10):
            x = rng.normal(0, 2, 5)
            t = int(rng.integers(5))
            pt = softmax(x)[t]
            assert abs(gce(x, t, params).value - (1.0 - pt)) < 1e-12


class TestBootstrapSubstitutions:
    def test_soft_beta_zero_is_entropy(self, rng):
        params = LossParams(sbs_beta=0.0)
        for _ in range(10):
            x = rng.normal(0, 2, 5)
            p = softmax(x)
            expected = -(p * np.log(p)).sum() / 5
            assert abs(boot_soft(x, 0, params).value - expected) < 1e-12

    def test_hard_beta_zero_is_argmax_loss(self, rng):
        params = LossParams(hbs_beta=0.0)
        for _ in range(10):
            x = rng.normal(0, 2, 5)
            p = softmax(x)
            expected = -np.log(p[np.argmax(p)]) / 5
            assert abs(boot_hard(x, 0, params).value - expected) < 1e-12


class TestGradients:
    @pytest.mark.parametrize("name", sorted(CHARACTER_LOSSES))
    def test_gradient_matches_finite_differences(self, name, rng):
        fn = CHARACTER_LOSSES[name]
        worst = 0.0
        for _ in range(100):
            k = int(rng.integers(2, 9))
            x = rng.normal(0, 2, k)
            t = int(rng.integers(k))
            analytic = fn(x, t, P).grad_logits
            fd = central_diff(lambda: fn(x, t, P).value, x)
            worst = max(worst, rel_err(analytic, fd))
        assert worst < 1e-4, f"{name}: max rel err {worst}"

    def test_joint_opt_gradient(self, rng):
        worst = 0.0
        for _ in range(50):
            b = int(rng.integers(1, 6))
            k = int(rng.integers(2, 7))
            x = rng.normal(0, 2, (b, k))
            t = [int(v) for v in rng.integers(0, k, b)]
            analytic = joint_opt(x, t, P).grad_logits
            fd = central_diff(lambda: joint_opt(x, t, P).value, x)
            worst = max(worst, rel_err(analytic, fd))
        assert worst < 1e-4

    def test_cce_gradient_tight(self, rng):
        for _ in range(20):
            x = rng.normal(0, 2, 5)
            t = int(rng.integers(5))
            fd = central_diff(lambda: cce(x, t, P).value, x)
            assert rel_err(cce(x, t, P).grad_logits, fd) < 1e-6


class TestJointOpt:
    def test_prior_match_kills_kl(self, rng):
        # symmetric logits make the batch mean exactly uniform
        x = np.array([[2.0, 0.0], [0.0, 2.0]])
        out = joint_opt(x, [0, 1], LossParams(jo_beta=0.0))
        p = softmax(x)
        expected_ce = -(np.log(p[0, 0]) + np.log(p[1, 1])) / 2 / 2
        assert abs(out.value - expected_ce) < 1e-12

    def test_all_terms_vanish_on_confident_match(self):
        x = np.array([[60.0, 0.0], [0.0, 60.0]])
        out = joint_opt(x, [0, 1], P)
        assert out.value < 1e-10

    def test_non_negative(self, rng):
        for _ in range(25):
            b, k = int(rng.integers(1, 5)), int(rng.integers(2, 6))
            x = rng.normal(0, 3, (b, k))
            t = [int(v) for v in rng.integers(0, k, b)]
            assert joint_opt(x, t, P).value >= 0.0

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            joint_opt(np.zeros((0, 3)), [], P)

    def test_vector_call_is_a_batch_of_one(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 8))
            x = rng.normal(0, 2, k)
            t = int(rng.integers(k))
            one = joint_opt(x, t, P)
            batch = joint_opt(x[None], [t], P)
            assert one.grad_logits.shape == (k,)
            assert one.value == batch.value
            assert np.array_equal(one.grad_logits, batch.grad_logits[0])

    def test_kl_reaches_every_row(self):
        # a batch of one is its own mean: the KL term is KL(uniform || p)
        x = np.array([1.0, 0.0, -1.0])
        p = softmax(x)
        only_kl = LossParams(jo_beta=0.0, jo_alpha=1.0)
        expected = -np.log(p[0]) / 3 + np.sum(np.log(1 / 3) - np.log(p)) / 3
        assert abs(joint_opt(x, 0, only_kl).value - expected) < 1e-12


SEPARABLE = sorted(set(CHARACTER_LOSSES) - {"joint_opt"})


class TestBatchCall:
    """A (B, K) call of a separable loss is exactly the mean of its rows."""

    @pytest.mark.parametrize("name", SEPARABLE)
    def test_rows_match_per_sample_calls(self, name, rng):
        fn = CHARACTER_LOSSES[name]
        for _ in range(50):
            b, k = int(rng.integers(1, 7)), int(rng.integers(2, 9))
            x = rng.normal(0, 3, (b, k))
            x[0, 0] += 60.0 if rng.random() < 0.2 else 0.0  # p = 1 in a row
            targets = [int(v) for v in rng.integers(0, k, b)]
            gamma = float(rng.choice([0.0, 0.5, 2.0, 8.0]))
            params = LossParams(fl_gamma=gamma, scale_free=bool(rng.random() < 0.5))
            batch = fn(x, targets, params)
            rows = [fn(x[i], targets[i], params) for i in range(b)]
            assert batch.grad_logits.shape == (b, k)
            for i, row in enumerate(rows):
                assert np.array_equal(batch.grad_logits[i], row.grad_logits / b)
            value = 0.0
            for row in rows:
                value += row.value / b
            assert batch.value == value

    @pytest.mark.parametrize("name", sorted(CHARACTER_LOSSES))
    def test_bad_batches_rejected(self, name):
        fn = CHARACTER_LOSSES[name]
        with pytest.raises(ValueError, match="batch size mismatch"):
            fn(np.zeros((2, 3)), [0], P)
        with pytest.raises(ValueError, match="target index 3 out of range for 3 classes"):
            fn(np.zeros((2, 3)), [0, 3], P)
        with pytest.raises(ValueError, match="logit vector or a"):
            fn(np.zeros((2, 3, 1)), [0, 0], P)


class TestValidation:
    def test_target_out_of_range(self):
        for fn in CHARACTER_LOSSES.values():
            with pytest.raises(ValueError):
                fn(np.zeros(3), 3, P)
            with pytest.raises(ValueError):
                fn(np.zeros(3), -1, P)

    def test_gce_alpha_validated(self):
        with pytest.raises(ValueError):
            LossParams(gce_alpha=0.0)
        with pytest.raises(ValueError):
            LossParams(gce_alpha=1.5)

    def test_params_round_trip(self):
        params = LossParams(fl_gamma=2.0, scale_free=True)
        assert LossParams.from_dict(params.to_dict()) == params

    def test_values_non_negative(self, rng):
        for _ in range(50):
            k = int(rng.integers(2, 8))
            x = rng.normal(0, 3, k)
            t = int(rng.integers(k))
            for name, fn in CHARACTER_LOSSES.items():
                assert fn(x, t, P).value >= 0.0, name

    def test_scale_free_drops_k(self, rng):
        free = LossParams(scale_free=True)
        for _ in range(10):
            k = int(rng.integers(2, 8))
            x = rng.normal(0, 2, k)
            t = int(rng.integers(k))
            assert abs(cce(x, t, free).value - k * cce(x, t, P).value) < 1e-12
