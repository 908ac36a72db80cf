import hashlib
import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from penscript.losses import (
    CTCInfeasibleError,
    beam_decode,
    ctc_feasible,
    ctc_loss,
    greedy_decode,
    log_softmax,
)
from oracles import (
    best_labeling_oracle,
    central_diff,
    collapse,
    ctc_total_oracle,
    prefix_beam_oracle,
    rel_err,
)


def random_log_probs(rng, t_len, k):
    logits = rng.normal(0, 2, (t_len, k + 1))
    return np.vstack([log_softmax(row) for row in logits])


class TestCollapseOracle:
    def test_examples(self):
        assert collapse((0, 0, 2, 1, 1), blank=2) == (0, 1)
        assert collapse((2, 2, 2), blank=2) == ()
        assert collapse((0, 2, 0), blank=2) == (0, 0)


class TestFeasibility:
    def test_simple(self):
        assert ctc_feasible(1, (0,))
        assert not ctc_feasible(1, (0, 1))
        assert ctc_feasible(2, (0, 1))
        assert not ctc_feasible(2, (0, 0))
        assert ctc_feasible(3, (0, 0))

    def test_empty_target_always_feasible(self):
        assert ctc_feasible(1, ())

    def test_matches_oracle_mass(self, rng):
        # infeasible exactly when no path collapses to the target
        for t_len, k in itertools.product((1, 2, 3, 4), (1, 2)):
            lp = random_log_probs(rng, t_len, k)
            p = np.exp(lp)
            for l_len in range(0, 4):
                for target in itertools.product(range(k), repeat=l_len):
                    mass = ctc_total_oracle(p, target)
                    assert ctc_feasible(t_len, target) == (mass > 0.0)


class TestCtcLossValues:
    def test_single_frame_single_label(self, rng):
        lp = random_log_probs(rng, 1, 2)
        out = ctc_loss(lp, (1,))
        assert abs(out.value - (-lp[0, 1])) < 1e-12

    def test_two_frames_single_label(self, rng):
        # paths: bl,a  a,bl  a,a
        lp = random_log_probs(rng, 2, 2)
        p = np.exp(lp)
        mass = p[0, 2] * p[1, 0] + p[0, 0] * p[1, 2] + p[0, 0] * p[1, 0]
        out = ctc_loss(lp, (0,))
        assert abs(out.value - (-np.log(mass))) < 1e-12

    def test_repeat_needs_separating_blank(self, rng):
        lp = random_log_probs(rng, 4, 2)
        p = np.exp(lp)
        assert abs(ctc_loss(lp, (0, 0)).value - (-np.log(ctc_total_oracle(p, (0, 0))))) < 1e-10

    def test_empty_target(self, rng):
        # all-blank path is the only labeling
        lp = random_log_probs(rng, 3, 2)
        out = ctc_loss(lp, ())
        assert abs(out.value - (-lp[:, 2].sum())) < 1e-12

    def test_exhaustive_against_path_enumeration(self, rng):
        worst = 0.0
        for t_len in (1, 2, 3, 4, 5):
            for k in (1, 2, 3):
                lp = random_log_probs(rng, t_len, k)
                p = np.exp(lp)
                for l_len in range(0, min(t_len, 3) + 1):
                    for target in itertools.product(range(k), repeat=l_len):
                        mass = ctc_total_oracle(p, target)
                        if mass == 0.0:
                            with pytest.raises(CTCInfeasibleError):
                                ctc_loss(lp, target)
                            continue
                        out = ctc_loss(lp, target)
                        worst = max(worst, abs(out.value - (-np.log(mass))))
        assert worst < 1e-9

    def test_gradient_matches_finite_differences(self, rng):
        worst = 0.0
        for _ in range(40):
            t_len = int(rng.integers(2, 7))
            k = int(rng.integers(1, 4))
            l_len = int(rng.integers(0, min(t_len, 3) + 1))
            target = tuple(int(v) for v in rng.integers(0, k, l_len))
            if not ctc_feasible(t_len, target):
                continue
            lp = random_log_probs(rng, t_len, k)

            def value(lp=lp, target=target):
                return ctc_loss(lp, target).value

            fd = central_diff(value, lp)
            worst = max(worst, rel_err(ctc_loss(lp, target).grad_logits, fd))
        assert worst < 1e-4


class TestCtcErrors:
    def test_infeasible_raises(self, rng):
        lp = random_log_probs(rng, 2, 2)
        with pytest.raises(CTCInfeasibleError):
            ctc_loss(lp, (0, 0))
        with pytest.raises(CTCInfeasibleError):
            ctc_loss(lp, (0, 1, 0))

    def test_blank_in_target_rejected(self, rng):
        lp = random_log_probs(rng, 3, 2)
        with pytest.raises(ValueError):
            ctc_loss(lp, (2,))

    def test_out_of_range_rejected(self, rng):
        lp = random_log_probs(rng, 3, 2)
        with pytest.raises(ValueError):
            ctc_loss(lp, (3,))
        with pytest.raises(ValueError):
            ctc_loss(lp, (-1,))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            ctc_loss(np.zeros((0, 3)), (0,))
        with pytest.raises(ValueError):
            ctc_loss(np.zeros((3,)), (0,))
        with pytest.raises(ValueError):
            ctc_loss(np.zeros((3, 1)), ())

    def test_zero_frames_rejected_naming_the_shape(self):
        with pytest.raises(ValueError, match=r"frames >= 1.*got shape \(0, 3\)$"):
            ctc_loss(np.zeros((0, 3)), ())
        with pytest.raises(ValueError, match=r"frames >= 1.*got shape \(2, 0, 3\)$"):
            ctc_loss(np.zeros((2, 0, 3)), [(), ()])


class TestCtcBatch:
    def test_batch_is_the_mean_of_its_rows_bit_for_bit(self, rng):
        # mixed target lengths, empty targets and B = 1, at toy and paper shape
        shapes = [(1, 4, 2, 0), (1, 5, 3, 3), (3, 6, 2, 3), (5, 9, 4, 4), (10, 400, 15, 24)]
        for b, t_len, k, max_len in shapes:
            y = log_softmax(rng.normal(0, 2, (b, t_len, k + 1)))
            targets = [
                tuple(int(v) for v in rng.integers(0, k, rng.integers(0, max_len + 1)))
                for _ in range(b)
            ]
            targets = [t if ctc_feasible(t_len, t) else () for t in targets]
            out = ctc_loss(y, targets)
            rows = [ctc_loss(y[r], targets[r]) for r in range(b)]
            assert out.value == sum(np.array([row.value for row in rows]) / b)
            assert out.grad_logits.shape == y.shape
            for r, row in enumerate(rows):
                assert np.array_equal(out.grad_logits[r], row.grad_logits / b)

    def test_all_empty_targets(self, rng):
        y = log_softmax(rng.normal(0, 1, (2, 3, 3)))
        out = ctc_loss(y, [(), ()])
        assert abs(out.value - (-y[:, :, 2].sum() / 2)) < 1e-12

    def test_infeasible_row_raises_naming_it(self, rng):
        y = log_softmax(rng.normal(0, 1, (3, 2, 3)))
        with pytest.raises(CTCInfeasibleError, match="^row 1: 2 frames cannot align"):
            ctc_loss(y, [(0,), (0, 0), ()])

    def test_bad_row_target_names_it(self, rng):
        y = log_softmax(rng.normal(0, 1, (2, 3, 3)))
        with pytest.raises(ValueError, match="^row 1: target may not contain the blank"):
            ctc_loss(y, [(0,), (2,)])
        with pytest.raises(ValueError, match="^row 0: target index out of range"):
            ctc_loss(y, [(5,), (1,)])

    def test_nan_in_an_unread_column_names_row_and_frame(self, rng):
        # target (1,) never reads class 0, so the NaN would not reach the value
        y = log_softmax(rng.normal(0, 1, (2, 6, 4)))
        y[1, 2, 0] = np.nan
        y[1, 4, :] = np.nan
        with pytest.raises(ValueError, match="^row 1: log_probs are NaN at frame 2$"):
            ctc_loss(y, [(0,), (1,)])

    def test_nan_in_a_single_matrix_names_the_frame(self, rng):
        y = log_softmax(rng.normal(0, 1, (6, 4)))
        y[3, 2] = np.nan
        with pytest.raises(ValueError, match="^log_probs are NaN at frame 3$"):
            ctc_loss(y, (0,))

    def test_inf_in_an_unread_column_names_row_and_frame(self, rng):
        # no log-probability is +inf; unread, it would leave the value as it was
        y = log_softmax(rng.normal(0, 1, (2, 6, 4)))
        y[1, 2, 0] = np.inf
        with pytest.raises(ValueError, match=r"^row 1: log_probs are \+inf at frame 2$"):
            ctc_loss(y, [(0,), (1,)])
        with pytest.raises(ValueError, match=r"^log_probs are \+inf at frame 2$"):
            ctc_loss(y[1], (1,))

    def test_count_mismatch_raises(self, rng):
        y = log_softmax(rng.normal(0, 1, (2, 3, 3)))
        for targets in ([(0,)], [(0,), (1,), ()], []):
            with pytest.raises(ValueError, match="batch size mismatch"):
                ctc_loss(y, targets)

    def test_bad_batch_shape_rejected(self):
        for shape in [(0, 3, 3), (2, 3, 1), (1, 2, 3, 3)]:
            with pytest.raises(ValueError, match="log_probs must be"):
                ctc_loss(np.zeros(shape), [(0,)] * shape[0])


class TestGreedyDecode:
    def test_examples(self):
        # classes 0,1 + blank 2; framewise argmax 0,0,2,1,1 -> (0, 1)
        lp = np.log(
            np.array(
                [
                    [0.8, 0.1, 0.1],
                    [0.8, 0.1, 0.1],
                    [0.1, 0.1, 0.8],
                    [0.1, 0.8, 0.1],
                    [0.1, 0.8, 0.1],
                ]
            )
        )
        assert greedy_decode(lp) == (0, 1)

    def test_all_blank_is_empty(self):
        lp = np.log(np.full((4, 3), [0.1, 0.1, 0.8]))
        assert greedy_decode(lp) == ()

    def test_repeat_split_by_blank(self):
        lp = np.log(
            np.array([[0.9, 0.05, 0.05], [0.05, 0.05, 0.9], [0.9, 0.05, 0.05]])
        )
        assert greedy_decode(lp) == (0, 0)

    def test_matches_collapse_of_frame_argmaxes(self):
        # rounded logits repeat argmaxes across frames and tie within them
        rng = np.random.default_rng(5)
        for _ in range(300):
            k = int(rng.integers(1, 4))
            lp = log_softmax(np.round(rng.normal(0, 1, (int(rng.integers(0, 9)), k + 1))))
            assert greedy_decode(lp) == collapse(np.argmax(lp, axis=1), blank=k)


@pytest.mark.parametrize(
    "decode", [greedy_decode, lambda lp: beam_decode(lp, 4)], ids=["greedy", "beam"]
)
class TestDecoderInput:
    def test_not_a_matrix_rejected(self, decode):
        with pytest.raises(ValueError, match=r"log_probs must be \(frames, classes\+blank\)"):
            decode(np.zeros(3))
        with pytest.raises(ValueError, match="log_probs must be"):
            decode(np.zeros((2, 3, 4)))

    def test_nan_names_the_first_nan_frame(self, decode, rng):
        lp = random_log_probs(rng, 5, 2)
        lp[2, 1] = np.nan
        lp[4, :] = np.nan
        with pytest.raises(ValueError, match="NaN at frame 2$"):
            decode(lp)

    def test_inf_names_the_first_bad_frame(self, decode, rng):
        # a +inf frame would otherwise decode, with a RuntimeWarning, to labels it never held
        lp = random_log_probs(rng, 5, 2)
        lp[1, 0] = np.inf
        lp[3, 1] = np.nan
        with pytest.raises(ValueError, match=r"^log_probs are \+inf at frame 1$"):
            decode(lp)

    def test_minus_inf_is_a_log_probability(self, decode):
        lp = np.full((3, 3), -np.inf)
        lp[[0, 1, 2], [0, 2, 1]] = 0.0
        assert decode(lp) == (0, 1)


class TestBeamDecode:
    def test_one_hot_rows_recover_path(self, rng):
        for _ in range(20):
            t_len = int(rng.integers(1, 6))
            k = int(rng.integers(1, 4))
            path = tuple(int(v) for v in rng.integers(0, k + 1, t_len))
            lp = np.full((t_len, k + 1), -50.0)
            lp[np.arange(t_len), path] = 0.0
            assert beam_decode(lp, beam_width=2) == collapse(path, blank=k)

    def test_matches_exhaustive_argmax(self, rng):
        # wide beam on tiny grids must find the best labeling
        for t_len in (1, 2, 3, 4):
            for k in (1, 2):
                for _ in range(10):
                    lp = random_log_probs(rng, t_len, k)
                    best = best_labeling_oracle(np.exp(lp))
                    got = beam_decode(lp, beam_width=64)
                    assert got == best, (t_len, k, got, best)

    def test_beats_or_ties_greedy_mass(self, rng):
        # labeling mass of the beam result is never below the greedy result's
        for _ in range(30):
            lp = random_log_probs(rng, int(rng.integers(2, 6)), 2)
            p = np.exp(lp)
            g_mass = ctc_total_oracle(p, greedy_decode(lp))
            b_mass = ctc_total_oracle(p, beam_decode(lp, beam_width=16))
            assert b_mass >= g_mass - 1e-12

    def test_width_validated(self, rng):
        lp = random_log_probs(rng, 2, 2)
        with pytest.raises(ValueError):
            beam_decode(lp, beam_width=0)

    @pytest.mark.parametrize("width", [2.0, True, False, "2", np.float64(3.0), 0])
    def test_width_must_be_an_integer(self, width, rng):
        lp = random_log_probs(rng, 2, 2)
        want = f"beam_width must be an integer >= 1, got {width!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            beam_decode(lp, width)

    def test_numpy_integer_width_is_accepted(self, rng):
        lp = random_log_probs(rng, 5, 3)
        assert beam_decode(lp, np.int64(3)) == beam_decode(lp, 3)

    def test_matches_dict_oracle_on_random_inputs(self):
        # rounded logits tie masses exactly, so the tie rule decides many of
        # these; -inf entries, whole frames of them included, make dead
        # extensions and zero-mass beams
        rng = np.random.default_rng(23)
        for case in range(2000):
            t_len = int(rng.integers(0, 12))
            k = int(rng.integers(1, 5))
            width = int(rng.integers(1, 10))
            lp = log_softmax(np.round(rng.normal(0, 1.5, (t_len, k + 1))))
            if k > 1 and rng.random() < 0.4:
                src, dst = rng.choice(k, 2, replace=False)
                lp[:, dst] = lp[:, src]
            lp[rng.random(lp.shape) < 0.15] = -np.inf
            if t_len and rng.random() < 0.4:
                lp[rng.integers(t_len), :k] = -np.inf
            if t_len and rng.random() < 0.1:
                lp[rng.integers(t_len)] = -np.inf
            want = prefix_beam_oracle(lp, width)
            assert beam_decode(lp, width) == want, (case, width, lp.tolist())

    def test_width_costs_nothing_of_its_own(self, rng):
        # a width above the number of reachable prefixes keeps them all;
        # memory follows the prefixes kept, not the width
        lp = random_log_probs(rng, 6, 2)
        want = beam_decode(lp, 64)
        tracemalloc.start()
        try:
            got = beam_decode(lp, 10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 2**20

    def test_deterministic(self, rng):
        lp = random_log_probs(rng, 5, 3)
        a = beam_decode(lp, beam_width=4)
        b = beam_decode(lp, beam_width=4)
        assert a == b

    @pytest.mark.parametrize("width", [1, 2, 10])
    def test_exact_ties_go_to_shorter_then_smaller(self, width, rng):
        # one frame: () and (0,) tie exactly, then (0,) and (1,)
        assert beam_decode(np.log([[0.4, 0.2, 0.4]]), width) == ()
        assert beam_decode(np.log([[0.4, 0.4, 0.2]]), width) == (0,)
        # with label 1 a copy of label 0, swapping them keeps every mass,
        # so the result never holds a 1 before its first 0
        for _ in range(50):
            lp = random_log_probs(rng, int(rng.integers(2, 7)), 3)
            lp[:, 1] = lp[:, 0]
            got = beam_decode(lp, width)
            swapped = tuple({0: 1, 1: 0}.get(v, v) for v in got)
            assert got <= swapped, (got, width)

    def test_impossible_label_never_appears(self, rng):
        for t_len in (1, 2, 3, 4):
            for _ in range(10):
                lp = random_log_probs(rng, t_len, 3)
                lp[:, 1] = -np.inf
                got = beam_decode(lp, beam_width=64)
                assert 1 not in got
                assert got == best_labeling_oracle(np.exp(lp)), (t_len, got)

    def test_frame_without_labels_decodes_silently(self, rng):
        lp = random_log_probs(rng, 6, 3)
        lp[2, :3] = -np.inf
        lp[2, 3] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = beam_decode(lp, beam_width=64)
        assert got == best_labeling_oracle(np.exp(lp))

    # Pinned by running the dict-based beam_decode, which held each beam in
    # a {prefix: masses} map, on these inputs before the search moved to
    # parallel arrays; the prefixes are ~150 labels long, so each is pinned
    # by its length and the sha256 of its repr. The same digests also pin
    # the trie search, which keeps prefixes as node ids.
    @pytest.mark.parametrize(
        "seed, length, digest",
        [
            (1, 168, "1646308602ebfef3987270b0699c595bbd9c79bf707c330b173cf9be1195b16e"),
            (2, 150, "af8d02d656680d040199d9b324ab422627dce0ee06532ed3f96e6d181f78ffa7"),
            (3, 151, "7bf1a00475a1c7b77b39f4f81f186e37bba72d55376a28b2c3b09533dbe48cf5"),
        ],
    )
    def test_paper_shape_prefix_is_pinned(self, seed, length, digest):
        logits = np.random.default_rng(seed).normal(0, 2, (400, 16))
        logits[:, -1] += 4.0
        got = beam_decode(log_softmax(logits), beam_width=10)
        assert len(got) == length
        assert hashlib.sha256(repr(got).encode()).hexdigest() == digest


class TestForwardBackwardInvariant:
    def test_posterior_mass_per_frame_is_one(self, rng):
        # forward-backward agreement: at every frame the state posteriors sum
        # to the total alignment mass, so each gradient row sums to -1
        for _ in range(20):
            t_len = int(rng.integers(2, 8))
            k = int(rng.integers(1, 4))
            l_len = int(rng.integers(0, min(t_len, 3) + 1))
            target = tuple(int(v) for v in rng.integers(0, k, l_len))
            if not ctc_feasible(t_len, target):
                continue
            lp = random_log_probs(rng, t_len, k)
            out = ctc_loss(lp, target)
            assert np.allclose(-out.grad_logits.sum(axis=1), 1.0, atol=1e-9)
