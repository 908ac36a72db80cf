import itertools
import time

import numpy as np
import pytest

from penscript.dataio import Sample, equations_alphabet
from penscript.segment import (
    SegmentationError,
    _smallest_assignment,
    default_constraints,
    detect_strokes,
    split_equation,
)
from synth import make_equation_sample

ALPHABET = equations_alphabet()


class TestDefaultConstraints:
    def test_exact_table(self):
        table = default_constraints()
        expected = {
            "0": {1}, "1": {1}, "2": {1}, "3": {1}, "4": {1, 2},
            "5": {2}, "6": {1}, "7": {1, 2}, "8": {1}, "9": {1},
            "+": {2}, "-": {1}, "·": {1}, ":": {2}, "=": {2},
        }
        assert {k: set(v) for k, v in table.items()} == expected

    def test_covers_alphabet(self):
        table = default_constraints()
        assert set(table) == set(ALPHABET.symbols)

    def test_unknown_symbol_errors(self):
        with pytest.raises(KeyError):
            default_constraints()["a"]


class TestDetectStrokes:
    def test_all_zero(self):
        assert detect_strokes([0.0] * 6, 0.5) == []

    def test_run_detection(self):
        assert detect_strokes([0, 1, 1, 0, 1, 0], 0.5, 1) == [(1, 2), (4, 4)]

    def test_min_len_filter(self):
        assert detect_strokes([0, 1, 0, 1, 1, 0], 0.5, 2) == [(3, 4)]

    def test_run_to_the_end(self):
        assert detect_strokes([0, 1, 1], 0.5, 1) == [(1, 2)]

    def test_threshold_strict(self):
        # values equal to the threshold are pen-up
        assert detect_strokes([0.5, 0.6], 0.5, 1) == [(1, 1)]

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            detect_strokes([1.0], 0.0)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -0.5])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        with pytest.raises(ValueError) as exc:
            detect_strokes([1.0], threshold)
        assert str(exc.value) == f"threshold must be a finite positive number, got {threshold!r}"


class TestSplitEquation:
    def test_unique_assignment(self):
        sample, bounds = make_equation_sample("1+2", [1, 2, 1])
        result = split_equation(sample)
        assert not result.ambiguous
        assert result.assignment == (1, 2, 1)
        assert len(result) == 3
        for piece, (start, end), idx in zip(result, bounds, sample.label):
            assert piece.label == (idx,)
            assert piece.writer_id == sample.writer_id
            assert np.array_equal(piece.values, sample.values[start : end + 1])

    def test_trivial_composition(self):
        sample, _ = make_equation_sample("00", [1, 1])
        result = split_equation(sample)
        assert result.assignment == (1, 1)

    def test_ambiguous_lexicographic(self):
        # "47" with 3 strokes: (1,2) and (2,1) both feasible
        sample, _ = make_equation_sample("47", [1, 2])
        result = split_equation(sample)
        assert result.ambiguous
        assert result.assignment == (1, 2)

    def test_no_feasible_assignment(self):
        # "1" needs exactly one stroke but two are drawn
        sample, _ = make_equation_sample("1", [2])
        with pytest.raises(SegmentationError, match="2 strokes"):
            split_equation(sample)

    def test_zero_strokes(self):
        values = np.zeros((20, 13))
        sample = Sample(values, ALPHABET.encode_label("1"), 0, 100.0)
        with pytest.raises(SegmentationError, match="no strokes"):
            split_equation(sample)

    @pytest.mark.parametrize("channel", [12, 3, -1])
    def test_force_channel_outside_the_sample(self, channel):
        sample = Sample(np.ones((20, 3)), ALPHABET.encode_label("1"), 0, 100.0)
        with pytest.raises(
            ValueError, match=f"^force_channel {channel} out of range for 3 channels$"
        ):
            split_equation(sample, force_channel=channel)

    def test_symbol_without_constraints(self):
        sample, _ = make_equation_sample("1", [1])
        with pytest.raises(ValueError, match=r"^no stroke constraints for symbols \['1'\]$"):
            split_equation(sample, constraints={"0": frozenset({1})})

    def test_pieces_ordered_non_overlapping(self, rng):
        label = "12+34=46"
        counts = [1, 1, 2, 1, 1, 2, 1, 1]
        sample, bounds = make_equation_sample(label, counts, rng=rng)
        result = split_equation(sample)
        assert sum(result.assignment) == len(detect_strokes(sample.values[:, 12], 0.02, 3))
        last_end = -1
        for (start, end) in bounds:
            assert start > last_end
            last_end = end

    def test_round_trip_unique_layouts(self, rng):
        # characters with fixed stroke counts make the assignment unique
        fixed = [s for s, c in default_constraints().items() if len(c) == 1]
        table = default_constraints()
        for trial in range(25):
            length = int(rng.integers(1, 7))
            label = "".join(rng.choice(fixed) for _ in range(length))
            counts = [next(iter(table[ch])) for ch in label]
            sample, bounds = make_equation_sample(label, counts, rng=rng)
            result = split_equation(sample)
            assert not result.ambiguous
            assert result.assignment == tuple(counts)
            for piece, (start, end) in zip(result, bounds):
                assert np.array_equal(piece.values, sample.values[start : end + 1])


def enumerated_assignment(options, total):
    """The smallest assignment and the ambiguity flag by listing every choice."""
    feasible = sorted(a for a in itertools.product(*options) if sum(a) == total)
    return (feasible[0], len(feasible) > 1) if feasible else None


class TestSmallestAssignment:
    def test_matches_enumeration_on_short_labels(self, rng):
        menu = [(1,), (2,), (1, 2), (1, 3), (2, 3), (0, 1)]
        for _ in range(300):
            options = [menu[i] for i in rng.integers(0, len(menu), rng.integers(1, 7))]
            for total in range(0, 3 * len(options) + 2):
                expected = enumerated_assignment(options, total)
                assert _smallest_assignment(options, total) == expected, (options, total)

    def test_long_ambiguous_label_returns_at_once(self):
        # forty two-count symbols: enumeration would visit 2**40 choices
        counts = [2] * 20 + [1] * 20
        sample, bounds = make_equation_sample("7" * 40, counts)
        began = time.perf_counter()
        result = split_equation(sample)
        assert time.perf_counter() - began < 2.0
        assert result.ambiguous
        assert result.assignment == (1,) * 20 + (2,) * 20
