from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penscript.dataio import equations_alphabet
from penscript.metrics import (
    cer,
    cer_of_scripts,
    confusion_matrix,
    crr,
    edit_distance,
    error_positions,
    wer,
)
from oracles import assert_valid_script, ed_oracle

short_strings = st.text(alphabet="abc", max_size=5)


class TestEditDistance:
    def test_identity(self):
        s = edit_distance("abc", "abc")
        assert (s.distance, s.subs, s.ins, s.dels) == (0, 0, 0, 0)

    def test_empty_hypothesis(self):
        s = edit_distance("ab", "")
        assert s.distance == 2
        assert s.dels == 2

    def test_empty_reference(self):
        s = edit_distance("", "ab")
        assert s.distance == 2
        assert s.ins == 2

    def test_kitten_sitting(self):
        s = edit_distance("kitten", "sitting")
        assert s.distance == 3
        assert (s.subs, s.ins, s.dels) == (2, 1, 0)

    def test_small_exhaustive_against_oracle(self):
        strings = ["".join(p) for n in range(4) for p in product("ab", repeat=n)]
        for a in strings:
            for b in strings:
                assert edit_distance(a, b).distance == ed_oracle(a, b)

    def test_scripts_valid_small_exhaustive(self):
        strings = ["".join(p) for n in range(4) for p in product("ab", repeat=n)]
        for a in strings:
            for b in strings:
                assert_valid_script(edit_distance(a, b))

    def test_works_on_tuples(self):
        s = edit_distance((1, 2, 3), (1, 9, 3))
        assert s.distance == 1
        assert s.subs == 1

    @given(short_strings, short_strings)
    @settings(deadline=None, max_examples=100)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b).distance == edit_distance(b, a).distance

    @given(short_strings, short_strings, short_strings)
    @settings(deadline=None, max_examples=100)
    def test_triangle_inequality(self, a, b, c):
        ab = edit_distance(a, b).distance
        bc = edit_distance(b, c).distance
        ac = edit_distance(a, c).distance
        assert ac <= ab + bc

    @given(short_strings, short_strings)
    @settings(deadline=None, max_examples=100)
    def test_script_replay(self, a, b):
        assert_valid_script(edit_distance(a, b))


class TestRates:
    def test_cer_identity(self):
        assert cer(["abc", "d"], ["abc", "d"]) == 0.0

    def test_cer_one_sub(self):
        assert cer(["ab"], ["ax"]) == 0.5

    def test_cer_kitten(self):
        assert cer(["kitten"], ["sitting"]) == 0.5

    def test_cer_sums_over_pairs(self):
        assert cer(["ab", "cd"], ["ax", "cd"]) == 0.25

    def test_cer_length_mismatch(self):
        with pytest.raises(ValueError):
            cer(["ab"], ["ab", "cd"])

    def test_cer_empty_references(self):
        with pytest.raises(ValueError):
            cer([""], ["a"])

    @given(st.lists(st.tuples(short_strings.filter(len), short_strings), min_size=1, max_size=4))
    @settings(deadline=None, max_examples=100)
    def test_cer_of_scripts_matches_oracle(self, pairs):
        scripts = [edit_distance(r, h) for r, h in pairs]
        expected = sum(ed_oracle(r, h) for r, h in pairs) / sum(len(r) for r, _ in pairs)
        assert cer_of_scripts(scripts) == expected

    def test_cer_of_no_scripts_rejected(self):
        with pytest.raises(ValueError, match="no characters"):
            cer_of_scripts([])

    def test_wer_half(self):
        assert wer([["ab"], ["cd"]], [["ab"], ["ce"]]) == 0.5

    def test_wer_deletion(self):
        assert wer([["a", "b"]], [["a"]]) == 0.5

    def test_wer_identity(self):
        assert wer([["x", "y"]], [["x", "y"]]) == 0.0

    def test_crr(self):
        assert crr(["a", "b", "c", "d"], ["a", "b", "c", "x"]) == 0.75
        assert crr(["a"] * 10, ["a"] * 10) == 1.0
        # any other hypothesis, a longer or the empty one, is a miss
        assert crr(["a", "b"], ["a", "bc"]) == 0.5
        assert crr(["a"], [""]) == 0.0

    def test_crr_rejects_multichar(self):
        with pytest.raises(ValueError):
            crr(["ab"], ["ab"])

    def test_crr_rejects_empty(self):
        with pytest.raises(ValueError):
            crr([], [])


class TestErrorPositions:
    def test_no_errors(self):
        hists = error_positions([edit_distance("abc", "abc")], [3], 4)
        assert all(h.sum() == 0 for h in hists.values())

    def test_substitution_at_start(self):
        script = edit_distance("abcdefghij", "xbcdefghij")
        hists = error_positions([script], [10], 10)
        assert hists["mismatch"].tolist() == [1] + [0] * 9

    def test_kitten_sitting_bins(self):
        script = edit_distance("kitten", "sitting")
        hists = error_positions([script], [6], 2)
        assert hists["mismatch"].tolist() == [1, 1]
        assert hists["insert"].tolist() == [0, 1]
        assert hists["delete"].tolist() == [0, 0]

    def test_deletion_position(self):
        script = edit_distance("abcd", "abd")
        hists = error_positions([script], [4], 4)
        assert hists["delete"].tolist() == [0, 0, 1, 0]

    def test_bad_bins(self):
        with pytest.raises(ValueError):
            error_positions([], [], 0)


class TestConfusionMatrix:
    def test_all_matches_diagonal(self):
        ab = equations_alphabet()
        scripts = [edit_distance("123", "123")]
        mat = confusion_matrix(scripts, ab)
        assert mat[1, 1] == 1 and mat[2, 2] == 1 and mat[3, 3] == 1
        assert mat.sum() == 3

    def test_single_substitution(self):
        ab = equations_alphabet()
        mat = confusion_matrix([edit_distance("1", "2")], ab)
        assert mat[1, 2] == 1
        assert mat.sum() == 1

    def test_row_sums_conserved(self, rng):
        ab = equations_alphabet()
        syms = list(ab.symbols)
        refs = ["".join(rng.choice(syms, 5)) for _ in range(20)]
        hyps = ["".join(rng.choice(syms, rng.integers(3, 7))) for _ in range(20)]
        scripts = [edit_distance(r, h) for r, h in zip(refs, hyps)]
        mat = confusion_matrix(scripts, ab)
        covered = np.zeros(ab.size, dtype=int)
        for s in scripts:
            for kind, ref_pos, _ in s.ops:
                if kind in ("match", "substitute"):
                    covered[ab.encode(s.reference[ref_pos])] += 1
        assert mat.sum(axis=1).tolist() == covered.tolist()
