import json
import re

import numpy as np
import pytest

from penscript.dataio import (
    Alphabet,
    FoldPlan,
    RecordingFormatError,
    Sample,
    build_alphabet,
    equations_alphabet,
    label_entries,
    make_splits,
    parse_recording,
    write_recording,
)
from oracles import recording_rows_oracle, recording_text_oracle
from synth import make_writer_corpus


def make_recording(rows, channels=2, rate=100.0):
    lines = [f"channels:{channels},rate_hz:{rate:g}"]
    for t, row in enumerate(rows):
        lines.append(",".join([str(t)] + [repr(float(v)) for v in row]))
    return "\n".join(lines) + "\n"


def label_line(label, start, end, writer_id=0):
    return json.dumps({"label": label, "start": start, "end": end, "writer_id": writer_id})


class TestAlphabet:
    def test_equations_alphabet_order(self):
        ab = equations_alphabet()
        assert ab.size == 15
        assert ab.blank_index == 15
        assert ab.encode("0") == 0
        assert ab.encode("9") == 9
        assert ab.encode("+") == 10
        assert ab.encode("=") == 14
        assert ab.decode(12) == "·"

    def test_round_trip(self):
        ab = equations_alphabet()
        assert ab.decode_label(ab.encode_label("1+2=3")) == "1+2=3"

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            equations_alphabet().encode("a")

    def test_blank_not_decodable(self):
        ab = equations_alphabet()
        with pytest.raises(ValueError):
            ab.decode(ab.blank_index)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Alphabet("aa")

    def test_build_alphabet_sorted_by_codepoint(self):
        ab = build_alphabet(["ba", "ac"])
        assert ab.symbols == ("a", "b", "c")

    def test_build_alphabet_empty_errors(self):
        with pytest.raises(ValueError):
            build_alphabet([])
        with pytest.raises(ValueError):
            build_alphabet(["", ""])


class TestSample:
    def test_values_read_only(self):
        s = Sample(np.zeros((3, 2)), (0,), 0, 100.0)
        with pytest.raises(ValueError):
            s.values[0, 0] = 1.0

    def test_rejects_empty_label(self):
        with pytest.raises(ValueError):
            Sample(np.zeros((3, 2)), (), 0, 100.0)

    def test_rejects_non_finite(self):
        bad = np.zeros((3, 2))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError):
            Sample(bad, (0,), 0, 100.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Sample(np.zeros((3, 2)), (0,), 0, 0.0)


class TestParseRecording:
    def test_basic(self):
        raw = make_recording([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        labels = label_line("7", 0, 1, writer_id=4) + "\n" + label_line("8", 2, 2)
        samples = parse_recording(raw, labels)
        assert len(samples) == 2
        assert samples[0].values.shape == (2, 2)
        assert samples[0].label == (7,)
        assert samples[0].writer_id == 4
        assert samples[1].values.tolist() == [[5.0, 6.0]]
        assert samples[0].rate_hz == 100.0

    @pytest.mark.parametrize(
        "header, key",
        [
            ("channels:13,channels:2,rate_hz:100", "channels"),
            ("channels:2,rate_hz:100,rate_hz:50", "rate_hz"),
            ("rate_hz:100, channels:2,channels :2", "channels"),
        ],
        ids=["channels", "rate", "spaced"],
    )
    def test_repeated_header_field_rejected(self, header, key):
        raw = header + "\n0,1.0,2.0\n"
        with pytest.raises(RecordingFormatError, match=f"^header field '{key}' is repeated$"):
            parse_recording(raw, label_line("1", 0, 0))

    def test_missing_header(self):
        with pytest.raises(RecordingFormatError):
            parse_recording("", label_line("1", 0, 0))

    def test_wrong_field_count(self):
        raw = "channels:2,rate_hz:100\n0,1.0\n"
        with pytest.raises(RecordingFormatError, match="line 2"):
            parse_recording(raw, label_line("1", 0, 0))

    def test_non_numeric_field(self):
        raw = "channels:2,rate_hz:100\n0,1.0,x\n"
        with pytest.raises(RecordingFormatError, match="line 2"):
            parse_recording(raw, label_line("1", 0, 0))

    def test_non_finite_value(self):
        raw = "channels:2,rate_hz:100\n0,1.0,inf\n"
        with pytest.raises(ValueError, match="non-finite"):
            parse_recording(raw, label_line("1", 0, 0))

    def test_window_out_of_range(self):
        raw = make_recording([[1.0, 2.0]])
        with pytest.raises(ValueError, match="out of range"):
            parse_recording(raw, label_line("1", 0, 5))

    def test_malformed_label_json(self):
        raw = make_recording([[1.0, 2.0]])
        with pytest.raises(RecordingFormatError, match="labels line 1"):
            parse_recording(raw, "{not json")

    @pytest.mark.parametrize(
        "line, expected",
        [
            ("[1, 2]", "labels line 2 must be a JSON object, got list"),
            ('{"label": "1", "start": 0}', r"labels line 2 is missing the key\(s\) end, writer_id"),
            ("{not json", "labels line 2: not JSON: "),
            ('{"label": "1", "start": "x", "end": 0, "writer_id": 0}',
             "labels line 2: start must be an integer, got 'x'"),
            ('{"label": "1", "start": 0, "end": 0.9, "writer_id": 0}',
             "labels line 2: end must be an integer, got 0.9"),
            ('{"label": "1", "start": 0, "end": 0, "writer_id": true}',
             "labels line 2: writer_id must be an integer, got True"),
            ('{"label": "1", "start": 0, "end": 0, "writer_id": -1}',
             r"^labels line 2: writer_id must be in \[0, inf\), got -1$"),
        ],
        ids=["list", "missing-keys", "broken-json", "start-str", "end-float", "writer-bool", "writer-negative"],
    )
    def test_bad_label_line_is_named(self, line, expected):
        raw = make_recording([[1.0, 2.0]])
        with pytest.raises(RecordingFormatError, match=expected):
            parse_recording(raw, label_line("1", 0, 0) + "\n" + line)

    @pytest.mark.parametrize(
        "label, expected",
        [
            ("1a", "labels line 2: symbol 'a' is not in the alphabet"),
            ("", "labels line 2: label must be a non-empty string, got ''"),
            (None, "labels line 2: label must be a string, got None"),
            (12, "labels line 2: label must be a string, got 12"),
            (["1"], r"labels line 2: label must be a string, got \['1'\]"),
        ],
        ids=["unknown-symbol", "empty", "null", "number", "list"],
    )
    def test_bad_label_value_is_named(self, label, expected):
        raw = make_recording([[1.0, 2.0]])
        with pytest.raises(ValueError, match=f"^{expected}$"):
            parse_recording(raw, label_line("1", 0, 0) + "\n" + label_line(label, 0, 0))

    def test_label_entries_skips_blank_lines(self):
        text = label_line("1", 0, 0) + "\n\n" + label_line("2", 1, 1) + "\n"
        assert [(n, e["label"]) for n, e in label_entries(text)] == [(1, "1"), (3, "2")]

    def test_negative_force_rejected(self):
        rows = [[0.0] * 13, [0.0] * 12 + [-1.0]]
        raw = make_recording(rows, channels=13)
        with pytest.raises(ValueError, match="force"):
            parse_recording(raw, label_line("1", 0, 1))

    def test_custom_alphabet(self):
        raw = make_recording([[1.0, 2.0]])
        samples = parse_recording(raw, label_line("b", 0, 0), Alphabet("ab"))
        assert samples[0].label == (1,)


def rows_text(n, channels=2, bad=None, sep="\n", final_newline=True):
    """A recording of n rows with value t + c/8 in channel c; bad maps a row index to its line."""
    lines = [f"channels:{channels},rate_hz:100"]
    for t in range(n):
        line = ",".join([str(t)] + [repr(t + c / 8) for c in range(1, channels + 1)])
        lines.append((bad or {}).get(t, line))
    return sep.join(lines) + (sep if final_newline else "")


class TestParseMatchesOracle:
    """parse_recording against the original line-by-line reader in oracles.py."""

    @staticmethod
    def check(raw):
        try:
            expected = recording_rows_oracle(raw)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                parse_recording(raw, label_line("1", 0, 0))
            assert type(info.value) is type(exc)
            assert str(info.value) == str(exc)
            return str(exc)
        (sample,) = parse_recording(raw, label_line("1", 0, len(expected) - 1))
        assert sample.values.shape == expected.shape
        assert sample.values.tobytes() == expected.tobytes()
        return None

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 512, 1000])
    def test_good_rows_across_block_edges(self, n):
        assert self.check(rows_text(n, channels=13)) is None

    @pytest.mark.parametrize(
        "token, message",
        [
            ("x", "line 600: non-numeric field"),
            ("", "line 600: non-numeric field"),
            ("nan", "line 600: non-finite value"),
            ("inf", "line 600: non-finite value"),
            ("-inf", "line 600: non-finite value"),
        ],
    )
    def test_bad_value_past_the_first_block(self, token, message):
        raw = rows_text(1000, bad={598: f"598,1.0,{token}"})
        assert self.check(raw) == message

    @pytest.mark.parametrize("row", [3, 255, 300, 998])
    def test_extra_then_missing_field_keeps_token_count(self, row):
        raw = rows_text(1000, bad={row: f"{row},1.0,2.0,3.0", row + 1: f"{row + 1},1.0"})
        assert self.check(raw) == f"line {row + 2}: expected timestep + 2 channel fields, got 4"

    def test_first_bad_line_wins(self):
        raw = rows_text(1000, bad={700: "700,x,1.0", 400: "400,nan,1.0", 900: "900,1.0"})
        assert self.check(raw) == "line 402: non-finite value"

    def test_blank_lines_crlf_and_no_final_newline(self):
        body = ["0,1.0,2.0", "", "   ", "1,3.0,4.0", "\t", "2,5.0,6.0"] * 200
        for sep in ("\n", "\r\n"):
            for end in ("", sep):
                raw = sep.join(["channels:2,rate_hz:100", *body]) + end
                assert self.check(raw) is None
        raw = "\r\n".join(["channels:2,rate_hz:100", *body[:-1], "599,1.0,inf"])
        assert self.check(raw) == f"line {len(body) + 1}: non-finite value"

    def test_float_syntax_tokens(self):
        raw = "channels:4,rate_hz:100\n0, 1.5,+2,1e3,1_0\n1,-0.0,.5,1E-3 ,0x1\n"
        assert self.check(raw) == "line 3: non-numeric field"
        raw = "channels:4,rate_hz:100\n0, 1.5,+2,1e3,1_0\n1,-0.0,.5,1E-3 ,  7\n"
        assert self.check(raw) is None
        (sample,) = parse_recording(raw, label_line("1", 0, 1))
        assert sample.values[0].tolist() == [1.5, 2.0, 1000.0, 10.0]

    @pytest.mark.parametrize("body", ["", "\n", "\n  \n\t\n", "\r\n\r\n"])
    def test_only_blank_lines(self, body):
        assert self.check("channels:2,rate_hz:100\n" + body) == "recording has no data rows"


class TestWriteRecording:
    def test_round_trip_bit_exact(self, rng):
        values = rng.normal(0, 1, (5, 3))
        samples = [
            Sample(values[:3], (1, 10), 2, 200.0),
            Sample(values[3:], (14,), 5, 200.0),
        ]
        data_text, labels_text = write_recording(samples)
        back = parse_recording(data_text, labels_text)
        assert len(back) == 2
        for a, b in zip(samples, back):
            assert a.label == b.label
            assert a.writer_id == b.writer_id
            assert a.rate_hz == b.rate_hz
            assert np.array_equal(a.values, b.values)

    def test_bytes_match_the_per_value_writer(self, rng):
        special = [
            -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e-300, 1e300, -1e300,
            1.0, -3.0, 1e16, 2.0**53, 0.1 + 0.2, 1 / 3, 123456789.12345678,
        ]
        blocks = [
            np.array(special[:12]).reshape(4, 3),
            np.array(special[12:] + [7.0]).reshape(1, 3),
            rng.normal(0, 1, (300, 3)) * 10.0 ** rng.integers(-300, 300, (300, 3)),
        ]
        samples = [Sample(v, (i,), i, 100.0) for i, v in enumerate(blocks)]
        data_text, labels_text = write_recording(samples)
        assert data_text == recording_text_oracle(blocks, 100.0)
        for a, b in zip(samples, parse_recording(data_text, labels_text)):
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(np.signbit(a.values), np.signbit(b.values))

    @pytest.mark.parametrize(
        "rate, header",
        [
            (100.0, "rate_hz:100"),
            (200.5, "rate_hz:200.5"),
            (100.123456789, "rate_hz:100.123456789"),
            (1e7 + 0.5, "rate_hz:10000000.5"),
        ],
    )
    def test_rate_reads_back_exactly(self, rate, header):
        data_text, labels_text = write_recording([Sample(np.ones((2, 2)), (1,), 0, rate)])
        assert data_text.splitlines()[0] == f"channels:2,{header}"
        (back,) = parse_recording(data_text, labels_text)
        assert back.rate_hz == rate

    def test_inconsistent_samples_rejected(self):
        a = Sample(np.zeros((2, 2)), (0,), 0, 100.0)
        b = Sample(np.zeros((2, 3)), (0,), 0, 100.0)
        with pytest.raises(ValueError):
            write_recording([a, b])


class TestMakeSplits:
    def test_wd_per_writer_balance(self):
        samples = make_writer_corpus(writers=7, per_writer=11)
        plan = make_splits(samples, "WD", 4, seed=9)
        for train_idx, val_idx in plan.folds:
            assert sorted(train_idx + val_idx) == list(range(len(samples)))
            per_writer = {}
            for i in val_idx:
                per_writer[samples[i].writer_id] = per_writer.get(samples[i].writer_id, 0) + 1
            counts = [per_writer.get(w, 0) for w in range(7)]
            assert max(counts) - min(counts) <= 1

    def test_wd_validation_sets_partition(self):
        samples = make_writer_corpus(writers=5, per_writer=8)
        plan = make_splits(samples, "WD", 4, seed=1)
        seen = [i for _, val in plan.folds for i in val]
        assert sorted(seen) == list(range(len(samples)))

    def test_wi_writer_disjoint(self):
        samples = make_writer_corpus(writers=10, per_writer=6)
        plan = make_splits(samples, "WI", 3, seed=2)
        for train_idx, val_idx in plan.folds:
            train_writers = {samples[i].writer_id for i in train_idx}
            val_writers = {samples[i].writer_id for i in val_idx}
            assert not train_writers & val_writers
            assert train_writers | val_writers == set(range(10))

    def test_wd_k_is_bounded_by_the_largest_writer(self):
        # writer 0 holds 3 samples and writer 1 holds 1
        samples = make_writer_corpus(writers=2, per_writer=3)[:4]
        plan = make_splits(samples, "WD", 3, seed=0)
        assert all(val for _, val in plan.folds)
        with pytest.raises(ValueError, match="^" + re.escape("WD split needs a writer with >= 4 samples, got at most 3") + "$"):
            make_splits(samples, "WD", 4, seed=0)

    def test_wi_needs_enough_writers(self):
        samples = make_writer_corpus(writers=2, per_writer=3)
        with pytest.raises(ValueError):
            make_splits(samples, "WI", 3, seed=0)

    def test_deterministic(self):
        samples = make_writer_corpus(writers=6, per_writer=5)
        a = make_splits(samples, "WD", 3, seed=42)
        b = make_splits(samples, "WD", 3, seed=42)
        assert a == b
        c = make_splits(samples, "WD", 3, seed=43)
        assert a != c

    def test_fold_plan_json_round_trip(self):
        samples = make_writer_corpus(writers=4, per_writer=4)
        plan = make_splits(samples, "WI", 2, seed=5)
        assert FoldPlan.from_dict(json.loads(plan.to_json())) == plan

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p.pop("k"), "fold plan is missing the key(s) k"),
            (lambda p: p.update(k="2"), "fold plan: k must be an integer, got '2'"),
            (lambda p: p.update(seed=5.5), "fold plan: seed must be an integer, got 5.5"),
            (lambda p: p.update(folds={}), "fold plan: folds must be a list, got {}"),
            (lambda p: p["folds"][1].pop("train"), "fold plan fold 1 is missing the key(s) train"),
            (lambda p: p["folds"].append([0, 1]), "fold plan fold 2 must be a JSON object, got list"),
            (lambda p: p["folds"][0]["val"].insert(0, True), "fold plan fold 0: val[0] must be an integer, got True"),
            (lambda p: p["folds"][0].update(train=3), "fold plan fold 0: train must be a list of integers, got 3"),
        ],
        ids=["no-k", "k-str", "seed-float", "folds-dict", "no-train", "fold-list", "index-bool", "train-int"],
    )
    def test_fold_plan_names_a_bad_entry(self, edit, message):
        plan = make_splits(make_writer_corpus(writers=4, per_writer=2), "WI", 2, seed=5).to_dict()
        edit(plan)
        with pytest.raises(ValueError, match=re.escape(message)):
            FoldPlan.from_dict(plan)

    def test_bad_mode(self):
        samples = make_writer_corpus(writers=2, per_writer=2)
        with pytest.raises(ValueError):
            make_splits(samples, "XX", 2, seed=0)
