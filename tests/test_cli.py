import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from penscript import cli
from penscript.cli import main
from penscript.dataio import Sample, equations_alphabet, parse_recording, write_recording
from penscript.losses import LossParams
from penscript.netcore import load_checkpoint, save_checkpoint
from penscript.seeding import stream
from synth import make_equation_sample

ALPHABET = equations_alphabet()


def write_dataset(tmp_path, samples, stem="ds"):
    data_text, labels_text = write_recording(samples, ALPHABET)
    data = tmp_path / f"{stem}.csv"
    labels = tmp_path / f"{stem}.jsonl"
    data.write_text(data_text, encoding="utf-8")
    labels.write_text(labels_text, encoding="utf-8")
    return str(data), str(labels)


def char_samples(rng, n=8, t_len=12, channels=3):
    out = []
    for i in range(n):
        values = rng.normal(0, 1, (t_len, channels))
        if channels == 13:
            values[:, 12] = np.abs(values[:, 12])  # force is non-negative
        label = (int(rng.integers(4)),)
        out.append(Sample(values, label, writer_id=i % 3, rate_hz=100.0))
    return out


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def checkpoint_header(path):
    with open(path, "rb") as f:
        return json.loads(f.readline())


class TestIngest:
    def test_summary(self, tmp_path, capsys, rng):
        data, labels = write_dataset(tmp_path, char_samples(rng, n=3))
        code, out, _ = run(
            capsys, ["ingest", "--data", data, "--labels", labels, "--out", str(tmp_path / "o")]
        )
        assert code == 0
        report = json.loads(out)
        assert report["samples"] == 3
        assert report["writers"] == 3
        assert sum(report["class_histogram"].values()) == 3
        assert (tmp_path / "o" / "data.csv").exists()
        assert (tmp_path / "o" / "labels.jsonl").exists()

    def test_round_trips_through_written_copy(self, tmp_path, capsys, rng):
        data, labels = write_dataset(tmp_path, char_samples(rng, n=3))
        run(capsys, ["ingest", "--data", data, "--labels", labels, "--out", str(tmp_path / "o")])
        first = (tmp_path / "o" / "data.csv").read_text()
        code, _, _ = run(
            capsys,
            [
                "ingest",
                "--data", str(tmp_path / "o" / "data.csv"),
                "--labels", str(tmp_path / "o" / "labels.jsonl"),
                "--out", str(tmp_path / "o2"),
            ],
        )
        assert code == 0
        assert (tmp_path / "o2" / "data.csv").read_text() == first

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        code, out, err = run(
            capsys,
            ["ingest", "--data", str(tmp_path / "nope.csv"), "--labels", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")],
        )
        assert code == 1
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize("alphabet", ["equations", "auto"])
    @pytest.mark.parametrize(
        "bad_line, expected",
        [
            pytest.param("[1, 2]", "labels line 2 must be a JSON object, got list", id="list"),
            pytest.param('{"start": 0, "end": 0, "writer_id": 0}', "labels line 2 is missing the key(s) label", id="no-label"),
            pytest.param('{"label": "1", "start": 0,', "labels line 2: not JSON: ", id="broken-json"),
            pytest.param(
                '{"label": "1", "start": "x", "end": 0, "writer_id": 0}',
                "start must be an integer, got 'x'",
                id="start-str",
            ),
            pytest.param(
                '{"label": "1", "start": 0, "end": 20.9, "writer_id": 0}',
                "end must be an integer, got 20.9",
                id="end-float",
            ),
            pytest.param(
                '{"label": 12, "start": 0, "end": 0, "writer_id": 0}',
                "label must be a string, got 12",
                id="label-number",
            ),
            pytest.param(
                '{"label": null, "start": 0, "end": 0, "writer_id": 0}',
                "label must be a string, got None",
                id="label-null",
            ),
        ],
    )
    def test_bad_labels_line_names_the_line(self, tmp_path, capsys, rng, alphabet, bad_line, expected):
        data, labels = write_dataset(tmp_path, char_samples(rng, n=3))
        lines = (tmp_path / "ds.jsonl").read_text(encoding="utf-8").splitlines()
        lines[1] = bad_line
        (tmp_path / "ds.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run(
            capsys,
            ["ingest", "--data", data, "--labels", labels, "--alphabet", alphabet, "--out", str(tmp_path / "o")],
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: labels line 2")
        assert expected in err


class TestSplit:
    def test_writes_plan(self, tmp_path, capsys, rng):
        samples = char_samples(rng, n=12)
        data, labels = write_dataset(tmp_path, samples)
        code, out, _ = run(
            capsys,
            ["--seed", "5", "split", "--data", data, "--labels", labels, "--mode", "WD", "--k", "3", "--out", str(tmp_path / "o")],
        )
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "WD"
        assert report["k"] == 3
        plan = json.loads((tmp_path / "o" / "folds.json").read_text())
        assert plan["mode"] == "WD"
        assert len(plan["folds"]) == 3

    def test_wi_needs_enough_writers(self, tmp_path, capsys, rng):
        samples = [
            Sample(rng.normal(0, 1, (6, 2)), (0,), writer_id=0, rate_hz=50.0)
            for _ in range(4)
        ]
        data, labels = write_dataset(tmp_path, samples)
        code, _, err = run(
            capsys,
            ["split", "--data", data, "--labels", labels, "--mode", "WI", "--k", "3", "--out", str(tmp_path / "o")],
        )
        assert code == 1
        assert "error:" in err


class TestAugment:
    def test_same_seed_same_hash(self, tmp_path, capsys, rng):
        data, labels = write_dataset(tmp_path, char_samples(rng, n=4, channels=13))
        argv = [
            "--seed", "11", "augment", "--data", data, "--labels", labels,
            "--methods", "scale,jitter", "--out", str(tmp_path / "o"),
        ]
        code, out1, _ = run(capsys, argv)
        assert code == 0
        code, out2, _ = run(capsys, argv)
        assert json.loads(out1)["sha256"] == json.loads(out2)["sha256"]
        written = (tmp_path / "o" / "data.csv").read_text(encoding="utf-8")
        assert hashlib.sha256(written.encode()).hexdigest() == json.loads(out1)["sha256"]

    def test_seed_changes_output(self, tmp_path, capsys, rng):
        data, labels = write_dataset(tmp_path, char_samples(rng, n=4, channels=13))
        base = ["augment", "--data", data, "--labels", labels, "--methods", "scale,jitter", "--out", str(tmp_path / "o")]
        _, out1, _ = run(capsys, ["--seed", "1"] + base)
        _, out2, _ = run(capsys, ["--seed", "2"] + base)
        assert json.loads(out1)["sha256"] != json.loads(out2)["sha256"]

    def test_no_seed_collision_across_samples(self, tmp_path, capsys, rng):
        # seed 7 / sample 1 must not replay seed 8 / sample 0
        sample = char_samples(rng, n=1, channels=13)[0]
        pair = write_dataset(tmp_path, [sample, sample], stem="pair")
        single = write_dataset(tmp_path, [sample], stem="single")
        augmented = []
        for seed, (data, labels) in ((7, pair), (8, single)):
            out = tmp_path / f"o{seed}"
            argv = ["--seed", str(seed), "augment", "--data", data, "--labels", labels,
                    "--methods", "scale,shift,jitter", "--out", str(out)]
            assert run(capsys, argv)[0] == 0
            augmented.append(parse_recording(
                (out / "data.csv").read_text(encoding="utf-8"),
                (out / "labels.jsonl").read_text(encoding="utf-8"),
            ))
        assert not np.array_equal(augmented[0][1].values, augmented[1][0].values)

    def test_unknown_method_fails(self, tmp_path, capsys, rng):
        data, labels = write_dataset(tmp_path, char_samples(rng, n=2))
        code, _, err = run(
            capsys,
            ["augment", "--data", data, "--labels", labels, "--methods", "blur", "--out", str(tmp_path / "o")],
        )
        assert code == 1
        assert "error:" in err

    def test_config_negative_sigma_names_the_field(self, tmp_path, capsys, rng):
        data, labels = write_dataset(tmp_path, char_samples(rng, n=2, channels=13))
        cfg = write_config(tmp_path, {"augment": {"scale_sigma": -0.1}})
        out = tmp_path / "o"
        argv = ["augment", "--data", data, "--labels", labels, "--config", cfg, "--out", str(out)]
        code, stdout, err = run(capsys, argv)
        assert code == 1
        assert stdout == ""
        assert err == "error: scale_sigma must be in [0, inf), got -0.1\n"
        assert not out.exists()

    def test_config_p_apply_zero_leaves_data_unchanged(self, tmp_path, capsys, rng):
        data, labels = write_dataset(tmp_path, char_samples(rng, n=3, channels=13))
        cfg = write_config(tmp_path, {"augment": {"p_apply": 0}})
        argv = ["augment", "--data", data, "--labels", labels, "--config", cfg]
        assert run(capsys, ["--seed", "4"] + argv + ["--out", str(tmp_path / "a")])[0] == 0
        argv = ["ingest", "--data", data, "--labels", labels, "--out", str(tmp_path / "i")]
        assert run(capsys, argv)[0] == 0
        augmented = (tmp_path / "a" / "data.csv").read_bytes()
        assert augmented == (tmp_path / "i" / "data.csv").read_bytes()


class TestSegment:
    def test_manifest_and_pieces(self, tmp_path, capsys):
        eq1, _ = make_equation_sample("1+2", (1, 2, 1))
        eq2, _ = make_equation_sample("47", (1, 2))
        data, labels = write_dataset(tmp_path, [eq1, eq2])
        code, out, _ = run(
            capsys,
            ["segment", "--data", data, "--labels", labels, "--min-len", "2", "--out", str(tmp_path / "o")],
        )
        assert code == 0
        report = json.loads(out)
        assert report["equations"] == 2
        assert report["characters"] == 5
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest[0]["label"] == "1+2"
        assert manifest[0]["assignment"] == [1, 2, 1]
        assert manifest[0]["ambiguous"] is False
        assert manifest[1]["label"] == "47"
        assert manifest[1]["assignment"] == [1, 2]
        assert manifest[1]["ambiguous"] is True
        assert (tmp_path / "o" / "sample0000.csv").exists()
        assert (tmp_path / "o" / "sample0001.jsonl").exists()

    def test_recording_without_the_force_channel_fails_cleanly(self, tmp_path, capsys, rng):
        data, labels = write_dataset(tmp_path, char_samples(rng, n=2))
        code, out, err = run(
            capsys, ["segment", "--data", data, "--labels", labels, "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert out == ""
        assert err == "error: force_channel 12 out of range for 3 channels\n"
        assert not (tmp_path / "o").exists()

    def test_symbol_without_stroke_constraints_fails_cleanly(self, tmp_path, capsys):
        eq, _ = make_equation_sample("12", (1, 1))
        data, labels = write_dataset(tmp_path, [eq])
        Path(labels).write_text(Path(labels).read_text().replace('"12"', '"ab"'), encoding="utf-8")
        code, out, err = run(
            capsys,
            ["segment", "--data", data, "--labels", labels, "--alphabet", "auto", "--out", str(tmp_path / "o")],
        )
        assert code == 1
        assert out == ""
        assert err == "error: no stroke constraints for symbols ['a', 'b']\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "equations, threshold, message",
        [
            ([("1+2", (1, 2, 1))], "100", "no strokes detected for label '1+2'"),
            ([("1+2", (1, 2, 1)), ("1", (3,))], "0.02", "3 strokes cannot be assigned to label '1'"),
        ],
        ids=["no-stroke", "second-recording"],
    )
    def test_failed_split_writes_nothing(self, tmp_path, capsys, equations, threshold, message):
        data, labels = write_dataset(tmp_path, [make_equation_sample(*eq)[0] for eq in equations])
        code, out, err = run(
            capsys,
            ["segment", "--data", data, "--labels", labels, "--threshold", threshold, "--out", str(tmp_path / "o")],
        )
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_threshold_is_named(self, tmp_path, capsys, threshold):
        eq, _ = make_equation_sample("1+2", (1, 2, 1))
        data, labels = write_dataset(tmp_path, [eq])
        code, out, err = run(
            capsys,
            ["segment", "--data", data, "--labels", labels, "--threshold", threshold, "--out", str(tmp_path / "o")],
        )
        assert code == 1
        assert out == ""
        assert err == f"error: threshold must be a finite positive number, got {float(threshold)!r}\n"
        assert not (tmp_path / "o").exists()


EQUATIONS = list(equations_alphabet().symbols)

TRAIN_FLAGS = [
    "--filters", "4", "--kernel", "2", "--pool", "2",
    "--recurrent", "LSTM", "--units", "3", "--dropout", "0.0",
    "--target-len", "12", "--batch-size", "4", "--lr", "0.01",
]


class TestTrain:
    def test_tiny_run_writes_history_and_checkpoint(self, tmp_path, capsys, rng):
        data, labels = write_dataset(tmp_path, char_samples(rng))
        code, out, _ = run(
            capsys,
            ["--seed", "3", "train", "--data", data, "--labels", labels, "--loss", "cce", "--epochs", "1", "--out", str(tmp_path / "o")] + TRAIN_FLAGS,
        )
        assert code == 0
        report = json.loads(out)
        assert report["epochs"] == 1
        lines = (tmp_path / "o" / "history.jsonl").read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["epoch"] == 0
        assert (tmp_path / "o" / "model.ckpt").exists()

    def test_same_seed_byte_identical(self, tmp_path, capsys, rng):
        data, labels = write_dataset(tmp_path, char_samples(rng))
        argv = ["--seed", "3", "train", "--data", data, "--labels", labels, "--loss", "cce", "--epochs", "2"] + TRAIN_FLAGS
        run(capsys, argv + ["--out", str(tmp_path / "a")])
        run(capsys, argv + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "history.jsonl").read_bytes() == (tmp_path / "b" / "history.jsonl").read_bytes()
        assert (tmp_path / "a" / "model.ckpt").read_bytes() == (tmp_path / "b" / "model.ckpt").read_bytes()

    def test_resume_advances_epoch_count(self, tmp_path, capsys, rng):
        data, labels = write_dataset(tmp_path, char_samples(rng))
        base = ["--seed", "3", "train", "--data", data, "--labels", labels, "--loss", "cce", "--epochs", "1"] + TRAIN_FLAGS
        run(capsys, base + ["--out", str(tmp_path / "a")])
        code, _, _ = run(
            capsys,
            base + ["--resume", str(tmp_path / "a" / "model.ckpt"), "--out", str(tmp_path / "b")],
        )
        assert code == 0
        header = json.loads(
            (tmp_path / "b" / "model.ckpt").read_bytes().split(b"\n", 1)[0]
        )
        assert header["epochs_completed"] == 2

    def test_failed_loss_names_epoch_batch_and_rows(self, tmp_path, capsys, rng):
        data, labels = write_dataset(tmp_path, char_samples(rng))
        base = ["--seed", "3", "train", "--data", data, "--labels", labels, "--loss", "cce", "--epochs", "1"] + TRAIN_FLAGS
        run(capsys, base + ["--out", str(tmp_path / "a")])
        ckpt = str(tmp_path / "a" / "model.ckpt")
        model, header = load_checkpoint(ckpt)
        # finite weights whose product overflows: every head logit is inf
        model.char_hidden.b.data[...] = 1e308
        model.head.w.data[...] = 1e308
        save_checkpoint(ckpt, model, extra={k: header[k] for k in ("train", "alphabet")})
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run(capsys, base + ["--resume", ckpt, "--out", str(tmp_path / "b")])
        assert code == 1
        assert out == ""
        rows = stream(3, 1).permutation(8)[:4].tolist()  # fold: every recording, batch 4
        assert err == (
            f"error: epoch 0, batch 0 (dataset indices {rows}): logits contain non-finite values\n"
        )

    @pytest.mark.parametrize(
        "change, message",
        [
            (["--filters", "9"], "conv_filters = 4, but this run asks for 9"),
            ({"model": {"dense_units": 7}}, "dense_units = 100, but this run asks for 7"),
            (["--loss", "ctc"], "task = 'char', but this run asks for 'seq2seq' (loss 'ctc')"),
        ],
        ids=["flag", "config", "loss"],
    )
    def test_resume_rejects_conflicting_model_setting(self, tmp_path, capsys, rng, change, message):
        data, labels = write_dataset(tmp_path, char_samples(rng))
        base = ["train", "--data", data, "--labels", labels, "--loss", "cce", "--epochs", "1"] + TRAIN_FLAGS
        assert run(capsys, base + ["--out", str(tmp_path / "a")])[0] == 0
        if isinstance(change, dict):
            change = ["--config", write_config(tmp_path, change)]
        code, out, err = run(
            capsys,
            base + change + ["--resume", str(tmp_path / "a" / "model.ckpt"), "--out", str(tmp_path / "b")],
        )
        assert code == 1
        assert out == ""
        assert err == f"error: the model to continue has {message}\n"
        assert not (tmp_path / "b").exists()

    def test_resume_without_model_settings_keeps_the_checkpoint_model(self, tmp_path, capsys, rng):
        data, labels = write_dataset(tmp_path, char_samples(rng))
        base = ["train", "--data", data, "--labels", labels, "--loss", "cce", "--epochs", "1"]
        assert run(capsys, base + TRAIN_FLAGS + ["--out", str(tmp_path / "a")])[0] == 0
        code, _, err = run(
            capsys,
            base + ["--target-len", "12", "--resume", str(tmp_path / "a" / "model.ckpt"), "--out", str(tmp_path / "b")],
        )
        assert (code, err) == (0, "")
        saved = checkpoint_header(tmp_path / "a" / "model.ckpt")["model"]
        assert checkpoint_header(tmp_path / "b" / "model.ckpt")["model"] == saved

    def test_fold_plan_drives_validation(self, tmp_path, capsys, rng):
        samples = char_samples(rng, n=9)
        data, labels = write_dataset(tmp_path, samples)
        run(
            capsys,
            ["--seed", "1", "split", "--data", data, "--labels", labels, "--mode", "WD", "--k", "3", "--out", str(tmp_path / "s")],
        )
        code, out, _ = run(
            capsys,
            ["--seed", "1", "train", "--data", data, "--labels", labels, "--loss", "cce", "--epochs", "1", "--folds", str(tmp_path / "s" / "folds.json"), "--fold", "1", "--out", str(tmp_path / "o")] + TRAIN_FLAGS,
        )
        assert code == 0
        assert "crr" in json.loads(out)["final"]

    def wi_plan(self, tmp_path, capsys, rng):
        """A 6-recording dataset and its 3-fold writer-independent plan."""
        data, labels = write_dataset(tmp_path, char_samples(rng, n=6))
        argv = ["split", "--data", data, "--labels", labels, "--mode", "WI", "--k", "3"]
        assert run(capsys, argv + ["--out", str(tmp_path / "s")])[0] == 0
        return data, labels, tmp_path / "s" / "folds.json"

    @pytest.mark.parametrize("fold", ["7", "-1", "3"])
    def test_fold_outside_the_plan_is_rejected(self, tmp_path, capsys, rng, fold):
        data, labels, plan = self.wi_plan(tmp_path, capsys, rng)
        code, out, err = run(
            capsys,
            ["train", "--data", data, "--labels", labels, "--loss", "cce", "--epochs", "1", "--folds", str(plan), "--fold", fold, "--out", str(tmp_path / "o")] + TRAIN_FLAGS,
        )
        assert code == 1
        assert out == ""
        assert f"error: --fold {fold} is outside the plan's folds 0..2" in err

    def test_fold_without_a_plan_is_rejected(self, tmp_path, capsys, rng):
        data, labels = write_dataset(tmp_path, char_samples(rng))
        code, out, err = run(
            capsys,
            ["train", "--data", data, "--labels", labels, "--loss", "cce", "--epochs", "1", "--fold", "2", "--out", str(tmp_path / "o")] + TRAIN_FLAGS,
        )
        assert code == 1
        assert out == ""
        assert "--fold needs a fold plan from --folds" in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p["folds"][0]["val"].append(99), "fold index 99 is out of range for 6 samples"),
            (lambda p: p["folds"][0]["train"].append(-1), "fold index -1 is out of range for 6 samples"),
            (lambda p: p.pop("folds"), "fold plan {plan} is missing the key(s) folds"),
            (lambda p: p["folds"][0]["train"].insert(0, 1.5), "fold plan {plan} fold 0: train[0] must be an integer, got 1.5"),
            (lambda p: p["folds"][0].update(val=[2, True]), "error: fold plan {plan} fold 0: val[1] must be an integer, got True\n"),
        ],
        ids=["index-99", "index-negative", "no-folds", "index-float", "index-bool"],
    )
    def test_bad_fold_plan_is_named(self, tmp_path, capsys, rng, edit, message):
        data, labels, plan_path = self.wi_plan(tmp_path, capsys, rng)
        plan = json.loads(plan_path.read_text())
        edit(plan)
        plan_path.write_text(json.dumps(plan))
        code, out, err = run(
            capsys,
            ["train", "--data", data, "--labels", labels, "--loss", "cce", "--epochs", "1", "--folds", str(plan_path), "--fold", "0", "--out", str(tmp_path / "o")] + TRAIN_FLAGS,
        )
        assert code == 1
        assert out == ""
        assert message.format(plan=plan_path) in err

    @pytest.mark.parametrize("text", ["[1", "", "{'k': 3}"], ids=["truncated", "empty", "quotes"])
    def test_fold_plan_that_is_not_json_names_the_file(self, tmp_path, capsys, rng, text):
        data, labels = write_dataset(tmp_path, char_samples(rng, n=6))
        plan = tmp_path / "f.json"
        plan.write_text(text, encoding="utf-8")
        out_dir = tmp_path / "o"
        code, out, err = run(
            capsys,
            ["train", "--data", data, "--labels", labels, "--loss", "cce", "--epochs", "1", "--folds", str(plan), "--out", str(out_dir)] + TRAIN_FLAGS,
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: fold plan {plan}: not JSON: ")
        assert not out_dir.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf", "-0.5"])
    def test_bad_learning_rate_fails_before_training(self, tmp_path, capsys, rng, lr):
        data, labels = write_dataset(tmp_path, char_samples(rng))
        out_dir = tmp_path / "o"
        code, out, err = run(
            capsys,
            ["train", "--data", data, "--labels", labels, "--loss", "cce", "--epochs", "1", "--out", str(out_dir)] + TRAIN_FLAGS + ["--lr", lr],
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: learning_rate must be in (0, inf), got ")
        assert not out_dir.exists()

    def test_units_size_the_default_bilstm(self, tmp_path, capsys, rng):
        data, labels = write_dataset(tmp_path, char_samples(rng))
        code, _, _ = run(
            capsys,
            ["train", "--data", data, "--labels", labels, "--loss", "cce", "--epochs", "1", "--filters", "4", "--kernel", "2", "--units", "5", "--target-len", "12", "--out", str(tmp_path / "o")],
        )
        assert code == 0
        header = checkpoint_header(tmp_path / "o" / "model.ckpt")
        shapes = {a["name"]: a["shape"] for a in header["arrays"]}
        assert shapes["recurrent0.fwd.wh"] == [5, 20]
        assert (header["model"]["bilstm_units"], header["model"]["lstm_units"]) == (5, 100)

    @pytest.mark.parametrize(
        "first, units, message",
        [
            (["--recurrent", "LSTM", "--units", "3"], "3", None),
            (["--units", "5"], "5", None),
            (["--units", "5"], "7", "bilstm_units = 5, but this run asks for 7"),
        ],
        ids=["lstm-same", "bilstm-same", "bilstm-other"],
    )
    def test_resume_units_follow_the_checkpoint_kind(self, tmp_path, capsys, rng, first, units, message):
        data, labels = write_dataset(tmp_path, char_samples(rng))
        base = ["train", "--data", data, "--labels", labels, "--loss", "cce", "--epochs", "1", "--filters", "4", "--kernel", "2", "--target-len", "12"]
        assert run(capsys, base + first + ["--out", str(tmp_path / "a")])[0] == 0
        code, _, err = run(
            capsys,
            base + ["--units", units, "--resume", str(tmp_path / "a" / "model.ckpt"), "--out", str(tmp_path / "b")],
        )
        if message is None:
            assert code == 0
        else:
            assert code == 1
            assert message in err

    def test_resume_rejects_another_alphabet(self, tmp_path, capsys, rng):
        samples = [
            Sample(rng.normal(0, 1, (12, 3)), (i,), writer_id=i, rate_hz=100.0) for i in range(7)
        ]
        data, labels = write_dataset(tmp_path, samples)
        base = ["train", "--data", data, "--labels", labels, "--loss", "cce", "--epochs", "1"] + TRAIN_FLAGS
        assert run(capsys, base + ["--out", str(tmp_path / "a")])[0] == 0
        code, out, err = run(
            capsys,
            base + ["--alphabet", "auto", "--resume", str(tmp_path / "a" / "model.ckpt"), "--out", str(tmp_path / "b")],
        )
        assert code == 1
        assert out == ""
        assert "the checkpoint's alphabet is ['0', '1', '2', '3', '4', '5', '6', '7', '8', '9', '+'" in err
        assert "this dataset's is ['0', '1', '2', '3', '4', '5', '6']" in err
        assert not (tmp_path / "b" / "model.ckpt").exists()

    def test_ctc_training(self, tmp_path, capsys, rng):
        samples = []
        for i in range(6):
            values = rng.normal(0, 1, (16, 3))
            label = tuple(int(v) for v in rng.integers(0, 4, 2))
            samples.append(Sample(values, label, writer_id=i, rate_hz=100.0))
        data, labels = write_dataset(tmp_path, samples)
        code, out, _ = run(
            capsys,
            ["--seed", "2", "train", "--data", data, "--labels", labels, "--loss", "ctc", "--epochs", "1", "--target-len", "16", "--filters", "4", "--kernel", "2", "--pool", "2", "--recurrent", "LSTM", "--units", "3", "--dropout", "0.0", "--batch-size", "6", "--out", str(tmp_path / "o")],
        )
        assert code == 0
        assert json.loads(out)["epochs"] == 1

    def test_config_sections_reach_checkpoint_and_flags_override(self, tmp_path, capsys, rng):
        data, labels = write_dataset(tmp_path, char_samples(rng))
        cfg = write_config(tmp_path, {
            "model": {
                "conv_filters": 5, "conv_kernel": 2, "recurrent_kind": "LSTM",
                "lstm_units": 3, "dropout_rate": 0.0, "use_batchnorm": False,
            },
            "train": {"epochs": 3, "target_len": 12, "batch_size": 4, "adam_eps": 1e-6},
        })
        argv = ["train", "--data", data, "--labels", labels, "--loss", "cce", "--config", cfg,
                "--epochs", "1", "--kernel", "3", "--out", str(tmp_path / "o")]
        assert run(capsys, argv)[0] == 0
        header = checkpoint_header(tmp_path / "o" / "model.ckpt")
        model = header["model"]
        assert (model["conv_filters"], model["lstm_units"]) == (5, 3)
        assert model["recurrent_kind"] == "LSTM"
        assert model["use_batchnorm"] is False
        assert model["conv_kernel"] == 3
        assert header["train"]["adam_eps"] == 1e-6
        assert header["train"]["target_len"] == 12
        assert header["train"]["epochs"] == 1
        assert header["epochs_completed"] == 1

    def test_config_loss_section_reaches_training(self, tmp_path, capsys, rng):
        data, labels = write_dataset(tmp_path, char_samples(rng))
        cfg = write_config(tmp_path, {"loss": {"fl_gamma": 0}})
        argv = ["train", "--data", data, "--labels", labels, "--loss", "focal",
                "--epochs", "1"] + TRAIN_FLAGS
        assert run(capsys, argv + ["--out", str(tmp_path / "a")])[0] == 0
        assert run(capsys, argv + ["--config", cfg, "--out", str(tmp_path / "b")])[0] == 0
        losses = [
            json.loads((tmp_path / d / "history.jsonl").read_text())["train_loss"]
            for d in ("a", "b")
        ]
        assert losses[0] != losses[1]
        headers = [checkpoint_header(tmp_path / d / "model.ckpt") for d in ("a", "b")]
        assert headers[0]["loss_params"] == LossParams().to_dict()
        assert headers[1]["loss_params"] == LossParams(fl_gamma=0.0).to_dict()

    def test_character_loss_on_a_multi_symbol_label_fails(self, tmp_path, capsys, rng):
        samples = char_samples(rng, n=4)
        samples[2] = Sample(samples[2].values, (1, 2, 3), writer_id=0, rate_hz=100.0)
        data, labels = write_dataset(tmp_path, samples)
        out_dir = tmp_path / "o"
        code, out, err = run(
            capsys,
            ["train", "--data", data, "--labels", labels, "--loss", "cce", "--epochs", "1", "--out", str(out_dir)] + TRAIN_FLAGS,
        )
        assert code == 1
        assert out == ""
        assert err == "error: dataset index 2: a character loss needs a one-symbol label, got 3 symbols\n"
        assert not out_dir.exists()

    def test_missing_epochs_fails(self, tmp_path, capsys, rng):
        data, labels = write_dataset(tmp_path, char_samples(rng))
        code, _, err = run(
            capsys,
            ["train", "--data", data, "--labels", labels, "--loss", "cce", "--out", str(tmp_path / "o")],
        )
        assert code == 1
        assert "epochs" in err


class TestConfigFile:
    @pytest.mark.parametrize(
        "command, cfg, expected",
        [
            pytest.param("train", {"loss": []}, ["'loss'", "list"], id="loss-list"),
            pytest.param("train", {"model": []}, ["'model'", "list"], id="model-list"),
            pytest.param("train", {"model": "abc"}, ["'model'", "str"], id="model-str"),
            pytest.param("train", {"train": 3}, ["'train'", "int"], id="train-int"),
            pytest.param(
                "train", {"model": {"conv_filters": None}},
                ["ModelConfig: conv_filters", "integer"], id="int-null",
            ),
            pytest.param(
                "train", {"model": {"use_batchnorm": "no"}},
                ["ModelConfig: use_batchnorm", "true or false"], id="bool-str",
            ),
            pytest.param(
                "train", {"train": {"batch_size": True}},
                ["TrainConfig: batch_size", "integer"], id="int-bool",
            ),
            pytest.param(
                "train", {"train": {"adam_eps": "1e-8"}},
                ["TrainConfig: adam_eps", "number"], id="float-str",
            ),
            pytest.param(
                "train", {"loss": {"scale_free": 1}},
                ["LossParams: scale_free", "true or false"], id="bool-int",
            ),
            pytest.param("augment", {"augment": []}, ["'augment'", "list"], id="augment-list"),
            pytest.param(
                "augment", {"augment": {"p_apply": "x"}},
                ["AugmentConfig: p_apply", "number"], id="float-str-augment",
            ),
            pytest.param(
                "augment", {"augment": {"force_channel": 12.0}},
                ["AugmentConfig: force_channel", "integer"], id="int-float",
            ),
            pytest.param(
                "augment", {"augment": {"accelerometer_channels": [0, 1.5]}},
                ["AugmentConfig: accelerometer_channels[1]", "must be an integer, got 1.5"],
                id="int-list-float",
            ),
            # an int float() cannot hold would overflow once used as a number
            pytest.param(
                "train", {"train": {"learning_rate": int("1" * 400)}},
                ["TrainConfig: learning_rate must be a number, got " + "1" * 400], id="float-huge-int",
            ),
            pytest.param(
                "augment", {"augment": {"scale_sigma": int("1" * 400)}},
                ["AugmentConfig: scale_sigma must be a number, got " + "1" * 400],
                id="float-huge-int-augment",
            ),
        ],
    )
    def test_malformed_config_fails_cleanly(self, tmp_path, capsys, rng, command, cfg, expected):
        data, labels = write_dataset(tmp_path, char_samples(rng, channels=13))
        argv = [command, "--data", data, "--labels", labels,
                "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]
        if command == "train":
            argv += ["--loss", "cce", "--epochs", "1", "--target-len", "12"]
        code, _, err = run(capsys, argv)
        assert code == 1
        assert err.startswith("error:")
        assert err.count("\n") == 1
        for word in expected:
            assert word in err

    @pytest.mark.parametrize(
        "section, problem",
        [
            ({"learning_rate": float("nan")}, "learning_rate must be in (0, inf)"),
            ({"adam_eps": 0}, "adam_eps must be in (0, inf)"),
            ({"adam_eps": -1}, "adam_eps must be in (0, inf)"),
            ({"adam_beta1": 1.0}, "adam_beta1 must be in [0, 1)"),
            ({"adam_beta2": -0.5}, "adam_beta2 must be in [0, 1)"),
        ],
        ids=["lr-nan", "eps-zero", "eps-negative", "beta1-one", "beta2-negative"],
    )
    def test_bad_optimizer_setting_names_the_field(self, tmp_path, capsys, rng, section, problem):
        data, labels = write_dataset(tmp_path, char_samples(rng, channels=13))
        out = tmp_path / "o"
        argv = ["train", "--data", data, "--labels", labels, "--loss", "cce", "--epochs", "1",
                "--target-len", "12", "--out", str(out),
                "--config", write_config(tmp_path, {"train": section})]
        code, stdout, err = run(capsys, argv)
        assert code == 1
        assert stdout == ""
        assert err.startswith(f"error: {problem}, got ")
        assert not out.exists()

    @pytest.mark.parametrize("loss, field", [("focal", "fl_gamma"), ("ctc", "jo_beta")])
    def test_nan_loss_parameter_fails_before_any_batch(self, tmp_path, capsys, rng, loss, field):
        data, labels = write_dataset(tmp_path, char_samples(rng, channels=13))
        cfg = tmp_path / "c.json"
        cfg.write_text('{"loss": {"%s": NaN}}' % field, encoding="utf-8")
        out = tmp_path / "o"
        argv = ["train", "--data", data, "--labels", labels, "--loss", loss, "--epochs", "1",
                "--target-len", "12", "--config", str(cfg), "--out", str(out)]
        code, stdout, err = run(capsys, argv)
        assert code == 1
        assert stdout == ""
        assert err == f"error: {field} must be in [0, inf), got nan\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, message",
        [
            ({"train": {"batch_size": True}}, "{cfg}: TrainConfig: batch_size must be an integer, got True"),
            ({"train": {"batch": 4}}, "{cfg}: TrainConfig has unknown fields ['batch']"),
            ({"model": []}, "{cfg} section 'model' must be a JSON object, got list"),
        ],
        ids=["field", "unknown", "section"],
    )
    def test_train_config_shape_fault_names_the_file(self, tmp_path, capsys, rng, section, message):
        data, labels = write_dataset(tmp_path, char_samples(rng, channels=13))
        cfg = write_config(tmp_path, section)
        argv = ["train", "--data", data, "--labels", labels, "--loss", "cce", "--epochs", "1",
                "--target-len", "12", "--config", cfg, "--out", str(tmp_path / "o")]
        code, stdout, err = run(capsys, argv)
        assert code == 1
        assert stdout == ""
        assert err == "error: config " + message.format(cfg=cfg) + "\n"

    @pytest.mark.parametrize("command", ["train", "augment"])
    @pytest.mark.parametrize("text", ["{bad", "", "[1, 2"], ids=["bad-key", "empty", "truncated"])
    def test_config_that_is_not_json_names_the_file(self, tmp_path, capsys, rng, command, text):
        data, labels = write_dataset(tmp_path, char_samples(rng, channels=13))
        cfg = tmp_path / "c.json"
        cfg.write_text(text, encoding="utf-8")
        argv = [command, "--data", data, "--labels", labels, "--config", str(cfg),
                "--out", str(tmp_path / "o")]
        if command == "train":
            argv += ["--loss", "cce", "--epochs", "1", "--target-len", "12"]
        code, stdout, err = run(capsys, argv)
        assert code == 1
        assert stdout == ""
        assert err.startswith(f"error: config {cfg}: not JSON: ")

    def test_config_that_is_not_an_object_names_the_file(self, tmp_path, capsys, rng):
        data, labels = write_dataset(tmp_path, char_samples(rng, channels=13))
        cfg = write_config(tmp_path, [1, 2])
        argv = ["augment", "--data", data, "--labels", labels, "--config", cfg,
                "--out", str(tmp_path / "o")]
        code, stdout, err = run(capsys, argv)
        assert code == 1
        assert err == f"error: config {cfg} must be a JSON object, got list\n"

    @pytest.mark.parametrize("seed", [123, 0])
    def test_train_seed_in_config_is_rejected(self, tmp_path, capsys, rng, seed):
        data, labels = write_dataset(tmp_path, char_samples(rng, channels=13))
        out = tmp_path / "o"
        argv = ["train", "--data", data, "--labels", labels, "--loss", "cce", "--epochs", "1",
                "--target-len", "12", "--out", str(out),
                "--config", write_config(tmp_path, {"train": {"seed": seed}})]
        code, stdout, err = run(capsys, argv)
        assert code == 1
        assert stdout == ""
        assert err == "error: config key 'train.seed' is not read; set the seed with --seed\n"
        assert not out.exists()

    @pytest.mark.parametrize("classes", [20, 15, 5])
    def test_model_num_classes_in_config_is_rejected(self, tmp_path, capsys, rng, classes):
        data, labels = write_dataset(tmp_path, char_samples(rng))
        out = tmp_path / "o"
        argv = ["train", "--data", data, "--labels", labels, "--loss", "cce", "--epochs", "1",
                "--out", str(out), "--config", write_config(tmp_path, {"model": {"num_classes": classes}})]
        code, stdout, err = run(capsys, argv + TRAIN_FLAGS)
        assert code == 1
        assert stdout == ""
        assert err == (
            "error: config key 'model.num_classes' is not read; the alphabet sets the class count\n"
        )
        assert not out.exists()


class TestEvaluate:
    def test_identical_files_score_zero(self, tmp_path, capsys):
        refs = tmp_path / "refs.txt"
        hyps = tmp_path / "hyps.txt"
        refs.write_text("12+3\n4-1\n", encoding="utf-8")
        hyps.write_text("12+3\n4-1\n", encoding="utf-8")
        code, out, _ = run(capsys, ["evaluate", "--refs", str(refs), "--hyps", str(hyps)])
        assert code == 0
        report = json.loads(out)
        assert report["cer"] == 0.0
        assert report["wer"] == 0.0
        assert all(sum(v) == 0 for k, v in report["histograms"].items() if k != "match")

    def test_known_error_rates(self, tmp_path, capsys):
        refs = tmp_path / "refs.txt"
        hyps = tmp_path / "hyps.txt"
        refs.write_text("12\n34\n", encoding="utf-8")
        hyps.write_text("12\n35\n", encoding="utf-8")
        code, out, _ = run(capsys, ["evaluate", "--refs", str(refs), "--hyps", str(hyps), "--bins", "2"])
        assert code == 0
        report = json.loads(out)
        assert report["cer"] == 0.25
        assert report["wer"] == 0.5
        assert report["histograms"]["mismatch"] == [0, 1]

    def test_crr_only_for_single_chars(self, tmp_path, capsys):
        refs = tmp_path / "refs.txt"
        hyps = tmp_path / "hyps.txt"
        refs.write_text("1\n2\n3\n4\n", encoding="utf-8")
        hyps.write_text("1\n2\n3\n5\n", encoding="utf-8")
        _, out, _ = run(capsys, ["evaluate", "--refs", str(refs), "--hyps", str(hyps)])
        assert json.loads(out)["crr"] == 0.75

    def test_line_count_mismatch_fails(self, tmp_path, capsys):
        refs = tmp_path / "refs.txt"
        hyps = tmp_path / "hyps.txt"
        refs.write_text("1\n2\n", encoding="utf-8")
        hyps.write_text("1\n", encoding="utf-8")
        code, _, err = run(capsys, ["evaluate", "--refs", str(refs), "--hyps", str(hyps)])
        assert code == 1
        assert "error:" in err


SEQ_FLAGS = [
    "--target-len", "16", "--filters", "4", "--kernel", "2", "--pool", "2",
    "--recurrent", "LSTM", "--units", "3", "--dropout", "0.0",
]


def seq_samples(rng, n=4):
    return [
        Sample(rng.normal(0, 1, (16, 3)), tuple(int(v) for v in rng.integers(0, 4, 2)), writer_id=i, rate_hz=100.0)
        for i in range(n)
    ]


def train_seq2seq(capsys, tmp_path, data, labels):
    """A one-epoch ctc checkpoint on the dataset; returns its path."""
    run(
        capsys,
        ["--seed", "2", "train", "--data", data, "--labels", labels, "--loss", "ctc", "--epochs", "1", "--batch-size", "4", "--out", str(tmp_path / "o")] + SEQ_FLAGS,
    )
    return str(tmp_path / "o" / "model.ckpt")


RUN = {"alphabet": EQUATIONS, "train": {"target_len": 12}}  # the run fields decode needs

# (id, header run fields, the error after "checkpoint PATH", or None where
# the checkpoint loads, and whether only decode needs the field: train
# --resume takes the alphabet and target_len from its own dataset and flags)
_RUN_FIELDS = [
    ("library-saved", None, " header is missing the key(s) alphabet, train", True),
    ("no-alphabet", {"train": {"target_len": 12}}, " header is missing the key(s) alphabet", True),
    ("alphabet-str", {**RUN, "alphabet": "0123"}, " header: alphabet must be a list, got '0123'", False),
    ("alphabet-repeats", {**RUN, "alphabet": ["0", "0", "1", "2"]}, ": 'alphabet': alphabet symbols must be distinct", False),
    ("alphabet-size", {**RUN, "alphabet": ["0", "1", "2"]}, ": 'alphabet' has 3 symbols, but the model has 15 classes", False),
    ("no-train", {"alphabet": EQUATIONS}, " header is missing the key(s) train", True),
    ("no-target-len", {**RUN, "train": {}}, " header 'train' is missing the key(s) target_len", False),
    ("target-len-str", {**RUN, "train": {"target_len": "12"}}, " header 'train': target_len must be an integer, got '12'", False),
    ("target-len-zero", {**RUN, "train": {"target_len": 0}}, ": 'train.target_len' must be a positive integer, got 0", False),
    ("train-list", {**RUN, "train": [12]}, " header: train must be a JSON object, got [12]", False),
    ("epochs-list", {**RUN, "epochs_completed": [1]}, " header: epochs_completed must be an integer, got [1]", False),
    ("epochs-str", {**RUN, "epochs_completed": "x"}, " header: epochs_completed must be an integer, got 'x'", False),
    ("epochs-bool", {**RUN, "epochs_completed": True}, " header: epochs_completed must be an integer, got True", False),
    ("epochs-float", {**RUN, "epochs_completed": 2.7}, " header: epochs_completed must be an integer, got 2.7", False),
    ("epochs-negative", {**RUN, "epochs_completed": -5}, ": 'epochs_completed' must be a non-negative integer, got -5", False),
    ("epochs-two", {**RUN, "epochs_completed": 2}, None, False),
    ("epochs-absent", RUN, None, False),
]

# decode rows keep the case's id; train --resume rows add "-resume"
RUN_FIELD_CASES = [
    pytest.param("decode", extra, problem, id=case) for case, extra, problem, _ in _RUN_FIELDS
] + [
    pytest.param("resume", extra, None if decode_only else problem, id=f"{case}-resume")
    for case, extra, problem, decode_only in _RUN_FIELDS
]


class TestDecode:
    def test_decode_with_trained_checkpoint(self, tmp_path, capsys, rng):
        data, labels = write_dataset(tmp_path, char_samples(rng))
        run(
            capsys,
            ["--seed", "3", "train", "--data", data, "--labels", labels, "--loss", "cce", "--epochs", "1", "--out", str(tmp_path / "o")] + TRAIN_FLAGS,
        )
        code, out, _ = run(
            capsys,
            ["decode", "--data", data, "--labels", labels, "--checkpoint", str(tmp_path / "o" / "model.ckpt")],
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["decoded"]) == 8
        for entry in report["decoded"]:
            assert len(entry["hypothesis"]) == 1
        assert 0.0 <= report["cer"]

    def test_beam_decode_seq2seq(self, tmp_path, capsys, rng):
        data, labels = write_dataset(tmp_path, seq_samples(rng))
        ckpt = train_seq2seq(capsys, tmp_path, data, labels)
        code, out, _ = run(
            capsys,
            ["decode", "--data", data, "--labels", labels, "--checkpoint", ckpt, "--beam", "4"],
        )
        assert code == 0
        assert "cer" in json.loads(out)

    @pytest.mark.parametrize("width, used", [("1", "greedy_decode"), ("4", "beam_decode")])
    def test_decoders_are_the_ones_cli_names(self, tmp_path, capsys, rng, monkeypatch, width, used):
        data, labels = write_dataset(tmp_path, seq_samples(rng))
        ckpt = train_seq2seq(capsys, tmp_path, data, labels)
        calls = []
        for name in ("greedy_decode", "beam_decode"):
            real = getattr(cli, name)

            def spy(*args, real=real, name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(cli, name, spy)
        code, _, _ = run(
            capsys,
            ["decode", "--data", data, "--labels", labels, "--checkpoint", ckpt, "--beam", width],
        )
        assert code == 0
        assert calls == [used] * 4

    def test_cer_equals_train_validation_at_batch_one(self, tmp_path, capsys, rng):
        # validation and decode both forward one recording per eval call here
        data, labels = write_dataset(tmp_path, seq_samples(rng))
        _, out, _ = run(
            capsys,
            ["--seed", "2", "train", "--data", data, "--labels", labels, "--loss", "ctc", "--epochs", "20", "--lr", "0.2", "--out", str(tmp_path / "o")] + SEQ_FLAGS + ["--batch-size", "1"],
        )
        final = json.loads(out)["final"]
        assert 0 < final["cer"] < 1  # some labels right, so a different path would show
        code, out, _ = run(
            capsys,
            ["decode", "--data", data, "--labels", labels, "--checkpoint", str(tmp_path / "o" / "model.ckpt")],
        )
        assert code == 0
        assert json.loads(out)["cer"] == final["cer"]

    def test_alphabet_flag_is_refused(self, tmp_path, capsys, rng):
        data, labels = write_dataset(tmp_path, char_samples(rng, n=2))
        with pytest.raises(SystemExit) as exc:
            main(["decode", "--data", data, "--labels", labels, "--checkpoint", "m.ckpt", "--alphabet", "auto"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --alphabet auto" in capsys.readouterr().err

    @pytest.mark.parametrize("width", ["0", "-3"])
    def test_beam_below_one_is_rejected(self, tmp_path, capsys, rng, width):
        data, labels = write_dataset(tmp_path, char_samples(rng, n=2))
        code, out, err = run(
            capsys,
            ["decode", "--data", data, "--labels", labels, "--checkpoint", str(tmp_path / "none.ckpt"), "--beam", width],
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert f"--beam must be >= 1, got {width}" in err

    @pytest.mark.parametrize("width", ["1", "4"])
    def test_non_finite_checkpoint_fails_at_load(self, tmp_path, capsys, rng, width):
        data, labels = write_dataset(tmp_path, char_samples(rng, n=2))
        ckpt = str(tmp_path / "o" / "model.ckpt")
        run(
            capsys,
            ["train", "--data", data, "--labels", labels, "--loss", "ctc", "--epochs", "1", "--out", str(tmp_path / "o")] + TRAIN_FLAGS,
        )
        model, header = load_checkpoint(ckpt)
        dict(model.parameters())["conv.w"].data[0, 0, 0] = np.inf
        save_checkpoint(ckpt, model, extra={k: header[k] for k in ("train", "alphabet")})
        code, out, err = run(
            capsys,
            ["decode", "--data", data, "--labels", labels, "--checkpoint", ckpt, "--beam", width],
        )
        assert code == 1
        assert out == ""
        assert err == f"error: checkpoint {ckpt}: array 'conv.w' holds a non-finite value\n"

    @pytest.mark.parametrize("width", ["1", "4"])
    def test_nan_model_output_names_the_recording(self, tmp_path, capsys, rng, width):
        samples = [
            Sample(rng.normal(0, 1, (16, 3)), (int(rng.integers(0, 4)),), writer_id=i, rate_hz=100.0)
            for i in range(2)
        ]
        data, labels = write_dataset(tmp_path, samples)
        ckpt = str(tmp_path / "o" / "model.ckpt")
        run(
            capsys,
            ["train", "--data", data, "--labels", labels, "--loss", "ctc", "--epochs", "1", "--target-len", "16", "--filters", "4", "--kernel", "2", "--pool", "2", "--recurrent", "LSTM", "--units", "3", "--dropout", "0.0", "--batch-size", "2", "--out", str(tmp_path / "o")],
        )
        overflowing_norm(ckpt)
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run(
                capsys,
                ["decode", "--data", data, "--labels", labels, "--checkpoint", ckpt, "--beam", width],
            )
        assert code == 1
        assert out == ""
        assert "error: recording 0: log_probs are NaN at frame 0" in err

    def test_nan_char_output_names_the_recording(self, tmp_path, capsys, rng):
        data, labels = write_dataset(tmp_path, char_samples(rng, n=3))
        ckpt = str(tmp_path / "o" / "model.ckpt")
        run(
            capsys,
            ["train", "--data", data, "--labels", labels, "--loss", "cce", "--epochs", "1", "--target-len", "12", "--filters", "4", "--kernel", "2", "--pool", "2", "--recurrent", "LSTM", "--units", "3", "--dropout", "0.0", "--batch-size", "3", "--out", str(tmp_path / "o")],
        )
        assert overflowing_norm(ckpt).task == "char"
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run(
                capsys, ["decode", "--data", data, "--labels", labels, "--checkpoint", ckpt]
            )
        assert code == 1
        assert out == ""
        assert "error: recording 0: model output is NaN" in err


    def test_beam_on_char_checkpoint_is_rejected(self, tmp_path, capsys, rng):
        data, labels = write_dataset(tmp_path, char_samples(rng, n=3))
        ckpt = str(tmp_path / "o" / "model.ckpt")
        run(
            capsys,
            ["train", "--data", data, "--labels", labels, "--loss", "cce", "--epochs", "1", "--out", str(tmp_path / "o")] + TRAIN_FLAGS,
        )
        code, out, err = run(
            capsys, ["decode", "--data", data, "--labels", labels, "--checkpoint", ckpt, "--beam", "4"]
        )
        assert code == 1
        assert out == ""
        assert "error: --beam 4 needs a seq2seq model, not a char one" in err

    def test_config_file_as_checkpoint_names_the_file(self, tmp_path, capsys, rng):
        data, labels = write_dataset(tmp_path, char_samples(rng, n=2))
        cfg = write_config(tmp_path, {"train": {"epochs": 1}})
        code, out, err = run(
            capsys, ["decode", "--data", data, "--labels", labels, "--checkpoint", cfg]
        )
        assert code == 1
        assert out == ""
        assert err.strip() == (
            f"error: checkpoint {cfg} header is missing the key(s) model, task, in_channels, arrays"
        )

    @pytest.mark.parametrize("command", ["decode", "resume"])
    def test_other_channel_count_is_rejected(self, tmp_path, capsys, rng, command):
        data, labels = write_dataset(tmp_path, char_samples(rng))
        other, other_labels = write_dataset(tmp_path, char_samples(rng, channels=5), stem="five")
        base = ["train", "--loss", "cce", "--epochs", "1"] + TRAIN_FLAGS
        run(capsys, base + ["--data", data, "--labels", labels, "--out", str(tmp_path / "o")])
        ckpt = str(tmp_path / "o" / "model.ckpt")
        if command == "decode":
            argv = ["decode", "--data", other, "--labels", other_labels, "--checkpoint", ckpt]
            problem = f"checkpoint {ckpt} takes 3 input channels, but data {other} has 5"
        else:
            argv = base + ["--data", other, "--labels", other_labels, "--resume", ckpt, "--out", str(tmp_path / "b")]
            problem = "the model to continue has in_channels = 3, but this run asks for 5"
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {problem}\n"

    @pytest.mark.parametrize("command, extra, problem", RUN_FIELD_CASES)
    def test_checkpoint_run_fields_are_checked(self, tmp_path, capsys, rng, command, extra, problem):
        data, labels = write_dataset(tmp_path, char_samples(rng))
        base = ["--seed", "3", "train", "--data", data, "--labels", labels, "--loss", "cce", "--epochs", "1"] + TRAIN_FLAGS
        run(capsys, base + ["--out", str(tmp_path / "o")])
        model, _ = load_checkpoint(str(tmp_path / "o" / "model.ckpt"))
        ckpt = str(tmp_path / "resaved.ckpt")
        save_checkpoint(ckpt, model, extra)
        resumed = tmp_path / "b" / "model.ckpt"
        if command == "decode":
            argv = ["decode", "--data", data, "--labels", labels, "--checkpoint", ckpt]
        else:
            argv = base + ["--resume", ckpt, "--out", str(resumed.parent)]
        code, out, err = run(capsys, argv)
        if problem is None:
            assert code == 0
            if command == "resume":
                assert checkpoint_header(resumed)["epochs_completed"] == 1 + (extra or {}).get("epochs_completed", 0)
            return
        assert code == 1
        assert out == ""
        assert err.strip() == f"error: checkpoint {ckpt}{problem}"
        assert not resumed.exists()


def overflowing_norm(ckpt):
    """Rewrite ckpt so its eval output is NaN from finite arrays that load.

    With running_mean 1e308 and running_var 0, eval batchnorm scales
    x - 1e308 by 1 / sqrt(eps), which overflows to -inf in every entry; the
    recurrent layer's input projection then meets -inf times weights of
    both signs, which is NaN at every frame.
    """
    model, header = load_checkpoint(ckpt)
    model.norm.running_mean[:] = 1e308
    model.norm.running_var[:] = 0.0
    save_checkpoint(ckpt, model, extra={k: header[k] for k in ("train", "alphabet")})
    return model


class TestGradcheck:
    def test_passes_at_default_tolerance(self, capsys):
        code, out, _ = run(capsys, ["--seed", "0", "gradcheck"])
        assert code == 0
        report = json.loads(out)
        assert report["worst"] < 1e-4
        assert len(report["max_rel_error"]) >= 10

    def test_fails_at_impossible_tolerance(self, capsys):
        code, _, _ = run(capsys, ["--seed", "0", "gradcheck", "--tolerance", "1e-30"])
        assert code == 1

    @pytest.mark.parametrize("tolerance", ["inf", "nan", "0", "-1"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, monkeypatch, tolerance):
        def no_checks(seed):
            raise AssertionError("a check ran")

        monkeypatch.setattr(cli.fdcheck, "run_all", no_checks)
        code, out, err = run(capsys, ["gradcheck", "--tolerance", tolerance])
        assert code == 1
        assert out == ""
        assert err == f"error: --tolerance must be a finite positive number, got {float(tolerance)!r}\n"


class TestEmptyLabels:
    @pytest.mark.parametrize("command", ["ingest", "split", "augment", "segment", "train", "decode"])
    def test_every_command_names_the_empty_labels_file(self, tmp_path, capsys, rng, command):
        data, labels = write_dataset(tmp_path, char_samples(rng))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n  \n", encoding="utf-8")
        out_dir = tmp_path / "o"
        argv = [command, "--data", data, "--labels", str(empty)]
        if command == "decode":
            base = ["train", "--data", data, "--labels", labels, "--loss", "cce", "--epochs", "1"]
            assert run(capsys, base + TRAIN_FLAGS + ["--out", str(tmp_path / "m")])[0] == 0
            argv += ["--checkpoint", str(tmp_path / "m" / "model.ckpt")]
        else:
            argv += {"split": ["--mode", "WD"], "train": ["--loss", "cce", "--epochs", "1"]}.get(command, [])
            argv += ["--out", str(out_dir)]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err == "error: the labels file holds no label lines\n"
        assert not out_dir.exists()
