import hashlib
import json

import numpy as np
import pytest

from penscript.cli import main
from penscript.dataio import Sample, equations_alphabet, parse_recording, write_recording
from penscript.losses import LossParams
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
            pytest.param("[1, 2]", "expected a JSON object, got list", id="list"),
            pytest.param('{"start": 0, "end": 0, "writer_id": 0}', "missing label", id="no-label"),
            pytest.param('{"label": "1", "start": 0,', "invalid JSON", id="broken-json"),
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
        assert err.startswith("error: labels line 2: ")
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

    @pytest.mark.parametrize(
        "change, message",
        [
            (["--filters", "9"], "conv_filters = 4, but this run asks for 9"),
            ({"model": {"dense_units": 7}}, "dense_units = 100, but this run asks for 7"),
        ],
        ids=["flag", "config"],
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
        assert f"the checkpoint has {message}" in err
        assert not (tmp_path / "b" / "model.ckpt").exists()

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
            (lambda p: p.pop("folds"), "fold plan is missing the key(s) folds"),
            (lambda p: p["folds"][0]["train"].append(1.5), "train index 1.5 is not an integer"),
        ],
        ids=["index-99", "index-negative", "no-folds", "index-float"],
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
        assert message in err

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
                ["ModelConfig.conv_filters", "integer"], id="int-null",
            ),
            pytest.param(
                "train", {"model": {"use_batchnorm": "no"}},
                ["ModelConfig.use_batchnorm", "true or false"], id="bool-str",
            ),
            pytest.param(
                "train", {"train": {"batch_size": True}},
                ["TrainConfig.batch_size", "integer"], id="int-bool",
            ),
            pytest.param(
                "train", {"train": {"adam_eps": "1e-8"}},
                ["TrainConfig.adam_eps", "number"], id="float-str",
            ),
            pytest.param(
                "train", {"loss": {"scale_free": 1}},
                ["LossParams.scale_free", "true or false"], id="bool-int",
            ),
            pytest.param("augment", {"augment": []}, ["'augment'", "list"], id="augment-list"),
            pytest.param(
                "augment", {"augment": {"p_apply": "x"}},
                ["AugmentConfig.p_apply", "number"], id="float-str-augment",
            ),
            pytest.param(
                "augment", {"augment": {"force_channel": 12.0}},
                ["AugmentConfig.force_channel", "integer"], id="int-float",
            ),
            pytest.param(
                "augment", {"augment": {"accelerometer_channels": [0, 1.5]}},
                ["AugmentConfig.accelerometer_channels", "list of integers"], id="int-list-float",
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
        for word in expected:
            assert word in err


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
        samples = []
        for i in range(4):
            values = rng.normal(0, 1, (16, 3))
            label = tuple(int(v) for v in rng.integers(0, 4, 2))
            samples.append(Sample(values, label, writer_id=i, rate_hz=100.0))
        data, labels = write_dataset(tmp_path, samples)
        run(
            capsys,
            ["--seed", "2", "train", "--data", data, "--labels", labels, "--loss", "ctc", "--epochs", "1", "--target-len", "16", "--filters", "4", "--kernel", "2", "--pool", "2", "--recurrent", "LSTM", "--units", "3", "--dropout", "0.0", "--batch-size", "4", "--out", str(tmp_path / "o")],
        )
        code, out, _ = run(
            capsys,
            ["decode", "--data", data, "--labels", labels, "--checkpoint", str(tmp_path / "o" / "model.ckpt"), "--beam", "4"],
        )
        assert code == 0
        assert "cer" in json.loads(out)


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
