import json
import re
from typing import Callable, NamedTuple

import pytest

from penscript import cli
from penscript.dataio import FoldPlan, RecordingFormatError, label_entries
from penscript.jsonconfig import check_object, parse
from penscript.losses import LossParams
from penscript.netcore import ModelConfig, TrainConfig, load_checkpoint
from penscript.preprocess import AugmentConfig


class TestParse:
    def test_returns_the_value(self):
        assert parse('{"a": [1, 2.5, null]}', "doc") == {"a": [1, 2.5, None]}
        assert parse(b'{"a": 1}\n', "doc") == {"a": 1}

    @pytest.mark.parametrize("text", ["{bad", "", "[1", b"\xff\xfe\x00"], ids=["key", "empty", "truncated", "binary"])
    def test_not_json_names_what(self, text):
        with pytest.raises(ValueError, match=r"^the doc: not JSON: .+"):
            parse(text, "the doc")


class TestCheckObject:
    def test_returns_the_object(self):
        obj = {"n": 3, "x": 0.5, "s": "a", "b": False, "xs": [1], "l": [], "d": {}, "extra": None}
        kinds = {"n": int, "x": float, "s": str, "b": bool, "xs": tuple[int, ...], "l": list, "d": dict}
        assert check_object(obj, "doc", kinds) is obj

    def test_missing_keys_are_named_in_kinds_order(self):
        with pytest.raises(ValueError, match=re.escape("doc is missing the key(s) b, a")):
            check_object({"c": 1}, "doc", {"b": int, "c": int, "a": int})

    @pytest.mark.parametrize(
        "kind, value, want",
        [
            (int, True, "an integer"),
            (int, 1.0, "an integer"),
            (float, "1", "a number"),
            (bool, 1, "true or false"),
            (str, None, "a string"),
            (tuple[int, ...], {}, "a list of integers"),
            (list, {}, "a list"),
            (dict, [], "a JSON object"),
        ],
    )
    def test_wrong_kind_names_the_key(self, kind, value, want):
        expected = f"doc: k must be {want}, got {value!r}"
        with pytest.raises(ValueError, match="^" + re.escape(expected) + "$"):
            check_object({"k": value}, "doc", {"k": kind})

    @pytest.mark.parametrize(
        "value, entry", [([0, 1.5], "k[1] must be an integer, got 1.5"), ([True], "k[0] must be an integer, got True")]
    )
    def test_bad_list_entry_is_named_alone(self, value, entry):
        with pytest.raises(ValueError, match="^" + re.escape(f"doc: {entry}") + "$"):
            check_object({"k": value}, "doc", {"k": tuple[int, ...]})

    def test_long_bad_list_gives_a_short_message(self):
        train = list(range(2000)) + ["x"]
        with pytest.raises(ValueError) as err:
            check_object({"train": train}, "fold plan fold 0", {"train": tuple[int, ...]})
        assert str(err.value) == "fold plan fold 0: train[2000] must be an integer, got 'x'"

    def test_int_is_a_number(self):
        assert check_object({"x": 2}, "doc", {"x": float}) == {"x": 2}


def write_doc(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_checkpoint_header(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_bytes(json.dumps(doc).encode("utf-8") + b"\n")
    load_checkpoint(str(path))


class Reader(NamedTuple):
    read: Callable  # (tmp_path, document) -> anything; raises ValueError on a fault
    good: dict  # a well-formed object of the kind the reader checks
    subject: str  # what its messages name; {path} is the document's file
    required: str | None  # a key it cannot do without
    number: tuple | None  # (key, a string where an integer or a number belongs)
    wrap: Callable = lambda obj: obj  # the document holding the checked object


PLAN = {"mode": "WI", "k": 2, "seed": 0, "folds": [{"train": [0], "val": [1]}, {"train": [1], "val": [0]}]}

# Config files and sections hold no required key or number of their own, and
# LossParams and AugmentConfig have a default for every field: those faults
# land in a JsonConfig class or have nothing to hit.
READERS = {
    "labels line": Reader(
        lambda tmp, doc: list(label_entries(json.dumps(doc))),
        {"label": "1", "start": 0, "end": 0, "writer_id": 0},
        "labels line 1", "end", ("start", "0"),
    ),
    "fold plan": Reader(lambda tmp, doc: FoldPlan.from_dict(doc), PLAN, "fold plan", "k", ("seed", "0")),
    "fold": Reader(
        lambda tmp, doc: FoldPlan.from_dict(doc),
        PLAN["folds"][1], "fold plan fold 1", "val", ("train", "0"),
        wrap=lambda fold: {**PLAN, "folds": [PLAN["folds"][0], fold]},
    ),
    "config file": Reader(
        lambda tmp, doc: cli._load_config(write_doc(tmp, doc)),
        {"train": {"epochs": 1}}, "config {path}", None, None,
    ),
    "config section": Reader(
        lambda tmp, doc: cli._section(doc, "train", "c.json"),
        {"epochs": 1}, "config c.json section 'train'", None, None,
        wrap=lambda section: {"train": section},
    ),
    "ModelConfig": Reader(
        lambda tmp, doc: ModelConfig.from_dict(doc),
        {"num_classes": 4, "conv_filters": 8}, "ModelConfig", "num_classes", ("conv_filters", "8"),
    ),
    "TrainConfig": Reader(
        lambda tmp, doc: TrainConfig.from_dict(doc),
        {"epochs": 1, "batch_size": 4}, "TrainConfig", "epochs", ("batch_size", "4"),
    ),
    "LossParams": Reader(
        lambda tmp, doc: LossParams.from_dict(doc), {"fl_gamma": 2.0}, "LossParams", None, ("fl_gamma", "2"),
    ),
    "AugmentConfig": Reader(
        lambda tmp, doc: AugmentConfig.from_dict(doc),
        {"bezier_control_points": 4}, "AugmentConfig", None, ("bezier_control_points", "4"),
    ),
    "checkpoint header": Reader(
        read_checkpoint_header,
        {"model": {"num_classes": 4}, "task": "char", "in_channels": 3, "arrays": []},
        "checkpoint {path} header", "arrays", ("in_channels", "3"),
    ),
}

FAULTS = [
    pytest.param(name, fault, id=f"{name}-{fault}")
    for name, reader in READERS.items()
    for fault, applies in (("list", True), ("missing", reader.required), ("string", reader.number))
    if applies
]


@pytest.mark.parametrize("name, fault", FAULTS)
def test_every_reader_words_a_fault_the_same(tmp_path, name, fault):
    """A list for the object, a dropped key and a string for a number read alike everywhere."""
    reader = READERS[name]
    what = re.escape(reader.subject.format(path=tmp_path / "doc.json"))
    obj = json.loads(json.dumps(reader.good))
    if fault == "list":
        obj = [obj]
        expected = what + " must be a JSON object, got list"
    elif fault == "missing":
        del obj[reader.required]
        expected = what + re.escape(f" is missing the key(s) {reader.required}")
    else:
        key, value = reader.number
        obj[key] = value
        want = "(an integer|a number|a list of integers)"
        expected = f"{what}: {key} must be {want}, got {re.escape(repr(value))}"
    with pytest.raises(ValueError, match=f"^{expected}$") as caught:
        reader.read(tmp_path, reader.wrap(obj))
    if name == "labels line":
        assert isinstance(caught.value, RecordingFormatError)
