import json
import math
import re
from dataclasses import fields
from types import SimpleNamespace
from typing import Annotated, Callable, NamedTuple, get_args, get_origin, get_type_hints

import pytest

from penscript import cli
from penscript.dataio import FoldPlan, RecordingFormatError, label_entries
from penscript.jsonconfig import check_object, check_ranges, parse
from penscript.losses import LossParams
from penscript.netcore import Adam, ModelConfig, TrainConfig, load_checkpoint
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

    @pytest.mark.parametrize("value", [10**400, -(10**400), 2**1024], ids=["1e400", "-1e400", "2**1024"])
    def test_int_too_large_for_a_float_is_not_a_number(self, value):
        with pytest.raises(ValueError) as err:
            check_object({"x": value}, "doc", {"x": float})
        assert str(err.value) == f"doc: x must be a number, got {value!r}"

    def test_largest_float_sized_int_is_a_number(self):
        big = int(1.7976931348623157e308)
        assert check_object({"x": big}, "doc", {"x": float}) == {"x": big}


class TestCheckObjectInterval:
    """A kind declared as Annotated[kind, interval]: the kind, then the interval."""

    def test_value_inside_its_interval_is_returned(self):
        obj = {"n": 1, "x": 0.5}
        kinds = {"n": Annotated[int, "[1, inf)"], "x": Annotated[float, "[0, 1)"]}
        assert check_object(obj, "doc", kinds) is obj

    def test_wrong_kind_is_reported_before_the_range(self):
        # "x" is outside its interval and comes first, but "n" is not an integer
        kinds = {"x": Annotated[float, "[0, 1)"], "n": Annotated[int, "[1, inf)"]}
        with pytest.raises(ValueError) as err:
            check_object({"x": 5.0, "n": "0"}, "doc", kinds)
        assert str(err.value) == "doc: n must be an integer, got '0'"

    def test_true_is_a_kind_fault_not_a_range_fault(self):
        with pytest.raises(ValueError) as err:
            check_object({"n": True}, "doc", {"n": Annotated[int, "[0, inf)"]})
        assert str(err.value) == "doc: n must be an integer, got True"

    def test_int_too_large_for_a_float_is_a_shape_fault(self):
        with pytest.raises(ValueError) as err:
            check_object({"x": 10**400}, "doc", {"x": Annotated[float, "(0, inf)"]})
        assert str(err.value) == f"doc: x must be a number, got {10**400!r}"

    @pytest.mark.parametrize("value", [0, -3, math.nan], ids=["bound", "below", "nan"])
    def test_range_fault_names_what(self, value):
        with pytest.raises(ValueError) as err:
            check_object({"n": 2, "x": value}, "the doc", {"n": int, "x": Annotated[float, "(0, 1]"]})
        assert str(err.value) == f"the doc: x must be in (0, 1], got {value!r}"


class TestCheckRanges:
    @pytest.mark.parametrize(
        "interval, inside, outside",
        [
            ("[0, 1]", [0, 0.5, 1], [-1e-300, 1.0000000000000002]),
            ("[0, 1)", [0, 0.9999999999999999], [1, -0.0001]),
            ("(0, 1]", [5e-324, 1], [0, -1]),
            ("(0, inf)", [5e-324, 1e308, 10**400], [0, float("inf")]),
            ("[2, inf)", [2, 10**400], [1, 1.9999999999999998]),
            ("(-inf, inf)", [-1e308, 0, 1e308], [float("-inf"), float("inf")]),
        ],
        ids=["closed", "right-open", "left-open", "positive", "from-two", "finite"],
    )
    def test_bounds(self, interval, inside, outside):
        for value in inside:
            check_ranges(SimpleNamespace(x=value), {"x": interval})
        for value in outside + [float("nan")]:
            with pytest.raises(ValueError) as err:
                check_ranges(SimpleNamespace(x=value), {"x": interval})
            assert str(err.value) == f"x must be in {interval}, got {value!r}"

    def test_first_field_outside_is_named(self):
        ranges = {"b": "[0, 1]", "a": "[0, 1]", "c": "[0, 1]"}
        with pytest.raises(ValueError, match=re.escape("a must be in [0, 1], got 2")):
            check_ranges(SimpleNamespace(a=2, b=0.5, c=3), ranges)


def _adam(**settings):
    return Adam([], **{"lr": 0.1, **settings})


# The interval of every numeric setting: the specification the classes are
# held to, written out here rather than read back from them.
RANGES = {
    ModelConfig: (
        lambda **kw: ModelConfig(**{"num_classes": 3, **kw}),
        {
            "num_classes": "[1, inf)", "conv_filters": "[1, inf)", "conv_kernel": "[1, inf)",
            "pool_size": "[1, inf)", "dropout_rate": "[0, 1)", "lstm_units": "[1, inf)",
            "bilstm_units": "[1, inf)", "bilstm_layers": "[1, inf)", "dense_units": "[1, inf)",
        },
    ),
    TrainConfig: (
        lambda **kw: TrainConfig(**{"epochs": 1, **kw}),
        {
            "epochs": "[0, inf)", "learning_rate": "(0, inf)", "batch_size": "[1, inf)",
            "adam_beta1": "[0, 1)", "adam_beta2": "[0, 1)", "adam_eps": "(0, inf)",
            "target_len": "[1, inf)",
        },
    ),
    AugmentConfig: (
        AugmentConfig,
        {
            "p_apply": "[0, 1]", "scale_sigma": "[0, inf)", "jitter_sigma": "[0, inf)",
            "shift_force": "[0, inf)", "shift_other": "[0, inf)", "mag_warp_low": "(-inf, inf)",
            "mag_warp_high": "(-inf, inf)", "warp_sigma": "[0, 1)", "bezier_control_points": "[2, inf)",
        },
    ),
    LossParams: (
        LossParams,
        {
            "fl_alpha": "[0, 1]", "fl_gamma": "[0, inf)", "lsr_beta": "[0, 1]", "sbs_beta": "[0, 1]",
            "hbs_beta": "[0, 1]", "gce_alpha": "(0, 1]", "sce_alpha": "[0, inf)", "sce_beta": "[0, inf)",
            "jo_alpha": "[0, inf)", "jo_beta": "[0, inf)", "log_clamp_eps": "(0, inf)",
            "rce_log_zero": "(-inf, inf)",
        },
    ),
    Adam: (_adam, {"lr": "(0, inf)", "beta1": "[0, 1)", "beta2": "[0, 1)", "eps": "(0, inf)"}),
}

# (class, field, interval, is a float field)
SETTINGS = [
    pytest.param(
        cls, name, interval, cls is Adam or get_type_hints(cls)[name] is float,
        id=f"{cls.__name__}.{name}",
    )
    for cls, (_, ranges) in RANGES.items()
    for name, interval in ranges.items()
]


def _neighbour(bound: float, toward: float, is_float: bool):
    """The value next to bound in the direction of toward, -inf or inf."""
    if is_float:
        return math.nextafter(bound, toward)
    return int(bound) + (1 if toward > 0 else -1)


def _probes(interval: str, is_float: bool) -> tuple[list, list]:
    """(values that must be accepted, values that must be rejected): each
    finite bound, and its nearest neighbour on either side."""
    low, high = (float(b) for b in interval[1:-1].split(","))
    accept, reject = [], []
    for bound, closed, outward in ((low, interval[0] == "[", -math.inf), (high, interval[-1] == "]", math.inf)):
        if math.isinf(bound):
            continue
        (accept if closed else reject).append(bound if is_float else int(bound))
        reject.append(_neighbour(bound, outward, is_float))
        accept.append(_neighbour(bound, -outward, is_float))
    if is_float:
        reject += [math.nan, math.inf, -math.inf]
    return accept, reject


def test_declared_intervals_are_the_spec():
    """Each config class's hints declare exactly RANGES' intervals, in field
    order, and every float field declares one."""
    for cls, (_, ranges) in RANGES.items():
        if cls is Adam:
            continue
        hints = get_type_hints(cls, include_extras=True)
        declared = [(f.name, get_args(hints[f.name])[1]) for f in fields(cls) if get_origin(hints[f.name]) is Annotated]
        assert declared == list(ranges.items()), cls.__name__
        floats = {f.name for f in fields(cls) if get_type_hints(cls)[f.name] is float}
        assert floats <= set(ranges), cls.__name__


@pytest.mark.parametrize("cls, name, interval, is_float", SETTINGS)
def test_every_setting_keeps_to_its_interval(cls, name, interval, is_float):
    make = RANGES[cls][0]
    accept, reject = _probes(interval, is_float)
    for value in accept:
        make(**{name: value})
    for value in reject:
        with pytest.raises(ValueError) as err:
            make(**{name: value})
        assert str(err.value) == f"{name} must be in {interval}, got {value!r}"


@pytest.mark.parametrize(
    "cls, doc, problem",
    [
        (ModelConfig, {"num_classes": 0}, "num_classes must be in [1, inf), got 0"),
        (ModelConfig, {"num_classes": 3, "recurrent_kind": "GRU"},
         "recurrent_kind must be 'LSTM' or 'BiLSTM'"),
        (TrainConfig, {"epochs": 1, "learning_rate": -1}, "learning_rate must be in (0, inf), got -1"),
        (LossParams, {"fl_gamma": -0.5}, "fl_gamma must be in [0, inf), got -0.5"),
        (AugmentConfig, {"scale_sigma": -0.1}, "scale_sigma must be in [0, inf), got -0.1"),
    ],
    ids=["model-range", "model-kind", "train", "loss", "augment"],
)
def test_from_dict_names_what_it_read_on_a_range_fault(cls, doc, problem):
    # a fault from the class's own check reads like a shape fault in that field
    with pytest.raises(ValueError) as err:
        cls.from_dict(doc)
    assert str(err.value) == f"{cls.__name__}: {problem}"
    with pytest.raises(ValueError) as err:
        cls.from_dict(doc, "config c.json: X")
    assert str(err.value) == f"config c.json: X: {problem}"


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
