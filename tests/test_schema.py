"""The strict loader behind every file a stage reads back (run configs,
vocabularies, split and prediction files, and model bundles) and the
atomic writer behind every file a stage leaves behind."""

import ast
import glob
import json
import math
import os
import re
import tempfile
import tracemalloc
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from functools import partial
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import decode_array, encode_array
from seqcal.calib import QUALITY_KEYS, THRESHOLDS
from seqcal.cli import RunConfig, load_config, main
from seqcal.corpus import TASK_KINDS, ExampleRecord, read_records, write_records
from seqcal.errors import ConfigurationError, ParseError, ValidationError
from seqcal.inference import (
    PredictionRecord,
    read_predictions,
    uncertainty_score,
    write_predictions,
)
from seqcal.model import METHODS, Member, MethodConfig, ModelDims, init_model
from seqcal import training
from seqcal.schema import from_json, parse_json, read_jsonl, to_json, write_text
from seqcal.training import read_bundle, write_bundle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The run stamp the bundles of these tests are written and read with.
STAMP = "5a" * 32


@dataclass(frozen=True)
class Inner:
    x: float = 1.0

    def __post_init__(self):
        if self.x < 0.0:
            raise ConfigurationError(f"x must be >= 0, got {self.x}")


@dataclass(frozen=True)
class Outer:
    name: str
    n: int = 2
    flag: bool = False
    values: tuple[float, ...] = ()
    inner: Inner = field(default_factory=Inner)


class TestFromJson:
    def test_defaults_fill_absent_keys(self):
        assert from_json(Outer, {"name": "a"}, "o") == Outer(name="a")

    def test_nested_and_tuple_values(self):
        got = from_json(Outer, {"name": "a", "values": [1, 2.5], "inner": {"x": 3}}, "o")
        assert got == Outer(name="a", values=(1.0, 2.5), inner=Inner(x=3.0))
        assert type(got.values[0]) is float and type(got.inner.x) is float

    @pytest.mark.parametrize("payload, message", [
        ([], "o must be a JSON object"),
        ({"name": "a", "m": 1}, r"o has unknown keys \['m'\]"),
        ({}, r"o is missing keys \['name'\]"),
        ({"name": 1}, "o.name must be str, got int"),
        ({"name": "a", "n": True}, "o.n must be int, got bool"),
        ({"name": "a", "n": 2.0}, "o.n must be int, got float"),
        ({"name": "a", "flag": 1}, "o.flag must be bool, got int"),
        ({"name": "a", "values": (1.0,)}, "o.values must be a list"),
        ({"name": "a", "values": [1.0, "x"]}, r"o.values\[1\] must be float, got str"),
        ({"name": "a", "values": [False]}, r"o.values\[0\] must be float, got bool"),
        ({"name": "a", "inner": {"x": math.inf}}, "o.inner.x must be a finite number"),
        ({"name": "a", "inner": {"x": -math.inf}}, "o.inner.x must be a finite number"),
        ({"name": "a", "inner": {"x": math.nan}}, "o.inner.x must be a finite number"),
        ({"name": "a", "inner": {"x": 10**400}}, "o.inner.x must be a finite number"),
        ({"name": "a", "inner": 3}, "o.inner must be a JSON object"),
        ({"name": "a", "inner": {"x": -1}}, "x must be >= 0"),
    ])
    def test_refusals(self, payload, message):
        with pytest.raises(ConfigurationError, match=message):
            from_json(Outer, payload, "o")

    def test_largest_integer_below_overflow_is_widened(self):
        assert from_json(Inner, {"x": 2**1023}, "i").x == 2.0**1023


@dataclass
class Arrays:
    a: np.ndarray
    b: np.ndarray | None = None
    inner: Inner | None = None
    cached: int = field(default=0, init=False)


def _f8(*values):
    """Base64 of `values` as little-endian float64 bytes."""
    return encode_array(values)["f8"]


STORED_FORM = ' must be a regular array of numbers stored as {"shape", "f8"}, got '

# Each malformed stored array, and the refusal after its field path, as
# infer reports it.
ARRAY_REFUSALS = [
    pytest.param([[1.0, 2.0]], STORED_FORM + "list", id="nested-list"),
    pytest.param(3.0, STORED_FORM + "float", id="number"),
    pytest.param(None, STORED_FORM + "NoneType", id="null"),
    pytest.param({"shape": [1], "f8": _f8(1.0), "dtype": "f8"}, " has unknown keys ['dtype']",
                 id="extra-key"),
    pytest.param({"shape": [1]}, " is missing keys ['f8']", id="missing-f8"),
    pytest.param({"f8": _f8(1.0)}, " is missing keys ['shape']", id="missing-shape"),
    pytest.param({"shape": 1, "f8": _f8(1.0)}, ".shape must be a list, got int",
                 id="shape-number"),
    pytest.param({"shape": [True], "f8": _f8(1.0)}, ".shape[0] must be int, got bool",
                 id="shape-true"),
    pytest.param({"shape": [-1], "f8": ""}, ".shape must hold non-negative ints, got [-1]",
                 id="shape-negative"),
    pytest.param({"shape": [2.0], "f8": _f8(1.0, 2.0)}, ".shape[0] must be int, got float",
                 id="shape-float"),
    pytest.param({"shape": [1], "f8": [1.0]}, ".f8 must be str, got list", id="f8-list"),
    pytest.param({"shape": [1], "f8": None}, ".f8 must be str, got NoneType", id="f8-null"),
    pytest.param({"shape": [1], "f8": "AAAA AAAAAAA="}, ".f8 is not valid base64",
                 id="f8-space"),
    pytest.param({"shape": [1], "f8": "AAAAAAAAAAA"}, ".f8 is not valid base64",
                 id="f8-padding"),
    pytest.param({"shape": [1], "f8": "\u00e9" * 12}, ".f8 is not valid base64",
                 id="f8-not-ascii"),
    pytest.param({"shape": [2], "f8": _f8(1.0)},
                 ".f8 holds 8 bytes, expected 8 per element of shape [2]", id="too-few-bytes"),
    pytest.param({"shape": [2, 0], "f8": _f8(1.0)},
                 ".f8 holds 8 bytes, expected 8 per element of shape [2, 0]",
                 id="bytes-for-empty"),
    pytest.param({"shape": [1], "f8": "AAAAAAAAAA=="},
                 ".f8 holds 7 bytes, expected 8 per element of shape [1]", id="short-element"),
    pytest.param({"shape": [2**40, 2**40], "f8": _f8(1.0)},
                 f".f8 holds 8 bytes, expected 8 per element of shape [{2**40}, {2**40}]",
                 id="huge-shape"),
    pytest.param({"shape": [2], "f8": _f8(1.0, math.nan)}, " must hold finite numbers only",
                 id="nan"),
    pytest.param({"shape": [1, 1], "f8": _f8(math.inf)}, " must hold finite numbers only",
                 id="inf"),
    pytest.param({"shape": [1], "f8": _f8(-math.inf)}, " must hold finite numbers only",
                 id="minus-inf"),
]


class TestArraysAndNull:
    def test_arrays_load_as_float64_and_null_as_none(self):
        got = from_json(Arrays, {"a": encode_array([[1, 2.5], [3, 4]]), "b": None,
                                 "inner": None}, "o")
        assert got.a.dtype == np.float64
        assert np.array_equal(got.a, [[1.0, 2.5], [3.0, 4.0]])
        assert got.b is None and got.inner is None
        got = from_json(Arrays, {"a": encode_array([]), "b": encode_array([7]),
                                 "inner": {"x": 2}}, "o")
        assert got.a.shape == (0,) and got.b.dtype == np.float64 and got.b.tolist() == [7.0]
        assert got.inner == Inner(x=2.0)

    @pytest.mark.parametrize("payload, message", [
        ({"a": None}, "o.a must be a regular array of numbers .*, got NoneType"),
        ({"a": 3.0}, "o.a must be a regular array of numbers .*, got float"),
        ({"a": {"x": 1}}, r"o.a has unknown keys \['x'\]"),
        # format 4's nested lists are refused whatever they hold
        ({"a": [[1.0], [2.0, 3.0]]}, "o.a must be a regular array of numbers"),
        ({"a": [1.0, "x"]}, "o.a must be a regular array of numbers"),
        ({"a": [True, False]}, "o.a must be a regular array of numbers"),
        ({"a": [{"x": 1}]}, "o.a must be a regular array of numbers"),
        ({"a": [1.0, None]}, "o.a must be a regular array of numbers"),
        ({"a": [10**400]}, "o.a must be a regular array of numbers"),
        ({"a": encode_array([1.0, math.nan])}, "o.a must hold finite numbers only"),
        ({"a": encode_array([[-math.inf]])}, "o.a must hold finite numbers only"),
        ({"a": encode_array([1.0]), "b": "x"},
         "o.b must be a regular array of numbers.*, got str"),
        ({"a": encode_array([1.0]), "inner": 3}, "o.inner must be a JSON object"),
        ({"a": encode_array([1.0]), "inner": {"x": -1}}, "x must be >= 0"),
        ({"a": encode_array([1.0]), "cached": 1}, r"o has unknown keys \['cached'\]"),
        ({"a": [1.5, True]}, "o.a must be a regular array of numbers"),
        ({"a": [0.0, False]}, "o.a must be a regular array of numbers"),
        ({"a": [1, True]}, "o.a must be a regular array of numbers"),
        ({"a": [[1.0, 2.0], [0.5, False]]}, "o.a must be a regular array of numbers"),
        ({"a": [[[2.0], [True]]]}, "o.a must be a regular array of numbers"),
        ({"a": encode_array([1.0]), "b": [[0.0], [True]]},
         "o.b must be a regular array of numbers"),
    ])
    def test_refusals(self, payload, message):
        with pytest.raises(ConfigurationError, match=message):
            from_json(Arrays, payload, "o")

    def test_to_json_is_the_inverse(self):
        value = Arrays(a=np.arange(6.0).reshape(2, 3), inner=Inner(x=0.5))
        payload = to_json(value)
        assert payload == {"a": encode_array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]), "b": None,
                           "inner": {"x": 0.5}}
        assert list(payload["a"]) == ["shape", "f8"]
        back = from_json(Arrays, json.loads(json.dumps(payload)), "o")
        assert np.array_equal(back.a, value.a) and back.b is None and back.inner == value.inner
        outer = Outer(name="a", values=(1.0, 2.5))
        assert to_json(outer) == {"name": "a", "n": 2, "flag": False, "values": [1.0, 2.5],
                                  "inner": {"x": 1.0}}
        assert list(to_json(outer)) == [f.name for f in fields(Outer)]
        assert from_json(Outer, to_json(outer), "o") == outer


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A run directory with a trained base bundle: (config path, run
    directory, bundle path, the bundle's bytes)."""
    tmp = tmp_path_factory.mktemp("run")
    cfg_path = tmp / "run.json"
    cfg_path.write_text(json.dumps({
        "seed": 3, "vocab_size": 10, "n_examples": 40,
        "task": {"kind": "copy", "input_len": 3, "output_len": 3},
        "model": {"embed_dim": 4, "hidden_dim": 6},
        "train": {"steps": 5, "batch_size": 8}, "decode": {"beam_size": 2},
    }))
    out = tmp / "out"
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["train", "--config", str(cfg_path), "--out", str(out),
                 "--method", "base"]) == 0
    assert main(["infer", "--config", str(cfg_path), "--out", str(out),
                 "--method", "base"]) == 0
    (out / "preds" / "base.jsonl").unlink()
    bundle = out / "models" / "base.json"
    return str(cfg_path), out, bundle, bundle.read_bytes()


@pytest.mark.parametrize("value, message", ARRAY_REFUSALS)
def test_malformed_stored_array_infer_is_one(trained_run, capsys, value, message):
    cfg_path, out, bundle, good = trained_run
    payload = json.loads(good)
    payload["members"][0]["w_h"] = value
    bundle.write_text(json.dumps(payload))
    capsys.readouterr()
    try:
        code = main(["infer", "--config", cfg_path, "--out", str(out), "--method", "base"])
    finally:
        bundle.write_bytes(good)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {bundle}: bundle.members[0].w_h{message}")
    assert "Traceback" not in err and not (out / "preds" / "base.jsonl").exists()


class TestArrayEncoding:
    """Arrays travel as their raw float64 bytes, so every bit survives."""

    @pytest.mark.parametrize("values", [
        [-0.0, 0.0],
        [5e-324, -5e-324],
        [1.7976931348623157e308, -1.7976931348623157e308],
        [0.1 + 0.2, 0.1, 1.0 / 3.0],
        np.zeros((0, 3)),
        np.arange(24.0).reshape(2, 3, 4) / 7.0,
    ], ids=["signed-zero", "subnormal", "extremes", "inexact-sums", "empty-rows", "3d"])
    def test_round_trip_is_bit_for_bit(self, values):
        arr = np.asarray(values, dtype=float)
        payload = json.loads(json.dumps(to_json(Arrays(a=arr))))
        assert payload["a"] == encode_array(arr)
        got = from_json(Arrays, payload, "o").a
        assert got.shape == arr.shape and got.tobytes() == arr.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(arr))
        assert np.array_equal(decode_array(payload["a"]), arr)

    def test_loaded_arrays_are_native_writable_c_order(self):
        payload = to_json(Arrays(a=np.asfortranarray(np.arange(6.0).reshape(2, 3)),
                                 b=np.arange(4.0)[::2]))
        got = from_json(Arrays, json.loads(json.dumps(payload)), "o")
        for arr in (got.a, got.b):
            assert arr.dtype == np.float64 and arr.dtype.isnative
            assert arr.flags.c_contiguous and arr.flags.writeable
        assert np.array_equal(got.a, np.arange(6.0).reshape(2, 3))
        assert got.b.tolist() == [0.0, 2.0]
        got.a[0, 0] = 7.0

    def test_huge_shape_is_refused_before_allocating(self):
        # 2**80 elements would need 8 * 2**80 bytes; the count is compared
        # on Python ints, so the refusal allocates nothing of that size
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match=re.escape(
                    "o.a.f8 holds 8 bytes, expected 8 per element of shape "
                    f"[{2**40}, {2**40}]")):
                from_json(Arrays, {"a": {"shape": [2**40, 2**40], "f8": "AAAAAAAAAAA="}}, "o")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


@pytest.mark.parametrize("data", [b"{nope", b"[" * 100000 + b"]" * 100000, b'{"a": \xff}'],
                         ids=["syntax", "too-deep", "not-utf8"])
def test_unreadable_json_is_one_refusal(data):
    with pytest.raises(ConfigurationError, match="^f is not valid JSON"):
        parse_json(data, "f")


def _package_modules():
    """(file name, syntax tree) of each package module but schema.py."""
    src = os.path.join(ROOT, "src", "seqcal")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name != "schema.py":
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read())


def _json_uses(names):
    """Where a package module outside schema.py reaches json.<name> or
    imports it, for any of `names`."""
    calls = []
    for name, tree in _package_modules():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in names
                    and isinstance(node.value, ast.Name) and node.value.id == "json"):
                calls.append(f"{name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and node.module == "json" and any(
                    alias.name in names for alias in node.names):
                calls.append(f"{name}:{node.lineno}")
    return calls


def test_json_is_parsed_only_in_schema():
    """parse_json is the one place the package parses JSON, so every file
    a stage reads back gets the same guard."""
    assert _json_uses(("load", "loads")) == []


def test_every_package_definition_has_a_caller():
    """Every top-level function and class of the package is named by the
    package or its scripts outside its own definition, so code that the
    pipeline never reaches does not linger behind a test that calls it."""
    defined, used = [], set()
    for directory in ("src/seqcal", "scripts"):
        for name in sorted(os.listdir(os.path.join(ROOT, directory))):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(ROOT, directory, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for top in tree.body:
                own = getattr(top, "name", None)  # a def or class statement
                if own is not None and directory == "src/seqcal":
                    defined.append(own)
                for node in ast.walk(top):
                    ref = (node.id if isinstance(node, ast.Name)
                           else node.attr if isinstance(node, ast.Attribute) else None)
                    if ref != own:
                        used.add(ref)
    # criterion 5's single-example entry point: the search on one example,
    # which the oracle tests call while the pipeline decodes whole splits
    kept = {"beam_decode"}
    assert [name for name in defined if name not in used | kept] == []


def test_files_are_written_only_in_schema():
    """write_text is the one place the package writes a file, so every
    file a stage leaves behind is replaced only once it is complete.  An
    open() whose mode is not a literal counts as a write."""
    writes = _json_uses(("dump",))
    for name, tree in _package_modules():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                continue
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
                   for m in modes):
                writes.append(f"{name}:{node.lineno}")
    assert writes == []


def test_array_bytes_are_coded_only_in_schema():
    """schema is the one home of the array codec: no other package module
    imports base64 or turns an array into bytes or bytes into an array."""
    uses = []
    for name, tree in _package_modules():
        for node in ast.walk(tree):
            imported = (isinstance(node, ast.Import) and any(
                alias.name == "base64" for alias in node.names)) or (
                isinstance(node, ast.ImportFrom) and node.module == "base64")
            if (imported or isinstance(node, ast.Name) and node.id == "base64"
                    or isinstance(node, ast.Attribute)
                    and node.attr in ("tobytes", "frombuffer")):
                uses.append(f"{name}:{node.lineno}")
    assert uses == []


GOOD_PRED = '{"id":"a","hypothesis":[3],"token_logp":[-1.0],"eos_logp":-1.0,"uncertainty":-1.0}'


class TestReadJsonl:
    def test_blank_lines_are_skipped_and_counted(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_bytes(b"\n" + GOOD_PRED.encode() + b"\r\n  \n{")
        with pytest.raises(ParseError, match="line 4: .*not valid JSON") as info:
            read_jsonl(path, PredictionRecord)
        assert info.value.line == 4

    def test_bare_carriage_returns_end_lines(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_bytes(GOOD_PRED.encode() + b"\r" + GOOD_PRED.replace('"a"', '"b"').encode())
        assert [r.id for r in read_jsonl(path, PredictionRecord)] == ["a", "b"]

    @pytest.mark.parametrize("line, message", [
        (b'{"id":"b","input":[3],"reference":[\xff]}', "not valid JSON"),
        (b"[" * 100000 + b"]" * 100000, "not valid JSON"),
        (b"[]", "record must be a JSON object"),
        (b'{"id":"","input":[3],"reference":[3]}', "record.id must be a non-empty string"),
        (b'{"id":1,"input":[3],"reference":[3]}', "record.id must be str"),
        (b'{"id":"b","input":[],"reference":[3]}', "input must hold at least one token"),
        (b'{"id":"b","input":[3],"reference":[-1]}', "reference contains negative id -1"),
        (b'{"id":"b","input":[3,true],"reference":[3]}', r"record.input\[1\] must be int"),
        (b'{"id":"b","input":[3],"reference":[3],"x":0}', "unknown keys"),
    ])
    def test_refusals_name_the_line(self, tmp_path, line, message):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"id":"a","input":[3],"reference":[3]}\n' + line + b"\n")
        with pytest.raises(ParseError, match=f"^line 2: .*{message}"):
            read_records(path, 10)


PRED = PredictionRecord(id="a", hypothesis=(3,), token_logp=(-1.0,), eos_logp=-1.0,
                        uncertainty=-1.0)
EXAMPLE = ExampleRecord(id="a", input=(3,), reference=(3,))


def _temp_files(directory):
    return sorted(p.name for p in directory.iterdir() if p.name.endswith(".tmp"))


class TestAtomicWrites:
    """A write that is refused or fails leaves the target as it was, or
    absent, and no temp file beside it."""

    @pytest.mark.parametrize("write, record", [(write_predictions, PRED),
                                               (write_records, EXAMPLE)],
                             ids=["predictions", "records"])
    def test_duplicate_id_leaves_the_old_file(self, tmp_path, write, record):
        path = tmp_path / "f.jsonl"
        write([replace(record, id="old")], path)
        old = path.read_bytes()
        with pytest.raises(ValidationError, match="duplicate id 'a'"):
            write([record, replace(record, id="b"), record], path)
        assert path.read_bytes() == old
        assert _temp_files(tmp_path) == []

    @pytest.mark.parametrize("write, record", [(write_predictions, PRED),
                                               (write_records, EXAMPLE)],
                             ids=["predictions", "records"])
    def test_empty_id_leaves_the_old_file(self, tmp_path, write, record):
        # read_jsonl refuses an empty id, so the writer must not leave one
        path = tmp_path / "f.jsonl"
        write([replace(record, id="old")], path)
        old = path.read_bytes()
        with pytest.raises(ValidationError, match="record.id must be a non-empty string"):
            write([record, replace(record, id="")], path)
        assert path.read_bytes() == old
        assert _temp_files(tmp_path) == []

    @pytest.mark.parametrize("old", [None, b"old bundle\n"], ids=["absent", "present"])
    def test_bundle_failing_after_member_zero(self, tmp_path, monkeypatch, old):
        config = MethodConfig(method="de", seeds=(3, 4))
        members = [init_model(DIMS, config, seed) for seed in config.member_seeds(0)]
        models = tmp_path / "models"
        models.mkdir()
        path = models / "de.json"
        if old is not None:
            path.write_bytes(old)
        encoded = []

        def encode_one_member(obj):
            if isinstance(obj, Member):
                if encoded:
                    raise OSError("no space left on device")
                encoded.append(obj)
            return to_json(obj)

        monkeypatch.setattr(training, "to_json", encode_one_member)
        with pytest.raises(OSError, match="no space left"):
            write_bundle(members, path, STAMP)
        assert len(encoded) == 1
        assert (path.read_bytes() if path.exists() else None) == old
        assert _temp_files(models) == []

    def test_failing_chunk_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "f.txt"
        write_text(path, ["old\n"])

        def chunks():
            yield "new, partly written\n"
            raise ValidationError("refused mid-file")

        with pytest.raises(ValidationError, match="mid-file"):
            write_text(path, chunks())
        assert path.read_bytes() == b"old\n"
        assert _temp_files(tmp_path) == []

    def test_directory_at_the_target_is_left_alone(self, tmp_path):
        path = tmp_path / "f.txt"
        path.mkdir()
        with pytest.raises(OSError):
            write_text(path, ["text\n"])
        assert path.is_dir() and list(path.iterdir()) == []
        assert _temp_files(tmp_path) == []

    def test_text_is_utf8_with_newline_ends(self, tmp_path):
        path = tmp_path / "f.txt"
        write_text(path, ("é", "\n", "b\n"))
        assert path.read_bytes() == "é\nb\n".encode("utf-8")
        assert _temp_files(tmp_path) == []


def test_thresholds_cover_the_quality_keys():
    assert THRESHOLDS.keys() == set(QUALITY_KEYS)


@pytest.mark.parametrize("path", ["configs/demo.json", "configs/trend.json",
                                  "perfbench/workloads/wide.json"])
def test_committed_configs_load_and_round_trip(path):
    cfg = load_config(os.path.join(ROOT, path))
    assert from_json(RunConfig, json.loads(json.dumps(asdict(cfg))), "config") == cfg


@pytest.mark.parametrize("seed, ok", [(0, True), (2**64 - 1, True), (2**64, False), (-1, False)])
def test_seed_range(tmp_path, seed, ok):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": seed}))
    if ok:
        assert load_config(str(path)).seed == seed
    else:
        with pytest.raises(ConfigurationError, match="config.seed"):
            load_config(str(path))


# ---------------------------------------------------------------------------
# Fuzzing.  Integers stay small: a config's vocab_size and de_size size what
# loading builds (the vocabulary, one seed per ensemble member), so a huge
# one makes loading slow in proportion, which these properties do not
# measure; the rules at the integer edges are checked by the tests above.

INTS = st.integers(-3, 40)
JSON_SCALARS = (st.none() | st.booleans() | INTS | st.text(max_size=4)
                | st.floats(allow_nan=True, allow_infinity=True))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids,
                                                               max_size=3),
    max_leaves=8,
)


def rarely(rare, common):
    """`rare` about one time in eight, `common` otherwise (hypothesis favours
    the ends of a range, so the rare branch sits inside it)."""
    return st.integers(0, 7).flatmap(lambda i: rare if i == 4 else common)


def typed(tp):
    """Values of the annotated type, mostly inside the usual ranges."""
    if is_dataclass(tp):
        return payloads(tp)
    if get_origin(tp) is tuple:
        return st.lists(typed(get_args(tp)[0]), max_size=4).map(sorted)
    return {
        int: st.integers(1, 12) | INTS,
        float: st.floats(0.0, 0.9) | st.floats(allow_nan=True, allow_infinity=True),
        bool: st.booleans(),
        str: st.sampled_from(TASK_KINDS + METHODS) | st.text(max_size=4),
    }[tp]


def payloads(cls):
    """JSON objects shaped like `cls`: any subset of its keys, each holding
    a value of its type or, rarely, any JSON value."""
    hints = get_type_hints(cls)
    return st.fixed_dictionaries({}, optional={
        f.name: rarely(JSON_VALUES, typed(hints[f.name])) for f in fields(cls)})


def _load(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        return load_config(path)


@settings(max_examples=200, deadline=None)
@given(payload=rarely(JSON_VALUES, payloads(RunConfig)))
def test_any_json_config_loads_or_is_refused(payload):
    try:
        cfg = _load(payload)
    except ConfigurationError:
        return
    assert isinstance(cfg, RunConfig)
    # the manifest echoes to_json(config): that echo is itself a valid config
    assert from_json(RunConfig, json.loads(json.dumps(to_json(cfg))), "config") == cfg


DIMS = ModelDims(vocab_size=6, embed_dim=2, hidden_dim=3)
DROP = object()


def _mutated(header: dict, cls):
    """Rarely any JSON value; otherwise `header` with most values kept and
    the others replaced by a value of the field's type or by any JSON
    value, or dropped, and rarely an unknown key added."""
    hints = get_type_hints(cls)
    entries = {
        name: st.integers(0, 11).flatmap(
            lambda i, name=name, value=value: typed(hints[name]) if i == 7
            else JSON_VALUES if i == 8 else st.just(DROP) if i == 9 else st.just(value))
        for name, value in header.items()
    }
    kept = st.fixed_dictionaries(entries).map(
        lambda d: {k: v for k, v in d.items() if v is not DROP})
    extra = rarely(st.fixed_dictionaries({"extra": JSON_VALUES}), st.just({}))
    return rarely(JSON_VALUES, st.tuples(kept, extra).map(lambda kv: {**kv[0], **kv[1]}))


@settings(max_examples=150, deadline=None)
@given(method=_mutated(asdict(MethodConfig(method="base")), MethodConfig),
       dims=_mutated(asdict(DIMS), ModelDims))
def test_any_bundle_header_loads_or_is_refused(method, dims):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "base.json")
        write_bundle([init_model(DIMS, MethodConfig(method="base"), seed=1)], path, STAMP)
        bundle = json.loads(open(path).read())
        bundle.update(method=method, dims=dims)
        with open(path, "w") as fh:
            json.dump(bundle, fh)
        try:
            members = read_bundle(path, STAMP)
        except ValidationError:
            return
    assert len(members) == 1
    assert members[0].config == from_json(MethodConfig, json.loads(json.dumps(method)), "method")
    assert members[0].dims == from_json(ModelDims, dims, "dims")
    assert np.isfinite(members[0].embed).all()


IDS = st.text(min_size=1, max_size=3)
# Rows gen-data and the search could write: content ids of a 41-id
# vocabulary, hypotheses of at most 4 tokens, log-probabilities at most 0,
# and the uncertainty they give.
TOKENS = st.lists(st.integers(3, 40), min_size=1, max_size=4)
LOGP = st.floats(min_value=-1e300, max_value=0.0)
PREDICTION_ROWS = st.builds(
    lambda id_, steps, eos: {"id": id_, "hypothesis": [t for t, _ in steps],
                             "token_logp": [lp for _, lp in steps], "eos_logp": eos,
                             "uncertainty": uncertainty_score([lp for _, lp in steps], eos)},
    IDS, st.lists(st.tuples(st.integers(3, 40), LOGP), min_size=1, max_size=4), LOGP)
EXAMPLE_ROWS = st.builds(lambda id_, inp, ref: {"id": id_, "input": inp, "reference": ref},
                         IDS, TOKENS, TOKENS)


def _lines(rows, cls):
    """Lists of valid rows, each rarely mutated by `_mutated`."""
    return st.lists(rows.flatmap(lambda row: rarely(_mutated(row, cls), st.just(row))),
                    max_size=3)


@settings(max_examples=150, deadline=None)
@given(preds=_lines(PREDICTION_ROWS, PredictionRecord),
       examples=_lines(EXAMPLE_ROWS, ExampleRecord))
def test_any_jsonl_line_loads_or_names_its_line(preds, examples):
    """Any JSON value on a line gives a record or a ParseError naming a
    line, and a file that loads is written back to the same records.  A
    split file with no records is a ParseError of the whole file."""
    for rows, read, write in ((preds, partial(read_predictions, vocab_size=41, max_len=4),
                               write_predictions),
                              (examples, partial(read_records, vocab_size=41), write_records)):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.jsonl")
            with open(path, "w") as fh:
                fh.write("".join(json.dumps(row) + "\n" for row in rows))
            try:
                records = read(path)
            except ParseError as exc:
                if rows:
                    assert 1 <= exc.line <= len(rows)
                else:
                    assert exc.line is None
                continue
            assert len(records) == len(rows)
            write(records, path)
            assert read(path) == records


# ---------------------------------------------------------------------------
# The README's config table is a view of the schema.


def _readme_rows():
    text = open(os.path.join(ROOT, "README.md"), encoding="utf-8").read()
    table = text.split("## Config schema", 1)[1].split("\n## ", 1)[0]
    section = None
    for line in table.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 4 or cells[0] in ("section", "---"):
            continue
        if cells[0]:
            section = "" if cells[0] == "(top)" else cells[0].strip("`") + "."
        yield section + cells[1].strip("`"), cells[2]


def _leaves(value, prefix=""):
    """(dotted key, value) for every leaf of a config's JSON echo."""
    if not isinstance(value, dict):
        yield prefix[:-1], value
        return
    for name, inner in value.items():
        yield from _leaves(inner, f"{prefix}{name}.")


def test_readme_table_lists_the_schema():
    # every leaf of the default config's JSON echo is one table row, and its
    # default cell, read as JSON, is that leaf's value
    defaults = dict(_leaves(to_json(RunConfig())))
    rows = dict(_readme_rows())
    assert sorted(rows) == sorted(defaults)
    for key, default in defaults.items():
        shown = json.loads(re.sub(r"^`(.*)`$", r"\1", rows[key]))
        assert shown == default and type(shown) is type(default), key


# ---------------------------------------------------------------------------
# A setting no committed workload varies belongs in the code as a constant.

# Settings that may keep one value across the committed workloads, each
# with the reason it stays a config key.
SINGLE_VALUED_EXEMPT = {
    "seed": "perfbench replaces it on every run",
    "train.batch_size": "perfbench/workloads/wide.json names it",
    "train.learning_rate": "perfbench/workloads/wide.json names it",
}


def test_every_setting_varies_across_the_committed_workloads():
    paths = sorted(glob.glob(os.path.join(ROOT, "configs", "*.json")))
    paths.append(os.path.join(ROOT, "perfbench", "workloads", "wide.json"))
    assert len(paths) >= 3
    seen = {}
    for path in paths:
        for key, value in _leaves(to_json(load_config(path))):
            seen.setdefault(key, set()).add(json.dumps(value))
    single = sorted(key for key, values in seen.items() if len(values) == 1)
    assert single == sorted(SINGLE_VALUED_EXEMPT), (
        "a setting with one value across the committed workloads is a constant "
        "in the code, or an exemption with its reason")


def test_exemptions_citing_the_wide_workload_hold():
    # an exemption whose reason is that wide.json names a key lapses when
    # the file stops naming it: the setting then becomes a constant
    path = os.path.join(ROOT, "perfbench", "workloads", "wide.json")
    with open(path, encoding="utf-8") as fh:
        named = dict(_leaves(json.load(fh)))
    cited = [key for key, reason in SINGLE_VALUED_EXEMPT.items()
             if "perfbench/workloads/wide.json" in reason]
    for key in cited:
        assert key in named, key
