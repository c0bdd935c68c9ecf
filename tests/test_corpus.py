import ast
import hashlib
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcal.corpus import (
    BOS_ID,
    EOS_ID,
    MIN_CORPUS_SIZE,
    PAD_ID,
    TASK_KINDS,
    ExampleRecord,
    TaskSpec,
    check_corpus_size,
    content_ids,
    copy_reference,
    generate_corpus,
    keyword_reference,
    make_vocabulary,
    noisy_reference,
    read_records,
    read_vocabulary,
    split_corpus,
    write_records,
    write_vocabulary,
)
from seqcal.errors import ConfigurationError, ParseError, ValidationError
from seqcal.rng import stream

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "seqcal")


def keyword_filter_oracle(tokens, keyword_ids, cap):
    # Independent route: boolean mask via numpy membership, slicing, then
    # numpy's sort.
    arr = np.asarray(tokens)
    mask = np.isin(arr, np.asarray(keyword_ids))
    return tuple(int(t) for t in np.sort(arr[mask][:cap]))


def file_sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestVocabulary:
    def test_standard_layout(self):
        v = make_vocabulary(8)
        assert v.symbols == ("<pad>", "<bos>", "<eos>", "w3", "w4", "w5", "w6", "w7")
        assert (v.symbols[PAD_ID], v.symbols[BOS_ID], v.symbols[EOS_ID]) == (
            "<pad>", "<bos>", "<eos>")
        assert content_ids(8) == range(3, 8)
        assert v.symbols[3:] == tuple(f"w{i}" for i in content_ids(8))

    def test_round_trip_and_hash(self, tmp_path):
        v = make_vocabulary(12)
        path = tmp_path / "vocab.json"
        write_vocabulary(v, path)
        loaded = read_vocabulary(path)
        assert loaded == v
        write_vocabulary(loaded, tmp_path / "again.json")
        assert file_sha256(tmp_path / "again.json") == file_sha256(path)

    def test_sha256_is_pinned(self, tmp_path):
        # open_run compares vocab.json with make_vocabulary, and users read
        # the file, so its bytes must not move
        path = tmp_path / "vocab.json"
        write_vocabulary(make_vocabulary(20), path)
        assert path.read_text() == (
            '{"symbols":["<pad>","<bos>","<eos>",' + ",".join(f'"w{i}"' for i in range(3, 20))
            + ']}\n')
        assert file_sha256(path) == (
            "707021dc2eba27e2cde2a84f1e75077c12fc36ef5063ff13944d517ae9301e2e")

    def test_read_rejects_extra_keys(self, tmp_path):
        # vocab.json stored the special ids until they became constants
        path = tmp_path / "vocab.json"
        for extra, keys in (('"x": 5', "['x']"), ('"pad": 0, "bos": 1, "eos": 2',
                                                   "['bos', 'eos', 'pad']")):
            path.write_text('{"symbols": ["a","b","c","d"], ' + extra + '}')
            with pytest.raises(ParseError, match=re.escape(
                    f"vocabulary file {path} has unknown keys {keys}")):
                read_vocabulary(path)


class TestTaskRules:
    def test_copy_identity(self):
        # copy with output_len == len(input) reproduces the input
        assert copy_reference((5, 6, 7), 3) == (5, 6, 7)

    def test_copy_truncates(self):
        assert copy_reference((5, 6, 7, 8), 2) == (5, 6)

    def test_keyword_reference_is_in_ascending_id_order(self):
        # input "a k2 b k1" with keywords {k1, k2} -> "k1 k2"
        a, k2, b, k1 = 3, 9, 4, 8
        assert keyword_reference((a, k2, b, k1), (k1, k2), 4) == (k1, k2)
        # the cap keeps the first occurrences, then they are sorted
        assert keyword_reference((k2, a, k1, k1), (k1, k2), 2) == (k1, k2)
        assert copy_reference((7, 5, 6, 4), 2) == (5, 7)

    def test_keyword_cap(self):
        assert keyword_reference((8, 8, 8), (8,), 2) == (8, 8)

    def test_noise_zero_equals_copy(self):
        rng = stream(7, "t")
        inp = (3, 4, 5, 6)
        assert noisy_reference(inp, 3, 0.0, rng, (3, 4, 5, 6)) == copy_reference(inp, 3)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_keyword_rule_matches_independent_filter(self, data):
        content = tuple(content_ids(12))
        keywords = tuple(
            data.draw(
                st.lists(st.sampled_from(content), min_size=1, max_size=4, unique=True)
            )
        )
        tokens = tuple(
            data.draw(st.lists(st.sampled_from(content), min_size=1, max_size=20))
        )
        cap = data.draw(st.integers(min_value=1, max_value=20))
        assert keyword_reference(tokens, keywords, cap) == keyword_filter_oracle(
            tokens, keywords, cap
        )


class TestTaskSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ConfigurationError, match="kind"):
            TaskSpec(kind="reverse", input_len=4, output_len=2)

    def test_output_longer_than_input(self):
        with pytest.raises(ConfigurationError, match="output_len"):
            TaskSpec(kind="copy", input_len=3, output_len=4)

    def test_copy_with_noise_rejected(self):
        with pytest.raises(ConfigurationError, match="noise_rate"):
            TaskSpec(kind="copy", input_len=4, output_len=2, noise_rate=0.1)

    def test_keyword_requires_keyword_ids(self):
        with pytest.raises(ConfigurationError, match="num_keywords"):
            TaskSpec(kind="keyword-extract", input_len=4, output_len=2, num_keywords=0)
        # the other kinds take no keywords at all
        assert TaskSpec(kind="copy", num_keywords=0).keyword_ids(8) == ()

    def test_keyword_ids_must_be_content(self):
        for k in range(1, 6):
            spec = TaskSpec(kind="keyword-extract", input_len=4, output_len=2, num_keywords=k)
            assert spec.keyword_ids(8) == tuple(content_ids(8))[:k]
        spec = TaskSpec(kind="keyword-extract", input_len=4, output_len=2, num_keywords=6)
        with pytest.raises(ConfigurationError, match="num_keywords 6 exceeds the 5 content"):
            spec.keyword_ids(8)


class TestGeneration:
    def test_copy_corpus_obeys_rule(self):
        spec = TaskSpec(kind="copy", input_len=6, output_len=4)
        for rec in generate_corpus(spec, 50, 10, seed=11):
            assert rec.reference == tuple(sorted(rec.input[:4]))

    def test_keyword_corpus_matches_oracle_on_1000_inputs(self):
        spec = TaskSpec(kind="keyword-extract", input_len=10, output_len=8, num_keywords=4)
        records = generate_corpus(spec, 1000, 20, seed=5)
        for rec in records:
            assert rec.reference == keyword_filter_oracle(rec.input, (3, 4, 5, 6), 8)
            assert len(rec.reference) >= 1

    def test_noisy_rate_one_resamples_everything_from_content(self):
        spec = TaskSpec(kind="noisy-paraphrase", input_len=5, output_len=5, noise_rate=1.0)
        content = set(content_ids(10))
        for rec in generate_corpus(spec, 30, 10, seed=3):
            assert set(rec.reference) <= content

    def test_determinism_byte_identical(self, tmp_path):
        spec = TaskSpec(kind="keyword-extract", input_len=8, output_len=6, num_keywords=3)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_records(generate_corpus(spec, 200, 16, seed=42), p1)
        write_records(generate_corpus(spec, 200, 16, seed=42), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("spec, sha256", [
        (TaskSpec(kind="copy", input_len=6, output_len=4),
         "ed8a71030c580dd19b9f90786eeceb6355d845a049dff66f32a09b0a67d87e22"),
        (TaskSpec(kind="keyword-extract", input_len=6, output_len=3, num_keywords=3),
         "f38a4c2db53e8c05bf139ce3a5b3937f66e7dfb7c12502f236669355118885a2"),
        (TaskSpec(kind="noisy-paraphrase", input_len=6, output_len=4, noise_rate=0.3),
         "66cd4c732e4d47e1cc6c9474100e09c64fa050268233bb8f7d1fd444471f53bf"),
    ], ids=TASK_KINDS)
    def test_sha256_is_pinned_for_every_kind(self, tmp_path, spec, sha256):
        # criterion 8 pins the copy task only; these pin each kind's draws,
        # keyword splicing and noisy replacements at vocab_size 12
        path = tmp_path / "c.jsonl"
        write_records(generate_corpus(spec, 40, 12, seed=7), path)
        assert file_sha256(path) == sha256

    def test_distinct_seeds_differ(self):
        spec = TaskSpec(kind="copy", input_len=8, output_len=8)
        c1 = generate_corpus(spec, 20, 16, seed=1)
        c2 = generate_corpus(spec, 20, 16, seed=2)
        assert [r.input for r in c1] != [r.input for r in c2]

    def test_ids_unique(self):
        spec = TaskSpec(kind="copy", input_len=4, output_len=4)
        records = generate_corpus(spec, 100, 8, seed=0)
        assert len({r.id for r in records}) == 100


class TestSplit:
    def test_floor_then_remainder(self):
        spec = TaskSpec(kind="copy", input_len=4, output_len=4)
        records = generate_corpus(spec, 10, 8, seed=0)
        train, dev, test = split_corpus(records, seed=1)
        assert (len(train), len(dev), len(test)) == (8, 1, 1)

    def test_partition_is_exact(self):
        records = generate_corpus(TaskSpec(kind="copy", input_len=4, output_len=4), 103, 8,
                                  seed=0)
        train, dev, test = split_corpus(records, seed=9)
        ids = [r.id for r in train + dev + test]
        assert sorted(ids) == sorted(r.id for r in records)
        assert (len(train), len(dev), len(test)) == (82, 10, 11)

    def test_split_deterministic(self):
        records = generate_corpus(TaskSpec(kind="copy", input_len=4, output_len=4), 50, 8,
                                  seed=0)
        a = split_corpus(records, seed=4)
        b = split_corpus(records, seed=4)
        assert [[r.id for r in part] for part in a] == [[r.id for r in part] for part in b]

    def test_size_rule_is_exactly_every_part_non_empty(self):
        records = [ExampleRecord(id=f"r{i}", input=(3,), reference=(3,)) for i in range(100)]
        for n in range(1, 101):
            # the part sizes the split's floors give, worked out independently
            sizes = (8 * n // 10, n // 10, n - 8 * n // 10 - n // 10)
            if min(sizes) > 0:
                check_corpus_size(n)
                parts = split_corpus(records[:n], seed=n)
                assert tuple(map(len, parts)) == sizes, n
            else:
                assert n < MIN_CORPUS_SIZE
                with pytest.raises(ConfigurationError, match=f">= {MIN_CORPUS_SIZE}"):
                    check_corpus_size(n)
                with pytest.raises(ConfigurationError, match=f"got {n}$"):
                    split_corpus(records[:n], seed=n)


class TestRecordIO:
    def test_round_trip(self, tmp_path):
        records = [
            ExampleRecord(id="a", input=(3, 4), reference=(3,)),
            ExampleRecord(id="b", input=(5, 6, 7), reference=(5, 6)),
        ]
        path = tmp_path / "c.jsonl"
        write_records(records, path)
        assert read_records(path, 51) == records

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.lists(st.sampled_from(content_ids(51)), min_size=1, max_size=8),
                st.lists(st.sampled_from(content_ids(51)), min_size=1, max_size=8),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_round_trip_property(self, tmp_path_factory, rows):
        records = [
            ExampleRecord(id=f"r{i}", input=tuple(inp), reference=tuple(ref))
            for i, (inp, ref) in enumerate(rows)
        ]
        path = tmp_path_factory.mktemp("io") / "c.jsonl"
        write_records(records, path)
        assert read_records(path, 51) == records

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id":"a","input":[3],"reference":[3]}\n{not json}\n')
        with pytest.raises(ParseError, match="line 2"):
            read_records(path, 10)

    def test_missing_field_reports_line_and_field(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"id":"a","input":[3],"reference":[3]}\n{"id":"b","input":[4]}\n'
        )
        with pytest.raises(ParseError, match="line 2.*reference"):
            read_records(path, 10)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rows = [{"id": "a", "input": [3], "reference": [3]}] * 2
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(ValidationError, match="duplicate"):
            read_records(path, 10)

    @pytest.mark.parametrize("name, row", [
        ("input", {"id": "b", "input": [3, 10], "reference": [3]}),
        ("reference", {"id": "b", "input": [3], "reference": [99]}),
        # pad, eos and bos are not content ids
        ("input", {"id": "b", "input": [PAD_ID, 8, 3], "reference": [3]}),
        ("reference", {"id": "b", "input": [3], "reference": [3, EOS_ID, BOS_ID]}),
        ("reference", {"id": "b", "input": [3], "reference": [BOS_ID]}),
    ])
    def test_token_outside_the_vocabulary_names_the_line(self, tmp_path, name, row):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id":"a","input":[3,9],"reference":[9]}\n' + json.dumps(row) + "\n")
        with pytest.raises(ParseError, match=f"^line 2: .*c.jsonl: {name} token id "
                                             r"\d+ outside the content ids 3\.\.9$"):
            read_records(path, 10)

    def test_write_rejects_duplicate_ids(self, tmp_path):
        records = [
            ExampleRecord(id="a", input=(3,), reference=(3,)),
            ExampleRecord(id="a", input=(4,), reference=(4,)),
        ]
        with pytest.raises(ValidationError, match="duplicate"):
            write_records(records, tmp_path / "c.jsonl")


# ---------------------------------------------------------------------------
# `content_ids` is the one spelling of the content range.

def _is_eos(node):
    return (isinstance(node, ast.Name) and node.id == "EOS_ID"
            or isinstance(node, ast.Attribute) and node.attr == "EOS_ID")


def _range_spellings(name, source):
    """Where the module `name` spells the content range itself: `EOS_ID`
    in a sum (`EOS_ID + 1`), or compared by order with a token
    (`t > EOS_ID`, `EOS_ID < t < vocab_size`)."""
    spellings = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                and (_is_eos(node.left) or _is_eos(node.right))
                or isinstance(node, ast.Compare)
                and any(_is_eos(side) for side in (node.left, *node.comparators))
                and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops)):
            spellings.append(f"{name}:{node.lineno}")
    return spellings


def _package_range_spellings(edits=None):
    """`_range_spellings` over every package module but corpus.py, with
    `edits`, {module: (old, new)}, applied to its source first."""
    spellings = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py") or name == "corpus.py":
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            source = fh.read()
        if edits and name in edits:
            old, new = edits[name]
            assert old in source, (name, old)
            source = source.replace(old, new)
        spellings += _range_spellings(name, source)
    return spellings


def test_content_range_is_spelled_only_in_corpus():
    assert _package_range_spellings() == []


@pytest.mark.parametrize("old, new", [
    ("np.asarray(content_ids(dims.vocab_size))", "np.arange(EOS_ID + 1, dims.vocab_size)"),
    ('check_content("hypothesis", rec.hypothesis, vocab_size)',
     "assert all(EOS_ID < t < vocab_size for t in rec.hypothesis)"),
    ('check_content("hypothesis", rec.hypothesis, vocab_size)',
     "assert min(rec.hypothesis) > corpus.EOS_ID"),
], ids=["sum", "chained-comparison", "attribute"])
def test_range_spelled_again_in_inference_is_found(old, new):
    (found,) = _package_range_spellings({"inference.py": (old, new)})
    assert found.startswith("inference.py:")
