import hashlib
import json
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
    ExampleRecord,
    TaskSpec,
    check_corpus_size,
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
        assert v.content_ids == (3, 4, 5, 6, 7)

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
        vocab = make_vocabulary(12)
        content = vocab.content_ids
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
        assert TaskSpec(kind="copy", num_keywords=0).keyword_ids(make_vocabulary(8)) == ()

    def test_keyword_ids_must_be_content(self):
        vocab = make_vocabulary(8)
        for k in range(1, 6):
            spec = TaskSpec(kind="keyword-extract", input_len=4, output_len=2, num_keywords=k)
            assert spec.keyword_ids(vocab) == vocab.content_ids[:k]
        spec = TaskSpec(kind="keyword-extract", input_len=4, output_len=2, num_keywords=6)
        with pytest.raises(ConfigurationError, match="num_keywords 6 exceeds the 5 content"):
            spec.keyword_ids(vocab)


class TestGeneration:
    def test_copy_corpus_obeys_rule(self):
        vocab = make_vocabulary(10)
        spec = TaskSpec(kind="copy", input_len=6, output_len=4)
        for rec in generate_corpus(spec, 50, vocab, seed=11):
            assert rec.reference == tuple(sorted(rec.input[:4]))

    def test_keyword_corpus_matches_oracle_on_1000_inputs(self):
        vocab = make_vocabulary(20)
        spec = TaskSpec(kind="keyword-extract", input_len=10, output_len=8, num_keywords=4)
        records = generate_corpus(spec, 1000, vocab, seed=5)
        for rec in records:
            assert rec.reference == keyword_filter_oracle(rec.input, (3, 4, 5, 6), 8)
            assert len(rec.reference) >= 1

    def test_noisy_rate_one_resamples_everything_from_content(self):
        vocab = make_vocabulary(10)
        spec = TaskSpec(kind="noisy-paraphrase", input_len=5, output_len=5, noise_rate=1.0)
        content = set(vocab.content_ids)
        for rec in generate_corpus(spec, 30, vocab, seed=3):
            assert set(rec.reference) <= content

    def test_determinism_byte_identical(self, tmp_path):
        vocab = make_vocabulary(16)
        spec = TaskSpec(kind="keyword-extract", input_len=8, output_len=6, num_keywords=3)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_records(generate_corpus(spec, 200, vocab, seed=42), p1)
        write_records(generate_corpus(spec, 200, vocab, seed=42), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_distinct_seeds_differ(self):
        vocab = make_vocabulary(16)
        spec = TaskSpec(kind="copy", input_len=8, output_len=8)
        c1 = generate_corpus(spec, 20, vocab, seed=1)
        c2 = generate_corpus(spec, 20, vocab, seed=2)
        assert [r.input for r in c1] != [r.input for r in c2]

    def test_ids_unique(self):
        vocab = make_vocabulary(8)
        spec = TaskSpec(kind="copy", input_len=4, output_len=4)
        records = generate_corpus(spec, 100, vocab, seed=0)
        assert len({r.id for r in records}) == 100


class TestSplit:
    def test_floor_then_remainder(self):
        vocab = make_vocabulary(8)
        spec = TaskSpec(kind="copy", input_len=4, output_len=4)
        records = generate_corpus(spec, 10, vocab, seed=0)
        train, dev, test = split_corpus(records, seed=1)
        assert (len(train), len(dev), len(test)) == (8, 1, 1)

    def test_partition_is_exact(self):
        vocab = make_vocabulary(8)
        records = generate_corpus(TaskSpec(kind="copy", input_len=4, output_len=4), 103, vocab,
                                  seed=0)
        train, dev, test = split_corpus(records, seed=9)
        ids = [r.id for r in train + dev + test]
        assert sorted(ids) == sorted(r.id for r in records)
        assert (len(train), len(dev), len(test)) == (82, 10, 11)

    def test_split_deterministic(self):
        vocab = make_vocabulary(8)
        records = generate_corpus(TaskSpec(kind="copy", input_len=4, output_len=4), 50, vocab,
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
                st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=8),
                st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=8),
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
    ])
    def test_token_outside_the_vocabulary_names_the_line(self, tmp_path, name, row):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id":"a","input":[3,9],"reference":[9]}\n' + json.dumps(row) + "\n")
        with pytest.raises(ParseError, match=f"^line 2: .*c.jsonl: {name} token id "
                                             r"\d+ outside 0\.\.9"):
            read_records(path, 10)

    def test_write_rejects_duplicate_ids(self, tmp_path):
        records = [
            ExampleRecord(id="a", input=(3,), reference=(3,)),
            ExampleRecord(id="a", input=(4,), reference=(4,)),
        ]
        with pytest.raises(ValidationError, match="duplicate"):
            write_records(records, tmp_path / "c.jsonl")
