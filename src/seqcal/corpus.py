"""Synthetic sequence-to-sequence corpora and their JSONL serialization.

Tokens are plain integer ids; no text processing happens anywhere.  This
module is the one home of their layout: pad, bos and eos are `PAD_ID`,
`BOS_ID` and `EOS_ID` (0, 1, 2), and `content_ids(vocab_size)`, every id
after eos, is the one spelling of the ids split files and hypotheses
hold, so the layout follows from `vocab_size` alone; vocab.json stores
just the symbols.  Three task kinds with graded difficulty are provided:

  copy              reference is the input's first `output_len` tokens,
                    in ascending id order
  keyword-extract   reference is the input's first `output_len` keyword
                    occurrences, in ascending id order; the keywords are
                    the first `num_keywords` content ids of the vocabulary
  noisy-paraphrase  the copy reference with each token independently
                    resampled with probability `noise_rate`, the one kind
                    that takes a nonzero rate

References are in ascending id order because the model's context, the
sum of the input's embeddings, cannot see input order.  The cap applies
first, so where it cuts, the reference still depends on input positions.

`TaskSpec` is the run config's `task` section and checks its own fields
when it is built; the one rule that needs `vocab_size` (no more keywords
than content ids) lives in `TaskSpec.keyword_ids`.  A corpus is
split 80/10/10, so it needs at least `MIN_CORPUS_SIZE` records for every
part to hold one.

Generation is a pure function of (spec, n, vocab_size, seed): the same
arguments produce byte-identical corpora on any machine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ParseError, ValidationError
from .rng import stream
from .schema import from_json, parse_json, read_jsonl, to_json, write_jsonl, write_text

TokenSeq = tuple[int, ...]

TASK_KINDS = ("copy", "keyword-extract", "noisy-paraphrase")

# The token layout of every vocabulary; content ids follow eos.
PAD_ID, BOS_ID, EOS_ID = 0, 1, 2

# The fewest records whose 80/10/10 split leaves no part empty: dev gets
# floor(0.1 n) of them.
MIN_CORPUS_SIZE = 10


def content_ids(vocab_size: int) -> range:
    """The ids inputs, references and hypotheses hold: every id after eos.
    A `vocab_size` that leaves none is refused."""
    content = range(EOS_ID + 1, vocab_size)
    if not content:
        raise ConfigurationError(f"vocab_size {vocab_size} leaves no content id")
    return content


def check_content(name: str, tokens, vocab_size: int) -> None:
    """Refuse the ids `tokens` of field `name` unless all are content ids."""
    content = content_ids(vocab_size)
    for t in tokens:
        if t not in content:
            raise ValidationError(f"{name} token id {t} outside the content ids "
                                  f"{content.start}..{content.stop - 1}")


@dataclass(frozen=True)
class Vocabulary:
    """vocab.json's schema, the symbols `make_vocabulary` names the ids
    with; no code reads ids from it, only `vocab_size`."""

    symbols: tuple[str, ...]


def make_vocabulary(size: int) -> Vocabulary:
    """The vocabulary of `size` ids: <pad>, <bos> and <eos> at PAD_ID,
    BOS_ID and EOS_ID, then content symbols w3..w{size-1}."""
    symbols = ("<pad>", "<bos>", "<eos>") + tuple(f"w{i}" for i in content_ids(size))
    return Vocabulary(symbols=symbols)


def write_vocabulary(vocab: Vocabulary, path) -> None:
    write_text(path, (json.dumps(to_json(vocab), separators=(",", ":")), "\n"))


def read_vocabulary(path) -> Vocabulary:
    where = f"vocabulary file {path}"
    try:
        return from_json(Vocabulary, parse_json(Path(path).read_bytes(), where), where)
    except ConfigurationError as exc:
        raise ParseError(str(exc)) from exc


@dataclass(frozen=True)
class TaskSpec:
    """The run config's `task` section: which task, its lengths, and the
    knob of each kind (`noise_rate` for noisy-paraphrase, `num_keywords`
    for keyword-extract)."""

    kind: str = "copy"
    input_len: int = 5
    output_len: int = 5
    noise_rate: float = 0.0
    num_keywords: int = 4

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ConfigurationError(f"task.kind must be one of {TASK_KINDS}, got {self.kind!r}")
        if self.input_len < 1:
            raise ConfigurationError(f"task.input_len must be >= 1, got {self.input_len}")
        if self.output_len < 1:
            raise ConfigurationError(f"task.output_len must be >= 1, got {self.output_len}")
        if self.output_len > self.input_len:
            raise ConfigurationError(
                f"task.output_len {self.output_len} exceeds input_len {self.input_len}"
            )
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ConfigurationError(f"task.noise_rate must lie in [0, 1], got {self.noise_rate}")
        if self.kind != "noisy-paraphrase" and self.noise_rate != 0.0:
            raise ConfigurationError(
                f"task.noise_rate must be 0 for the {self.kind} task, got {self.noise_rate}"
            )
        if self.kind == "keyword-extract" and self.num_keywords < 1:
            raise ConfigurationError(f"task.num_keywords must be >= 1, got {self.num_keywords}")

    def keyword_ids(self, vocab_size: int) -> TokenSeq:
        """The keywords of keyword-extract, the first `num_keywords` content
        ids of `vocab_size`; empty for the other kinds."""
        if self.kind != "keyword-extract":
            return ()
        content = content_ids(vocab_size)
        if self.num_keywords > len(content):
            raise ConfigurationError(
                f"task.num_keywords {self.num_keywords} exceeds the "
                f"{len(content)} content tokens"
            )
        return tuple(content[: self.num_keywords])


@dataclass(frozen=True)
class ExampleRecord:
    id: str
    input: TokenSeq
    reference: TokenSeq

    def __post_init__(self):
        for name in ("input", "reference"):
            tokens = getattr(self, name)
            if not tokens:
                raise ValidationError(f"{name} must hold at least one token")
            if min(tokens) < 0:
                raise ValidationError(f"{name} contains negative id {min(tokens)}")


def copy_reference(input_tokens, output_len: int) -> TokenSeq:
    """The first output_len input tokens, in ascending id order."""
    return tuple(sorted(int(t) for t in tuple(input_tokens)[:output_len]))


def keyword_reference(input_tokens, keyword_ids, output_len: int) -> TokenSeq:
    """The first output_len keyword occurrences, in ascending id order."""
    keywords = {int(k) for k in keyword_ids}
    return copy_reference([t for t in input_tokens if int(t) in keywords], output_len)


def noisy_reference(
    input_tokens, output_len: int, noise_rate: float, rng: np.random.Generator,
    content,
) -> TokenSeq:
    """Copy reference with per-token resampling.

    One uniform and one replacement draw are consumed per position whether
    or not the position flips, so stream consumption is shape-stable.
    Replacements are uniform over content ids and may repeat the original.
    """
    base = np.asarray(copy_reference(input_tokens, output_len))
    flips = rng.random(len(base)) < noise_rate
    pool = np.asarray(content)
    replacements = pool[rng.integers(0, len(pool), size=len(base))]
    return tuple(int(t) for t in np.where(flips, replacements, base))


def generate_corpus(spec: TaskSpec, n: int, vocab_size: int, seed: int) -> list[ExampleRecord]:
    """Deterministically generate `n` example records for the task from
    `seed`.

    Inputs are drawn uniformly (with replacement) over content ids.  For
    keyword-extract an input that happens to contain no keyword gets one
    spliced in at a random position so references are never empty.
    """
    if n < 1:
        raise ConfigurationError(f"corpus size must be >= 1, got {n}")
    keyword_ids = spec.keyword_ids(vocab_size)
    rng = stream(seed, "corpus", spec.kind)
    content = np.asarray(content_ids(vocab_size))
    keywords = np.asarray(keyword_ids)
    records = []
    for i in range(n):
        drawn = content[rng.integers(0, len(content), size=spec.input_len)]
        if spec.kind == "keyword-extract" and not np.isin(drawn, keywords).any():
            pos = int(rng.integers(0, spec.input_len))
            drawn[pos] = keywords[int(rng.integers(0, len(keywords)))]
        inp = tuple(int(t) for t in drawn)
        if spec.kind == "copy":
            ref = copy_reference(inp, spec.output_len)
        elif spec.kind == "keyword-extract":
            ref = keyword_reference(inp, keyword_ids, spec.output_len)
        else:
            ref = noisy_reference(inp, spec.output_len, spec.noise_rate, rng, content)
        records.append(ExampleRecord(id=f"{spec.kind}-{i:05d}", input=inp, reference=ref))
    return records


def check_corpus_size(n: int, name: str = "corpus size") -> None:
    """Refuse a corpus too small for every part of the 80/10/10 split to
    hold an example; `name` names `n` in the message."""
    if n < MIN_CORPUS_SIZE:
        raise ConfigurationError(
            f"{name} must be >= {MIN_CORPUS_SIZE} so that no part of the "
            f"80/10/10 split is empty, got {n}"
        )


def split_corpus(records, seed: int):
    """Shuffled 80/10/10 split: floor for train and dev, remainder to test."""
    n = len(records)
    check_corpus_size(n)
    order = stream(seed, "split").permutation(n)
    shuffled = [records[i] for i in order]
    n_train = int(np.floor(0.8 * n))
    n_dev = int(np.floor(0.1 * n))
    train = shuffled[:n_train]
    dev = shuffled[n_train : n_train + n_dev]
    test = shuffled[n_train + n_dev :]
    return train, dev, test


def write_records(records, path) -> None:
    """Write records as JSONL; one compact object per line."""
    write_jsonl(path, records)


def read_records(path, vocab_size: int) -> list[ExampleRecord]:
    """Read a split file of at least one record whose inputs and references
    hold content ids only, refusing any other row by its line number."""
    def content_only(rec: ExampleRecord) -> None:
        for name in ("input", "reference"):
            check_content(name, getattr(rec, name), vocab_size)

    records = read_jsonl(path, ExampleRecord, content_only)
    if not records:
        raise ParseError(f"{path}: a split file needs at least one record")
    return records
