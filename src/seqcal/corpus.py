"""Synthetic sequence-to-sequence corpora and their JSONL serialization.

Tokens are plain integer ids into an explicit `Vocabulary`; no text
processing happens anywhere.  Three task kinds with graded difficulty are
provided:

  copy              reference is the input truncated to `output_len`
  keyword-extract   reference is the in-order subsequence of designated
                    keyword tokens, capped at `output_len`
  noisy-paraphrase  the copy reference with each token independently
                    resampled with probability `noise_rate`

Generation is a pure function of (spec, n, vocabulary): the same arguments
produce byte-identical corpora on any machine.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ParseError, ValidationError
from .rng import stream
from .schema import from_json, parse_json, read_jsonl, write_jsonl, write_text

TokenSeq = tuple[int, ...]

TASK_KINDS = ("copy", "keyword-extract", "noisy-paraphrase")

# Ceiling for seeds serialized into configs and file names.
MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class Vocabulary:
    """Dense token inventory with reserved padding/begin/end symbols."""

    symbols: tuple[str, ...]
    pad_id: int
    bos_id: int
    eos_id: int

    def __post_init__(self):
        if len(self.symbols) < 4:
            raise ConfigurationError(
                f"vocabulary needs at least 4 symbols, got {len(self.symbols)}"
            )
        if len(set(self.symbols)) != len(self.symbols):
            raise ConfigurationError("vocabulary symbols must be distinct")
        specials = (self.pad_id, self.bos_id, self.eos_id)
        for name, idx in zip(("pad", "bos", "eos"), specials):
            if not isinstance(idx, int) or not 0 <= idx < len(self.symbols):
                raise ConfigurationError(f"{name} id {idx!r} outside 0..{len(self.symbols) - 1}")
        if len(set(specials)) != 3:
            raise ConfigurationError("pad, bos, and eos ids must be distinct")

    @property
    def size(self) -> int:
        return len(self.symbols)

    @property
    def content_ids(self) -> TokenSeq:
        """Ids usable inside inputs and references (everything non-special)."""
        specials = {self.pad_id, self.bos_id, self.eos_id}
        return tuple(i for i in range(self.size) if i not in specials)


def make_vocabulary(size: int) -> Vocabulary:
    """Standard layout: pad=0, bos=1, eos=2, content symbols w3..w{size-1}."""
    if size < 4:
        raise ConfigurationError(f"vocabulary size must be >= 4, got {size}")
    symbols = ("<pad>", "<bos>", "<eos>") + tuple(f"w{i}" for i in range(3, size))
    return Vocabulary(symbols=symbols, pad_id=0, bos_id=1, eos_id=2)


@dataclass(frozen=True)
class VocabularyFile:
    """The layout of vocab.json."""

    symbols: tuple[str, ...]
    pad: int
    bos: int
    eos: int


def write_vocabulary(vocab: Vocabulary, path) -> None:
    write_text(path, (vocabulary_json(vocab), "\n"))


def vocabulary_json(vocab: Vocabulary) -> str:
    layout = VocabularyFile(vocab.symbols, vocab.pad_id, vocab.bos_id, vocab.eos_id)
    return json.dumps(vars(layout), separators=(",", ":"))


def vocabulary_sha256(vocab: Vocabulary) -> str:
    """Stable digest of the canonical vocabulary serialization."""
    return hashlib.sha256(vocabulary_json(vocab).encode("utf-8")).hexdigest()


def read_vocabulary(path) -> Vocabulary:
    where = f"vocabulary file {path}"
    try:
        layout = from_json(VocabularyFile, parse_json(Path(path).read_bytes(), where), where)
    except ConfigurationError as exc:
        raise ParseError(str(exc)) from exc
    return Vocabulary(layout.symbols, layout.pad, layout.bos, layout.eos)


@dataclass(frozen=True)
class TaskSpec:
    """Parameters of one synthetic task.

    `keyword_ids` designates the keyword subset of the vocabulary and is
    required (non-empty) for keyword-extract; the other kinds ignore it.
    """

    kind: str
    input_len: int
    output_len: int
    noise_rate: float = 0.0
    seed: int = 0
    keyword_ids: TokenSeq = field(default=())

    def validate(self, vocab: Vocabulary) -> None:
        if self.kind not in TASK_KINDS:
            raise ConfigurationError(
                f"task.kind must be one of {TASK_KINDS}, got {self.kind!r}"
            )
        if self.input_len < 1:
            raise ConfigurationError(f"task.input_len must be >= 1, got {self.input_len}")
        if self.output_len < 1:
            raise ConfigurationError(
                f"task.output_len must be >= 1, got {self.output_len}"
            )
        if self.output_len > self.input_len:
            raise ConfigurationError(
                f"task.output_len {self.output_len} exceeds input_len {self.input_len}"
            )
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ConfigurationError(
                f"task.noise_rate must lie in [0, 1], got {self.noise_rate}"
            )
        if self.kind == "copy" and self.noise_rate != 0.0:
            raise ConfigurationError("task.noise_rate must be 0 for the copy task")
        if not 0 <= self.seed <= MAX_SEED:
            raise ConfigurationError(f"task.seed must be a 64-bit integer, got {self.seed}")
        if self.kind == "keyword-extract":
            if len(self.keyword_ids) == 0:
                raise ConfigurationError(
                    "task.keyword_ids must be non-empty for keyword-extract"
                )
            content = set(vocab.content_ids)
            for k in self.keyword_ids:
                if k not in content:
                    raise ConfigurationError(
                        f"task.keyword_ids contains {k}, not a content token id"
                    )
            if len(set(self.keyword_ids)) != len(self.keyword_ids):
                raise ConfigurationError("task.keyword_ids must be distinct")


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
    return tuple(input_tokens)[:output_len]


def keyword_reference(input_tokens, keyword_ids, output_len: int) -> TokenSeq:
    """In-order subsequence of keyword occurrences, capped at output_len."""
    keywords = {int(k) for k in keyword_ids}
    kept = [int(t) for t in input_tokens if int(t) in keywords]
    return tuple(kept[:output_len])


def noisy_reference(
    input_tokens, output_len: int, noise_rate: float, rng: np.random.Generator,
    content_ids,
) -> TokenSeq:
    """Copy reference with per-token resampling.

    One uniform and one replacement draw are consumed per position whether
    or not the position flips, so stream consumption is shape-stable.
    Replacements are uniform over content ids and may repeat the original.
    """
    base = np.asarray(copy_reference(input_tokens, output_len))
    flips = rng.random(len(base)) < noise_rate
    pool = np.asarray(content_ids)
    replacements = pool[rng.integers(0, len(pool), size=len(base))]
    return tuple(int(t) for t in np.where(flips, replacements, base))


def generate_corpus(spec: TaskSpec, n: int, vocab: Vocabulary) -> list[ExampleRecord]:
    """Deterministically generate `n` example records for the task.

    Inputs are drawn uniformly (with replacement) over content ids.  For
    keyword-extract an input that happens to contain no keyword gets one
    spliced in at a random position so references are never empty.
    """
    spec.validate(vocab)
    if n < 1:
        raise ConfigurationError(f"corpus size must be >= 1, got {n}")
    rng = stream(spec.seed, "corpus", spec.kind)
    content = np.asarray(vocab.content_ids)
    keywords = np.asarray(spec.keyword_ids) if spec.keyword_ids else None
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
            ref = keyword_reference(inp, spec.keyword_ids, spec.output_len)
        else:
            ref = noisy_reference(
                inp, spec.output_len, spec.noise_rate, rng, vocab.content_ids
            )
        records.append(ExampleRecord(id=f"{spec.kind}-{i:05d}", input=inp, reference=ref))
    return records


def split_corpus(records, seed: int):
    """Shuffled 80/10/10 split: floor for train and dev, remainder to test."""
    n = len(records)
    if n < 3:
        raise ValidationError(f"need at least 3 records to split, got {n}")
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
    """Read a JSONL corpus whose token ids all lie in 0..vocab_size-1,
    reporting the line number on any malformed row."""
    def in_vocabulary(rec: ExampleRecord) -> None:
        for name in ("input", "reference"):
            top = max(getattr(rec, name))
            if top >= vocab_size:
                raise ValidationError(f"{name} token id {top} outside 0..{vocab_size - 1}")

    return read_jsonl(path, ExampleRecord, in_vocabulary)
