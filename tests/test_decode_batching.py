"""The batched decoder against the one-example search, record for record.

Records are compared with plain equality, so every float must match to
the last bit.  Batched decoding stacks all examples into one member pass
per step and stochastic unit; any change in the BLAS row count of a
matmul shifts the last bit of some log-probabilities, and near-ties then
pick different hypotheses.  The batch-invariance tests catch that even
where the one-example oracle shares the bug.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqcal.inference as inference
from oracles import beam_oracle, sorted_by_oracle
from seqcal.corpus import ExampleRecord, TaskSpec, generate_corpus
from seqcal.errors import InputError
from seqcal.inference import PosteriorConfig, beam_decode, decode_corpus
from seqcal.model import (
    METHODS,
    MethodConfig,
    ModelDims,
    SngpConfig,
    init_model,
    is_deep_ensemble,
)
from seqcal.training import TrainHyper, split_rows, train_method

VOCAB = 14
DIMS = ModelDims(vocab_size=VOCAB, embed_dim=16, hidden_dim=32)
RUN_SEED = 17

# The last three keys keep their names so the test ids stay the same.
CONFIGS = {
    "beam3": PosteriorConfig(beam_size=3, max_len=4),
    "greedy": PosteriorConfig(beam_size=1, max_len=4),
    "wide-raw": PosteriorConfig(beam_size=VOCAB + 2, max_len=3),
    "prune-norm": PosteriorConfig(beam_size=4, max_len=4),
    "prune-norm-raw": PosteriorConfig(beam_size=2, max_len=5),
}


def method_config(method):
    seeds = (3, 4, 5) if is_deep_ensemble(method) else ()
    return MethodConfig(method=method, samples=3, be_size=3,
                        sngp=SngpConfig(rff_dim=64), seeds=seeds)


@pytest.fixture(scope="module")
def examples():
    spec = TaskSpec(kind="copy", input_len=4, output_len=4)
    return generate_corpus(spec, 40, VOCAB, seed=2)


@pytest.fixture(scope="module")
def trained(examples):
    hyper = TrainHyper(steps=40, batch_size=16, learning_rate=0.5)
    rows = split_rows(examples[:28], DIMS)
    return {
        method: train_method(rows, DIMS, method_config(method), hyper, seed=1)
        for method in METHODS
    }


def untrained(method, zero=False):
    config = method_config(method)
    seeds = config.seeds or (0,)
    members = tuple(init_model(DIMS, config, s) for s in seeds)
    for m in members:
        if zero:
            # all logits zero: uniform rows, so every score ties exactly
            # and only the token order decides
            for array in (m.embed, m.w_h, m.b_h, m.w_o, m.b_o):
                if array is not None:
                    array[:] = 0.0
    return members


def oracle_records(members, examples, config):
    return tuple(beam_oracle(members, ex.input, config, RUN_SEED, ex.id)
                 for ex in examples)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("method", METHODS)
def test_trained_models_match_oracle(trained, examples, method, config_name):
    config = CONFIGS[config_name]
    test = examples[28:]
    got = decode_corpus(trained[method], test, config, RUN_SEED)
    assert got == oracle_records(trained[method], test, config)


@pytest.mark.parametrize("zero", [False, True], ids=["init", "zero"])
@pytest.mark.parametrize("method", METHODS)
def test_untrained_models_match_oracle(examples, method, zero):
    members = untrained(method, zero=zero)
    test = examples[:8]
    for config in (CONFIGS["beam3"], CONFIGS["wide-raw"], CONFIGS["prune-norm"]):
        assert decode_corpus(members, test, config, RUN_SEED) == oracle_records(
            members, test, config)


def test_oracle_sees_a_changed_prefix_state(trained, examples, monkeypatch):
    # the oracle builds its own sums, so a package whose prefix states
    # (the decoder's (n, live, t) arrays) leave out the bos moves the
    # decode away from it
    real = inference.sum_embeddings

    def without_bos(embed, tokens):
        tokens = np.asarray(tokens, dtype=int)
        return real(embed, tokens[..., 1:] if tokens.ndim == 3 else tokens)

    members = trained["base"]
    test = examples[28:]
    config = CONFIGS["beam3"]
    expected = oracle_records(members, test, config)
    assert decode_corpus(members, test, config, RUN_SEED) == expected
    monkeypatch.setattr(inference, "sum_embeddings", without_bos)
    assert decode_corpus(members, test, config, RUN_SEED) != expected


def test_uniform_rows_pick_smallest_tokens(examples):
    # uniform rows score every closed hypothesis log(1/VOCAB) exactly,
    # whatever its length, so the token order decides and (3,), the
    # first content id, sorts first: pad and bos are never candidates
    members = untrained("base", zero=True)
    config = CONFIGS["beam3"]
    for rec in decode_corpus(members, examples[:5], config, RUN_SEED):
        assert rec.hypothesis == (3,)
        assert rec.token_logp == (float(np.log(1.0 / VOCAB)),)


@pytest.mark.parametrize("method", METHODS)
def test_batch_invariance(trained, examples, method):
    members = trained[method]
    config = CONFIGS["beam3"]
    full = {r.id: r for r in decode_corpus(members, examples, config, RUN_SEED)}
    reversed_ = decode_corpus(members, examples[::-1], config, RUN_SEED)
    subset = decode_corpus(members, examples[1::3], config, RUN_SEED)
    single = decode_corpus(members, examples[5:6], config, RUN_SEED)
    for rec in reversed_ + subset + single:
        assert rec == full[rec.id]
    assert [r.id for r in reversed_] == [ex.id for ex in examples[::-1]]


def test_beam_decode_is_one_example_batch(trained, examples):
    members = trained["sngp_mcd"]
    config = CONFIGS["beam3"]
    batch = decode_corpus(members, examples[:6], config, RUN_SEED)
    for ex, rec in zip(examples[:6], batch):
        assert beam_decode(members, ex.input, config, run_seed=RUN_SEED,
                           example_id=ex.id) == rec


def test_empty_corpus_and_bad_input(trained, examples):
    members = trained["base"]
    assert decode_corpus(members, [], CONFIGS["beam3"], RUN_SEED) == ()
    with pytest.raises(InputError, match="input token"):
        beam_decode(members, (3, VOCAB), CONFIGS["beam3"], run_seed=0, example_id="x")


def test_inputs_of_mixed_lengths_match_beam_decode(trained, examples):
    # contexts are summed once per input length over the stacked inputs
    # of that length; lengths interleave so each group is scattered back
    test = [ExampleRecord(id=f"mixed-{i}", input=ex.input[:length], reference=ex.reference)
            for i, (ex, length) in enumerate(zip(examples[28:], (4, 1, 3, 4, 1, 2, 3, 4)))]
    config = CONFIGS["beam3"]
    for method in METHODS:
        members = trained[method]
        got = decode_corpus(members, test, config, RUN_SEED)
        assert got == tuple(beam_decode(members, ex.input, config, run_seed=RUN_SEED,
                                        example_id=ex.id) for ex in test)


@st.composite
def candidate_rows(draw):
    """key (n, c) from a few values, so ties are common, and token rows
    (n, c, t) of 0 to t ids padded with -1, as the search's prefixes are."""
    n = draw(st.integers(1, 4))
    c = draw(st.integers(1, 10))
    t = draw(st.integers(1, 3))
    key = draw(st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.75, 2.0, np.inf]),
                        min_size=n * c, max_size=n * c))
    tokens = np.full((n, c, t), -1)
    for r, j in np.ndindex(n, c):
        seq = draw(st.lists(st.integers(3, 5), max_size=t))
        tokens[r, j, : len(seq)] = seq
    return np.array(key).reshape(n, c), tokens, draw(st.integers(1, c + 1))


@settings(max_examples=300, deadline=None)
@given(candidate_rows())
def test_partial_selection_is_the_full_sort_prefix(case):
    key, tokens, k = case
    read = []

    def token_rows(rows, cols):
        read.append((rows, cols))
        return tokens[rows, cols]

    got = inference._first_by(key, token_rows, k)
    assert got.tolist() == sorted_by_oracle(key, tokens)[:, :k].tolist()
    # token rows are read once, and only for entries that can be among the
    # first k: at most the row's k-th smallest key
    (rows, cols), = read
    kth = np.sort(key, axis=1)[:, min(k, key.shape[1]) - 1]
    assert np.all(key[rows, cols] <= kth[rows])


def test_pruning_sorts_at_most_beam_size_candidates(monkeypatch):
    # the partial selection leaves the records' bits alone, so only the
    # sort sizes show a return to sorting all live x vocab candidates;
    # untrained random weights give distinct scores, so no key ties at a
    # row's threshold and each example contributes at most beam_size
    dims = ModelDims(vocab_size=200, embed_dim=16, hidden_dim=32)
    members = (init_model(dims, MethodConfig(method="base"), 0),)
    test = generate_corpus(TaskSpec(kind="copy", input_len=4, output_len=4), 6, 200, seed=3)
    config = PosteriorConfig(beam_size=4, max_len=4)
    real = np.lexsort
    sizes = []

    def counted(keys, *args, **kwargs):
        sizes.append(np.size(keys[-1]))
        return real(keys, *args, **kwargs)

    monkeypatch.setattr(np, "lexsort", counted)
    decode_corpus(members, test, config, RUN_SEED)
    assert len(sizes) == config.max_len + 1
    assert max(sizes) <= config.beam_size * len(test)


def test_decode_memory_does_not_grow_with_max_len_times_vocab():
    # a step's candidates are (n, live x content); keeping any per-step
    # array of that width, or each step's (n, live, vocab) log-probs, to the
    # end of the search makes the peak grow with max_len x vocab
    dims = ModelDims(vocab_size=200, embed_dim=16, hidden_dim=32)
    members = (init_model(dims, MethodConfig(method="base"), 0),)
    test = generate_corpus(TaskSpec(kind="copy", input_len=8, output_len=8), 30, 200, seed=3)

    def peak(max_len):
        config = PosteriorConfig(beam_size=4, max_len=max_len)
        decode_corpus(members, test, config, RUN_SEED)  # warm lazy state first
        tracemalloc.start()
        try:
            decode_corpus(members, test, config, RUN_SEED)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_step = len(test) * 4 * dims.vocab_size * 8  # an (n, beam, vocab) float64
    assert peak(8) - peak(2) < 2 * one_step

