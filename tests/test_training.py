"""Training loop behavior and bundle serialization."""

import json
import math
import os
import re
import signal
import time
import tracemalloc
from dataclasses import fields, is_dataclass
from types import SimpleNamespace

import numpy as np
import pytest

import seqcal.training as training
from oracles import (
    as_format_7,
    batch_loss,
    batch_rows_oracle,
    bundle_dump_oracle,
    decode_array,
    edit_array,
    encode_array,
    precision_oracle,
    rows_oracle,
)
from seqcal.corpus import TaskSpec, generate_corpus
from seqcal.errors import ConfigurationError, InputError, TrainingError, ValidationError
from seqcal.model import (
    METHODS,
    BatchEnsembleState,
    Member,
    MethodConfig,
    RowStructure,
    SPEC_NORM_BOUND,
    ModelDims,
    SngpConfig,
    SngpState,
    _loss_and_grads,
    build_rows,
    factor_precision,
    forward,
    gp_features,
    init_model,
    predictive_variance,
    trainable,
    uses_gp,
)
from seqcal.schema import from_json, to_json
from seqcal.training import (
    BUNDLE_FORMAT_VERSION,
    LOSS_CHUNK_ROWS,
    TrainHyper,
    _batch_rows,
    _member_file,
    _params_finite,
    evaluate_loss,
    member_pool,
    read_bundle,
    split_rows,
    train_member,
    train_method,
    write_bundle,
)


# The run stamp the bundles of these tests are written and read with.
STAMP = "5a" * 32


def copy_corpus(n=120, seed=0):
    spec = TaskSpec(kind="copy", input_len=3, output_len=3)
    return 8, generate_corpus(spec, n, 8, seed)


def dims_for(vocab_size):
    return ModelDims(vocab_size=vocab_size, embed_dim=6, hidden_dim=8)


def rows_for(vocab_size, examples):
    return split_rows(examples, dims_for(vocab_size))


class TestHyper:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="steps"):
            TrainHyper(steps=-1)
        with pytest.raises(ConfigurationError, match="batch_size"):
            TrainHyper(batch_size=0)
        with pytest.raises(ConfigurationError, match="learning_rate"):
            TrainHyper(learning_rate=0.0)


class TestTrainMember:
    def test_zero_steps_keeps_initialization(self):
        vocab_size, examples = copy_corpus()
        dims = dims_for(vocab_size)
        cfg = MethodConfig(method="base")
        trained = train_member(split_rows(examples, dims), dims, cfg,
                               TrainHyper(steps=0), seed=5)
        fresh = init_model(dims, cfg, seed=5)
        assert np.array_equal(trained.embed, fresh.embed)
        assert np.array_equal(trained.w_o, fresh.w_o)
        assert trained.loss_history == ()

    def test_loss_drops_and_beats_uniform(self):
        vocab_size, examples = copy_corpus()
        dims = dims_for(vocab_size)
        cfg = MethodConfig(method="base")
        rows = split_rows(examples, dims)
        model = train_member(rows, dims, cfg, TrainHyper(steps=300), seed=1)
        initial = evaluate_loss(init_model(dims, cfg, seed=1), rows)
        final = evaluate_loss(model, rows)
        assert final < initial - 0.1
        assert final < math.log(vocab_size)
        assert len(model.loss_history) == 300
        assert all(math.isfinite(loss) for loss in model.loss_history)

    def test_deterministic_repetition(self):
        vocab_size, examples = copy_corpus(n=60)
        dims = dims_for(vocab_size)
        cfg = MethodConfig(method="mcd")
        rows = split_rows(examples, dims)
        a = train_member(rows, dims, cfg, TrainHyper(steps=40), seed=9)
        b = train_member(rows, dims, cfg, TrainHyper(steps=40), seed=9)
        assert np.array_equal(a.embed, b.embed)
        assert np.array_equal(a.w_o, b.w_o)
        assert a.loss_history == b.loss_history

    def test_batch_ensemble_trains_every_member(self):
        vocab_size, examples = copy_corpus(n=60)
        dims = dims_for(vocab_size)
        cfg = MethodConfig(method="be", be_size=3)
        model = train_member(split_rows(examples, dims), dims, cfg,
                             TrainHyper(steps=30), seed=4)
        fresh = init_model(dims, cfg, seed=4)
        for k in range(3):
            assert not np.array_equal(model.be.r[k], fresh.be.r[k])
            assert not np.array_equal(model.be.s[k], fresh.be.s[k])

    def test_spectral_bound_holds_throughout(self, monkeypatch):
        vocab_size, examples = copy_corpus(n=60)
        dims = dims_for(vocab_size)
        cfg = MethodConfig(method="sngp", sngp=SngpConfig(rff_dim=16))
        worst = []
        real = training.spectral_normalize

        def watch(w):
            # W_h as training holds it: the initial weights, then after each update
            out = real(w)
            worst.append(np.linalg.svd(out, compute_uv=False)[0])
            return out

        monkeypatch.setattr(training, "spectral_normalize", watch)
        model = train_member(split_rows(examples, dims), dims, cfg,
                             TrainHyper(steps=30), seed=3)
        bound = SPEC_NORM_BOUND
        assert len(worst) == 30 + 1
        assert max(worst) <= bound * 1.001
        assert np.linalg.svd(model.w_h, compute_uv=False)[0] <= bound * 1.001

    def test_gp_precision_finalized_after_training(self):
        vocab_size, examples = copy_corpus(n=50)
        cfg = MethodConfig(method="sngp", sngp=SngpConfig(rff_dim=12))
        model = train_member(rows_for(vocab_size, examples), dims_for(vocab_size), cfg,
                             TrainHyper(steps=10), seed=6)
        chol_inv = model.sngp.chol_inv
        assert not np.array_equal(chol_inv, np.eye(12))
        assert np.array_equal(chol_inv, np.tril(chol_inv))
        assert np.all(np.diag(chol_inv) > 0.0)

    def test_gp_precision_is_identity_plus_gram_of_every_training_row(self, monkeypatch):
        vocab_size, examples = copy_corpus(n=50)
        cfg = MethodConfig(method="sngp_mcd", sngp=SngpConfig(rff_dim=12))
        factored = []

        def capture(precision):
            factored.append(precision.copy())
            return factor_precision(precision)

        monkeypatch.setattr(training, "factor_precision", capture)
        model = train_member(rows_for(vocab_size, examples), dims_for(vocab_size), cfg,
                             TrainHyper(steps=10), seed=6)
        assert len(factored) == 1
        want = precision_oracle(model, examples)
        assert np.allclose(factored[0], want, rtol=1e-12, atol=1e-12)
        assert np.array_equal(model.sngp.chol_inv, factor_precision(factored[0]))

    def test_gp_variance_is_distance_aware(self):
        vocab_size, examples = copy_corpus()
        dims = dims_for(vocab_size)
        cfg = MethodConfig(method="sngp", sngp=SngpConfig(rff_dim=16))
        model = train_member(split_rows(examples, dims), dims, cfg,
                             TrainHyper(steps=30), seed=3)
        rows = build_rows(examples, dims)
        embed = model.embed
        z = np.concatenate([rows.ctx_weights.astype(float) @ embed,
                            rows.prefix_weights.astype(float) @ embed], axis=1)
        seen = predictive_variance(model.sngp, forward(model, z)["feat"])
        far_h = np.random.default_rng(0).uniform(-1.0, 1.0, (500, dims.hidden_dim))
        far = predictive_variance(model.sngp, gp_features(far_h, model.sngp)[1])
        assert 10.0 * seen.mean() < far.mean()

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_raises_with_step(self):
        # saturation keeps every float finite, so the detector has to
        # trip on the loss magnitude rather than on NaN
        vocab_size, examples = copy_corpus(n=30)
        with pytest.raises(TrainingError, match="step .*diverged"):
            train_member(rows_for(vocab_size, examples), dims_for(vocab_size), MethodConfig(method="base"),
                         TrainHyper(steps=50, learning_rate=1e300), seed=1)

    # The ids are those of the cases before the arrays moved onto the
    # member itself (then under `params`, `sngp_state` and `be_state`; the
    # GP head's w_o was `sngp_state`'s output weights).
    @pytest.mark.parametrize("method, path", [
        pytest.param("base", "embed", id="base-params-embed"),
        pytest.param("base", "w_h", id="base-params-w_h"),
        pytest.param("base", "b_h", id="base-params-b_h"),
        pytest.param("base", "w_o", id="base-params-w_o"),
        pytest.param("base", "b_o", id="base-params-b_o"),
        pytest.param("sngp", "w_o", id="sngp-sngp_state-beta"),
        pytest.param("be", "be.r", id="be-be_state-r"),
        pytest.param("be", "be.s", id="be-be_state-s"),
    ])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_update_fails_its_step(self, monkeypatch, method, path, bad):
        vocab_size, examples = copy_corpus(n=30)
        apply_update = training._apply_update
        steps_done = []

        def poisoned(arrays, grads, lr):
            apply_update(arrays, grads, lr)
            if len(steps_done) == 3:
                array = arrays[path]
                array.flat[array.size // 2] = bad
            steps_done.append(True)

        monkeypatch.setattr(training, "_apply_update", poisoned)
        with pytest.raises(TrainingError, match="non-finite") as err:
            train_member(rows_for(vocab_size, examples), dims_for(vocab_size),
                         MethodConfig(method=method), TrainHyper(steps=8), seed=1)
        assert err.value.step == 3

    def test_finite_parameters_whose_sum_overflows_pass(self):
        vocab_size, _ = copy_corpus(n=10)
        model = init_model(dims_for(vocab_size), MethodConfig(method="base"), seed=1)
        model.embed[:] = 1e308
        with np.errstate(over="ignore"):
            assert _params_finite(trainable(model))
            model.w_o[0, 0] = math.inf
            assert not _params_finite(trainable(model))

    def test_empty_examples_rejected(self):
        vocab_size, _ = copy_corpus(n=10)
        # training and evaluate_loss read rows built by split_rows, which
        # refuses an empty split
        with pytest.raises(InputError, match="at least one"):
            split_rows([], dims_for(vocab_size))


def chunked_split(vocab_size, n_examples):
    """A copy split with 4 rows per example (3 reference tokens plus eos)."""
    spec = TaskSpec(kind="copy", input_len=3, output_len=3)
    examples = generate_corpus(spec, n_examples, vocab_size, seed=2)
    dims = ModelDims(vocab_size=vocab_size, embed_dim=6, hidden_dim=8)
    return examples, dims, split_rows(examples, dims)


class TestEvaluateLoss:
    @pytest.mark.parametrize("method", ["base", "be", "sngp"])
    def test_chunks_agree_with_the_whole_split_loss(self, method):
        # three full chunks and a ragged fourth
        examples, dims, rows = chunked_split(12, LOSS_CHUNK_ROWS - 5)
        n_rows = len(rows.targets)
        assert 3 * LOSS_CHUNK_ROWS < n_rows < 4 * LOSS_CHUNK_ROWS
        cfg = MethodConfig(method=method, be_size=3, sngp=SngpConfig(rff_dim=16))
        model = init_model(dims, cfg, seed=4)
        # large embeddings spread the row losses, so a chunk weighted
        # wrongly moves the mean far beyond the tolerance
        model.embed *= 40.0
        got = evaluate_loss(model, rows)
        assert math.isclose(got, batch_loss(model, examples), rel_tol=1e-12)

    @pytest.mark.parametrize("method, rff_dim", [("base", 16), ("sngp", 256)])
    def test_peak_memory_is_set_by_the_chunk(self, method, rff_dim):
        _, dims, rows = chunked_split(200, 2 * LOSS_CHUNK_ROWS + 10)
        assert len(rows.targets) > 8 * LOSS_CHUNK_ROWS
        cfg = MethodConfig(method=method, sngp=SngpConfig(rff_dim=rff_dim))
        model = init_model(dims, cfg, seed=1)
        # one (chunk, max(vocab, rff_dim)) float64 array per unit; an
        # unchunked pass over this split peaks above 30 units
        unit = LOSS_CHUNK_ROWS * max(dims.vocab_size, rff_dim) * 8
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            evaluate_loss(model, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * unit

    def test_split_rows_peak_under_two_and_a_half_bytes_per_entry(self):
        # two float64 count arrays took 16 bytes per (row, vocab) entry;
        # one byte each, the targets and build_rows' temporaries come to
        # about 2.2
        examples, dims, _ = chunked_split(200, 2 * LOSS_CHUNK_ROWS + 10)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            rows = split_rows(examples, dims)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(rows.targets) * dims.vocab_size

    def test_base_loss_peaks_under_three_chunk_units(self):
        # the in-place loss holds one (chunk, vocab) float64 array, and
        # the counts are cast one at a time: about 1.5 units, where the
        # out-of-place loss with float64 counts took 5.2
        _, dims, rows = chunked_split(200, 2 * LOSS_CHUNK_ROWS + 10)
        model = init_model(dims, MethodConfig(method="base"), seed=1)
        unit = LOSS_CHUNK_ROWS * dims.vocab_size * 8
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            evaluate_loss(model, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * unit


class TestNarrowCounts:
    """Counts stored in one byte and cast per batch train the same bits
    as float64 counts."""

    @pytest.mark.parametrize("cfg", [
        MethodConfig(method="base"),
        MethodConfig(method="mcd"),
        MethodConfig(method="be", be_size=3),
        MethodConfig(method="sngp", sngp=SngpConfig(rff_dim=16)),
    ], ids=lambda cfg: cfg.method)
    def test_members_equal_those_of_float64_counts_bit_for_bit(self, cfg):
        # a wide vocabulary and repeated input tokens, so counts above
        # one enter every product; at embed_dim 4 (and 12, demo's), an
        # embedding gradient taken as a mixed uint8 x float64 product
        # rounds differently from the float64 one
        spec = TaskSpec(kind="noisy-paraphrase", input_len=8, output_len=6, noise_rate=0.3)
        examples = generate_corpus(spec, 80, 60, seed=5)
        dims = ModelDims(vocab_size=60, embed_dim=4, hidden_dim=8)
        narrow = split_rows(examples, dims)
        assert narrow.ctx_weights.dtype == np.uint8
        assert narrow.ctx_weights.max() > 1
        wide = RowStructure(*rows_oracle(examples, dims))
        assert wide.ctx_weights.dtype == wide.prefix_weights.dtype == np.float64
        hyper = TrainHyper(steps=15, batch_size=16)
        got = train_member(narrow, dims, cfg, hyper, seed=3)
        want = train_member(wide, dims, cfg, hyper, seed=3)
        assert_same_bits(got, want)
        assert [x.hex() for x in got.loss_history] == [x.hex() for x in want.loss_history]
        assert evaluate_loss(got, narrow).hex() == evaluate_loss(want, wide).hex()


class TestBatchRows:
    def test_matches_concatenated_spans(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            lengths = rng.integers(1, 7, size=int(rng.integers(1, 40)))
            ends = np.cumsum(lengths)
            structure = SimpleNamespace(row_spans=tuple(zip((ends - lengths).tolist(),
                                                            ends.tolist())))
            spans = np.asarray(structure.row_spans)
            picks = [rng.choice(len(lengths), size=int(rng.integers(1, len(lengths) + 1)),
                                replace=False),
                     rng.integers(0, len(lengths), size=int(rng.integers(1, 50)))]
            for idx in picks:
                want = batch_rows_oracle(structure, idx)
                got = _batch_rows(spans, idx)
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_variable_length_split(self):
        spec = TaskSpec(kind="keyword-extract", input_len=6, output_len=4, num_keywords=4)
        examples = generate_corpus(spec, 60, 12, seed=3)
        structure = split_rows(examples, ModelDims(vocab_size=12))
        assert len({b - a for a, b in structure.row_spans}) > 1
        order = np.random.default_rng(1)
        spans = np.asarray(structure.row_spans)
        for _ in range(50):
            idx = order.choice(60, size=16, replace=False)
            assert np.array_equal(_batch_rows(spans, idx), batch_rows_oracle(structure, idx))


class TestTrainMethod:
    def test_single_model_methods_return_one_member(self):
        vocab_size, examples = copy_corpus(n=40)
        members = train_method(rows_for(vocab_size, examples), dims_for(vocab_size),
                               MethodConfig(method="base"), TrainHyper(steps=5), seed=77)
        assert len(members) == 1
        assert members[0].seed == 77

    def test_deep_ensemble_members_use_their_seeds_and_differ(self):
        vocab_size, examples = copy_corpus(n=40)
        cfg = MethodConfig(method="de", seeds=(11, 12, 13))
        members = train_method(rows_for(vocab_size, examples), dims_for(vocab_size), cfg,
                               TrainHyper(steps=5), seed=0)
        assert [m.seed for m in members] == [11, 12, 13]
        assert not np.array_equal(members[0].embed, members[1].embed)
        assert not np.array_equal(members[1].w_o, members[2].w_o)


def assert_same_bits(a, b, where="member"):
    """Every field of two models equal, arrays in dtype, shape and bytes."""
    assert type(a) is type(b), where
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        at = f"{where}.{f.name}"
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), at
        elif is_dataclass(x) and not isinstance(x, (MethodConfig, ModelDims)):
            assert_same_bits(x, y, at)
        else:
            assert x == y, at


ENSEMBLES = (MethodConfig(method="de", seeds=(11, 12, 13)),
             MethodConfig(method="sngp_de", seeds=(21, 22), sngp=SngpConfig(rff_dim=8)))
SINGLE = (MethodConfig(method="base"), MethodConfig(method="sngp", sngp=SngpConfig(rff_dim=8)))


@pytest.mark.usefixtures("watchdog")
class TestEnsembleWorkers:
    """Every member comes from one `member_pool`, GP members first: at
    one CPU the caller trains them, on more one warm forked child per CPU
    trains member after member.  A test that kills or hangs a child keys
    on its job, and `no_children_left` checks that no child outlives the
    test."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_members_equal_serial_training_bit_for_bit(self, monkeypatch, cpus):
        vocab_size, examples = copy_corpus(n=40)
        rows, dims, hyper = rows_for(vocab_size, examples), dims_for(vocab_size), TrainHyper(steps=12)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        methods = [(cfg, 7) for cfg in SINGLE + ENSEMBLES]
        with member_pool(rows, dims, hyper, methods) as pool:
            for cfg, seed in methods:
                got = train_method(rows, dims, cfg, hyper, seed=seed, pool=pool)
                assert len(got) == cfg.n_members
                for member, s in zip(got, cfg.member_seeds(seed)):
                    assert_same_bits(member, train_member(rows, dims, cfg, hyper, s))

    def test_gp_members_are_queued_first(self, monkeypatch):
        vocab_size, examples = copy_corpus(n=40)
        rows, dims, hyper = rows_for(vocab_size, examples), dims_for(vocab_size), TrainHyper(steps=2)
        order = []

        def record(structure, dims, config, hyper, seed):
            order.append((config.method, seed))
            return train_member(structure, dims, config, hyper, seed)

        monkeypatch.setattr(training, "train_member", record)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        methods = [(cfg, 7) for cfg in SINGLE + ENSEMBLES]
        with member_pool(rows, dims, hyper, methods) as pool:
            train_method(rows, dims, SINGLE[0], hyper, seed=7, pool=pool)
        assert order == [("sngp", 7), ("sngp_de", 21), ("sngp_de", 22), ("base", 7)]

    def test_single_model_methods_train_in_the_caller(self, monkeypatch):
        """A pool of one job forks nothing, whatever the CPU count."""
        vocab_size, examples = copy_corpus(n=40)
        rows, dims, hyper = rows_for(vocab_size, examples), dims_for(vocab_size), TrainHyper(steps=5)
        caller = os.getpid()
        pids = []

        def record(*args, **kwargs):
            pids.append(os.getpid())
            return train_member(*args, **kwargs)

        monkeypatch.setattr(training, "train_member", record)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        train_method(rows, dims, MethodConfig(method="mcd"), hyper, seed=3)
        assert pids == [caller]

    def test_a_member_that_raises_is_raised_for_its_method_only(self, monkeypatch):
        vocab_size, examples = copy_corpus(n=40)
        rows, dims, hyper = rows_for(vocab_size, examples), dims_for(vocab_size), TrainHyper(steps=5)

        def fail_22(structure, dims, config, hyper, seed):
            if seed == 22:
                raise TrainingError("loss diverged (inf)", step=4)
            return train_member(structure, dims, config, hyper, seed)

        monkeypatch.setattr(training, "train_member", fail_22)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with member_pool(rows, dims, hyper, [(cfg, 0) for cfg in ENSEMBLES]) as pool:
            assert len(train_method(rows, dims, ENSEMBLES[0], hyper, 0, pool)) == 3
            with pytest.raises(TrainingError, match="^step 4: loss diverged") as info:
                train_method(rows, dims, ENSEMBLES[1], hyper, 0, pool)
            assert info.value.step == 4

    def test_a_dead_worker_is_a_training_error_naming_its_members(self, monkeypatch):
        """The child training sngp_de's seed 21 dies; de, whose members
        other children train, still comes back."""
        vocab_size, examples = copy_corpus(n=40)
        rows, dims, hyper = rows_for(vocab_size, examples), dims_for(vocab_size), TrainHyper(steps=5)
        caller = os.getpid()

        def kill_in_worker(structure, dims, config, hyper, seed):
            if seed == 21 and os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return train_member(structure, dims, config, hyper, seed)

        monkeypatch.setattr(training, "train_member", kill_in_worker)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with member_pool(rows, dims, hyper, [(cfg, 0) for cfg in ENSEMBLES]) as pool:
            assert len(train_method(rows, dims, ENSEMBLES[0], hyper, 0, pool)) == 3
            with pytest.raises(TrainingError, match=r"^the worker running sngp_de member "
                                                    r"seed 21 was killed by signal 9"):
                train_method(rows, dims, ENSEMBLES[1], hyper, 0, pool)

    def test_a_worker_leaving_without_its_list_is_a_training_error(self, monkeypatch):
        """A child that exits cleanly in the middle of its member, sngp_de's
        seed 21, leaves no result for it."""
        vocab_size, examples = copy_corpus(n=40)
        rows, dims, hyper = rows_for(vocab_size, examples), dims_for(vocab_size), TrainHyper(steps=5)
        caller = os.getpid()

        def leave(structure, dims, config, hyper, seed):
            if seed == 21 and os.getpid() != caller:
                os._exit(0)
            return train_member(structure, dims, config, hyper, seed)

        monkeypatch.setattr(training, "train_member", leave)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(TrainingError, match="sngp_de member seed 21 exited with status 0"):
            with member_pool(rows, dims, hyper, [(cfg, 0) for cfg in ENSEMBLES]) as pool:
                train_method(rows, dims, ENSEMBLES[1], hyper, 0, pool)

    def test_close_kills_and_reaps_running_workers(self, monkeypatch):
        vocab_size, examples = copy_corpus(n=40)
        rows, dims, hyper = rows_for(vocab_size, examples), dims_for(vocab_size), TrainHyper(steps=5)
        started, told = os.pipe()
        caller = os.getpid()

        def hang(*args, **kwargs):
            if os.getpid() != caller:
                os.write(told, b".")
                time.sleep(60)
            return train_member(*args, **kwargs)

        monkeypatch.setattr(training, "train_member", hang)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        begin = time.monotonic()
        try:
            with member_pool(rows, dims, hyper, [(cfg, 0) for cfg in ENSEMBLES]):
                assert os.read(started, 1) == b"."  # the worker is training
        finally:
            os.close(started)
            os.close(told)
        assert time.monotonic() - begin < 30


def count_forks(monkeypatch):
    """The pids of the children `os.fork` makes from now on in this test."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def gone_or_zombie(pid, within):
    """Whether process `pid` has ended (no /proc entry, or state Z) within
    `within` seconds."""
    deadline = time.monotonic() + within
    while True:
        try:
            with open(f"/proc/{pid}/stat") as stat:
                if stat.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return True
        except FileNotFoundError:
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)


class Unrebuildable(Exception):
    """Pickles, but its pickle cannot be loaded: it needs two arguments."""

    def __init__(self, a, b):
        super().__init__(a)


@pytest.mark.usefixtures("watchdog")
class TestJobPool:
    def test_every_job_runs_once_with_more_workers_than_cores(self, monkeypatch):
        """300 jobs over four warm children, one per CPU of a four-CPU
        mask, whatever this machine has; each job leaves its index in a
        side pipe when it runs, so a job lost or run twice shows there,
        and the pool forks exactly four times."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        forks = count_forks(monkeypatch)
        ran, record = os.pipe()

        def square(j):
            os.write(record, j.to_bytes(2, "little"))
            return j * j

        begin = time.monotonic()
        try:
            with training.JobPool(square, range(300), str) as pool:
                assert [pool.take(j) for j in range(300)] == [j * j for j in range(300)]
            log = os.read(ran, 1000)
        finally:
            os.close(ran)
            os.close(record)
        assert sorted(int.from_bytes(log[k:k + 2], "little")
                      for k in range(0, len(log), 2)) == list(range(300))
        assert time.monotonic() - begin < 30
        assert len(forks) == 4

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_an_unknown_job_is_a_key_error_at_once(self, monkeypatch, cpus):
        """Every job hangs, so a take that ran one or waited on a child
        would take a minute."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        begin = time.monotonic()
        with training.JobPool(lambda j: time.sleep(60), range(6), str) as pool:
            with pytest.raises(KeyError):
                pool.take(6)
        assert time.monotonic() - begin < 30

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_job_already_taken_is_a_key_error_at_once(self, monkeypatch, cpus):
        """Every job but 0 hangs, so a second take of 0 that ran another
        job or waited on a child would take a minute."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        begin = time.monotonic()
        with training.JobPool(lambda j: time.sleep(60) if j else "done", range(6), str) as pool:
            assert pool.take(0) == "done"
            with pytest.raises(KeyError):
                pool.take(0)
        assert time.monotonic() - begin < 30

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_results_larger_than_a_pipe_come_back_bit_identical(self, monkeypatch, cpus):
        """3 MB per result, far more than a pipe holds (64 KiB by default
        on Linux), so a child's write waits for this process to read."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))

        def draw(j):
            return np.random.default_rng(j).random(3 << 17)

        with training.JobPool(draw, range(5), str) as pool:
            got = [pool.take(j) for j in range(5)]
        for j, array in enumerate(got):
            assert array.tobytes() == draw(j).tobytes(), j

    def test_a_refused_fork_is_raised_and_leaks_no_pipe(self, monkeypatch):
        def refuse():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", refuse)
        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            training.JobPool(str, range(3), str)
        assert len(os.listdir("/proc/self/fd")) == before

    def test_a_result_that_cannot_be_pickled_fails_its_own_take_only(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

        def run(j):
            return (lambda: j) if j == 2 else j * j

        with training.JobPool(run, range(5), lambda j: f"job {j}") as pool:
            assert [pool.take(j) for j in (0, 1)] == [0, 1]
            with pytest.raises(TrainingError, match=r"^the worker running job 2 exited with "
                                                    r"status 1 before sending its result$"):
                pool.take(2)
            assert [pool.take(j) for j in (3, 4)] == [9, 16]

    def test_a_result_that_cannot_be_rebuilt_fails_its_own_take_only(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

        def run(j):
            if j == 1:
                raise Unrebuildable("a", "b")
            return j * j

        with training.JobPool(run, range(4), lambda j: f"job {j}") as pool:
            assert pool.take(0) == 0
            with pytest.raises(TrainingError, match=r"^the result of job 1 could not be read: "):
                pool.take(1)
            assert [pool.take(j) for j in (2, 3)] == [4, 9]

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_a_child_killed_mid_job_fails_that_take_only_and_is_replaced(self, monkeypatch,
                                                                         cpus):
        """Every job after 3 waits for a byte of `gate`, so jobs are still
        pending when job 3's child dies, whichever child runs faster."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        forks = count_forks(monkeypatch)
        caller = os.getpid()
        gate, release = os.pipe()

        def run(j):
            if j == 3 and os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            if j > 3:
                os.read(gate, 1)
            return j * j

        try:
            with training.JobPool(run, range(20), lambda j: f"job {j}") as pool:
                assert [pool.take(j) for j in range(3)] == [0, 1, 4]
                with pytest.raises(TrainingError, match=r"^the worker running job 3 was killed "
                                                        r"by signal 9 before sending its result$"):
                    pool.take(3)
                os.write(release, bytes(16))
                assert [pool.take(j) for j in range(4, 20)] == [j * j for j in range(4, 20)]
        finally:
            os.close(gate)
            os.close(release)
        assert len(forks) == cpus + 1

    def test_a_child_that_died_idle_is_replaced_and_its_next_job_kept(self, monkeypatch):
        """Job 0 swaps `os.read` in its child for an exit, so the child
        ends, having sent its frame, when it goes to read its next job.
        The pool reads the frame, finds the child dead when it hands it a
        job, and gives that job to a fresh child instead, failing nothing."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        forks = count_forks(monkeypatch)
        caller = os.getpid()

        def run(j):
            if j == 0 and os.getpid() != caller:
                os.read = lambda fd, n: os._exit(3)
            return j * j

        with training.JobPool(run, range(4), str) as pool:
            assert gone_or_zombie(forks[0], within=10)
            assert [pool.take(j) for j in range(4)] == [0, 1, 4, 9]
        assert len(forks) == 3

    def test_close_kills_a_hanging_busy_child_and_an_idle_one(self, monkeypatch):
        """Job 1 hangs for a minute; job 0's child is idle once its result
        is taken.  `close` returns at once and reaps both."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        forks = count_forks(monkeypatch)
        begin = time.monotonic()
        with training.JobPool(lambda j: time.sleep(60) if j else "done", range(2), str) as pool:
            assert pool.take(0) == "done"
        assert time.monotonic() - begin < 30
        assert len(forks) == 2

    def test_children_of_a_pool_whose_owner_died_leave(self, monkeypatch):
        """A helper process opens a two-CPU pool, takes job 0 and dies
        without `close`, leaving job 0's child idle and job 1's busy until
        this test releases it.  The idle child sees EOF on its command
        pipe and leaves at once; the busy one leaves when its job ends,
        since writing its frame fails with EPIPE.  Either would wait
        forever on a sibling that kept a copy of its pipe."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        gate, release = os.pipe()
        report, tell = os.pipe()
        helper = os.fork()
        if helper == 0:
            code = 1
            try:
                forks = count_forks(monkeypatch)  # job 0's child, then job 1's
                pool = training.JobPool(lambda j: os.read(gate, 1) if j else 0, range(2), str)
                pool.take(0)
                os.write(tell, b"".join(pid.to_bytes(4, "little") for pid in forks))
                code = 0
            finally:
                os._exit(code)
        os.close(tell)
        got = os.read(report, 8)
        assert os.waitpid(helper, 0)[1] == 0
        idle, busy = (int.from_bytes(got[k:k + 4], "little") for k in (0, 4))
        try:
            assert gone_or_zombie(idle, within=10)
            assert not gone_or_zombie(busy, within=0)
            os.write(release, b".")
            assert gone_or_zombie(busy, within=10)
        finally:
            for pid in (idle, busy):  # on failure, leave no orphan behind
                if not gone_or_zombie(pid, within=0):
                    os.kill(pid, signal.SIGKILL)
            for fd in (gate, release, report):
                os.close(fd)


class TestBundles:
    def _round_trip(self, tmp_path, cfg, seed=5):
        vocab_size, examples = copy_corpus(n=30)
        members = train_method(rows_for(vocab_size, examples), dims_for(vocab_size), cfg,
                               TrainHyper(steps=5), seed=seed)
        path = tmp_path / "bundle.json"
        write_bundle(members, path, STAMP)
        loaded = read_bundle(path, STAMP)
        assert len(loaded) == len(members)
        for orig, back in zip(members, loaded):
            assert back.config == orig.config
            assert back.dims == orig.dims
            assert back.seed == orig.seed
            assert back.loss_history == orig.loss_history
            assert np.array_equal(back.embed, orig.embed)
            assert np.array_equal(back.w_h, orig.w_h)
            assert np.array_equal(back.b_h, orig.b_h)
            assert np.array_equal(back.w_o, orig.w_o)
            if orig.b_o is not None:
                assert np.array_equal(back.b_o, orig.b_o)
            if orig.be is not None:
                assert np.array_equal(back.be.r, orig.be.r)
                assert np.array_equal(back.be.s, orig.be.s)
            if orig.sngp is not None:
                assert np.array_equal(back.sngp.w_r, orig.sngp.w_r)
                assert np.array_equal(back.sngp.chol_inv, orig.sngp.chol_inv)
        return path

    def test_round_trip_base(self, tmp_path):
        self._round_trip(tmp_path, MethodConfig(method="base"))

    def test_round_trip_batch_ensemble(self, tmp_path):
        self._round_trip(tmp_path, MethodConfig(method="be", be_size=3))

    def test_round_trip_gp_head(self, tmp_path):
        self._round_trip(tmp_path, MethodConfig(method="sngp", sngp=SngpConfig(rff_dim=10)))

    def test_round_trip_deep_ensemble(self, tmp_path):
        self._round_trip(tmp_path, MethodConfig(method="de", seeds=(3, 4)))

    def test_round_trip_gp_ensemble(self, tmp_path):
        cfg = MethodConfig(method="sngp_de", seeds=(3, 4), sngp=SngpConfig(rff_dim=8))
        self._round_trip(tmp_path, cfg)

    def test_wrong_format_version(self, tmp_path):
        path = self._round_trip(tmp_path, MethodConfig(method="base"))
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="format_version"):
            read_bundle(path, STAMP)

    @pytest.mark.parametrize("method", ["sngp", "sngp_de"])
    def test_format_7_gp_bundle_refused_by_its_version(self, tmp_path, method):
        # format 7 kept the GP head's output weights in sngp.beta with a
        # null w_o, a layout this format refuses; the version is read first
        path, payload = fresh_bundle(tmp_path, method)
        as_format_7(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match=re.escape(
                f"{path}: bundle has format_version 7, expected 8")):
            read_bundle(path, STAMP)
        payload["format_version"] = 8
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match=re.escape(
                "bundle.members[0].w_o must be a regular array")):
            read_bundle(path, STAMP)

    def test_member_count_mismatch(self, tmp_path):
        path = self._round_trip(tmp_path, MethodConfig(method="de", seeds=(3, 4)))
        payload = json.loads(path.read_text())
        payload["members"] = payload["members"][:1]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="members"):
            read_bundle(path, STAMP)
        payload["members"] = []
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="bundle needs at least one member"):
            read_bundle(path, STAMP)

    def test_shape_mismatch(self, tmp_path):
        path = self._round_trip(tmp_path, MethodConfig(method="base"))
        payload = json.loads(path.read_text())
        payload["members"][0]["embed"] = encode_array([[0.0, 1.0], [2.0, 3.0]])
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="shape"):
            read_bundle(path, STAMP)

    def test_bytes_match_streamed_json_dump(self, tmp_path):
        vocab_size, examples = copy_corpus(n=30)
        rows = rows_for(vocab_size, examples)
        for method in METHODS:
            seeds = (3, 4) if method in ("de", "sngp_de") else ()
            cfg = MethodConfig(method=method, be_size=2, seeds=seeds,
                               sngp=SngpConfig(rff_dim=10))
            members = train_method(rows, dims_for(vocab_size), cfg, TrainHyper(steps=4), seed=2)
            write_bundle(members, tmp_path / "new.json", STAMP)
            bundle_dump_oracle(members, tmp_path / "old.json", STAMP)
            new = (tmp_path / "new.json").read_bytes()
            assert new == (tmp_path / "old.json").read_bytes(), method

    def _gp_bundle(self, tmp_path):
        cfg = MethodConfig(method="sngp", sngp=SngpConfig(rff_dim=10))
        path = self._round_trip(tmp_path, cfg)
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize("edit, message", [
        (lambda sp: edit_array(sp, "chol_inv", lambda l: l.__setitem__((0, 1), 1e-3)),
         r"members\[0\]\.sngp\.chol_inv is not lower triangular"),
        (lambda sp: edit_array(sp, "chol_inv", lambda l: l.__setitem__((3, 3), 0.0)),
         r"members\[0\]\.sngp\.chol_inv has a diagonal entry <= 0"),
        (lambda sp: edit_array(sp, "chol_inv", lambda l: l.__setitem__((0, 0), -l[0, 0])),
         r"members\[0\]\.sngp\.chol_inv has a diagonal entry <= 0"),
        (lambda sp: sp.update(chol_inv=encode_array(np.zeros((10, 10)))),
         r"members\[0\]\.sngp\.chol_inv has a diagonal entry <= 0"),
        (lambda sp: sp.update(precision=sp.pop("chol_inv"), covariance_valid=True),
         r"members\[0\]\.sngp has unknown keys \['covariance_valid', 'precision'\]"),
    ], ids=["upper-triangle", "zero-diagonal", "negative-diagonal", "singular",
            "format-6-head"])
    def test_unusable_gp_precision_refused(self, tmp_path, edit, message):
        path, payload = self._gp_bundle(tmp_path)
        edit(payload["members"][0]["sngp"])
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match=message):
            read_bundle(path, STAMP)

    @pytest.mark.parametrize("method", ["de", "sngp_de"])
    def test_member_seeds_must_match_the_card(self, tmp_path, method):
        path, payload = fresh_bundle(tmp_path, method)
        assert len(read_bundle(path, STAMP)) == 2
        for seeds, at in (([4, 3], 0), ([3, 12345], 1)):
            for member, seed in zip(payload["members"], seeds):
                member["seed"] = seed
            path.write_text(json.dumps(payload))
            with pytest.raises(ValidationError, match=re.escape(
                    f"{path}: bundle.members[{at}].seed is {seeds[at]}, "
                    f"but method.seeds[{at}] is {(3, 4)[at]}")):
                read_bundle(path, STAMP)

    def test_missing_gp_state(self, tmp_path):
        cfg = MethodConfig(method="sngp", sngp=SngpConfig(rff_dim=10))
        path = self._round_trip(tmp_path, cfg)
        payload = json.loads(path.read_text())
        payload["members"][0]["sngp"] = None
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError,
                           match=r"members\[0\]\.sngp is null, expected an object"):
            read_bundle(path, STAMP)

    def test_not_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all")
        with pytest.raises(ValidationError, match="JSON"):
            read_bundle(path, STAMP)

    def test_write_refuses_a_partial_ensemble(self, tmp_path):
        # write_bundle and read_bundle apply one member-count rule
        vocab_size, examples = copy_corpus(n=20)
        members = train_method(rows_for(vocab_size, examples), dims_for(vocab_size),
                               MethodConfig(method="de", seeds=(1, 2)),
                               TrainHyper(steps=1), seed=0)
        with pytest.raises(ValidationError, match="expects 2 members, got 1"):
            write_bundle(members[:1], tmp_path / "de.json", STAMP)

    def test_mixed_members_rejected(self, tmp_path):
        vocab_size, examples = copy_corpus(n=20)
        rows = rows_for(vocab_size, examples)
        a = train_method(rows, dims_for(vocab_size), MethodConfig(method="de", seeds=(1, 2)),
                         TrainHyper(steps=1), seed=0)[0]
        b = train_method(rows, dims_for(vocab_size), MethodConfig(method="de", seeds=(1, 3)),
                         TrainHyper(steps=1), seed=0)[1]
        with pytest.raises(ValidationError, match="disagree on method"):
            write_bundle([a, b], tmp_path / "bad.json", STAMP)
        assert not (tmp_path / "bad.json").exists()


def _stored_arrays(obj):
    """Every array a bundle stores of the member file or head `obj`."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            yield value
        elif is_dataclass(value):
            yield from _stored_arrays(value)


def _array_bytes(members) -> int:
    """The bytes of every array a bundle of `members` stores."""
    return sum(a.nbytes for model in members for a in _stored_arrays(_member_file(model)))


def _gp_members(method, seeds=()):
    """Members of `method` at trend's dims (vocab 20, rff_dim 128), trained
    two steps so that their arrays hold full-precision floats."""
    examples = generate_corpus(TaskSpec(kind="copy", input_len=3, output_len=3), 40, 20, 0)
    dims = ModelDims(vocab_size=20)
    config = MethodConfig(method=method, seeds=seeds, sngp=SngpConfig(rff_dim=128))
    return train_method(split_rows(examples, dims), dims, config, TrainHyper(steps=2), seed=0)


class TestBundleMemory:
    """A bundle's arrays are encoded and decoded as raw bytes, one member
    at a time on write, with no Python float per element.  Encoding each
    element as a float and a decimal string peaked at 17.3 times the
    member's array bytes on write and 9.1 times the bundle's on read."""

    def _peak(self, call) -> int:
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_write_peaks_under_six_times_the_member_arrays(self, tmp_path):
        members = _gp_members("sngp")
        peak = self._peak(lambda: write_bundle(members, tmp_path / "sngp.json", STAMP))
        assert peak <= 6 * _array_bytes(members)

    def test_read_peaks_under_six_times_the_bundle_arrays(self, tmp_path):
        members = _gp_members("sngp_de", seeds=(3, 4, 5))
        path = tmp_path / "sngp_de.json"
        write_bundle(members, path, STAMP)
        peak = self._peak(lambda: read_bundle(path, STAMP))
        assert peak <= 6 * _array_bytes(members)


def small_config(method):
    seeds = (3, 4) if method in ("de", "sngp_de") else ()
    return MethodConfig(method=method, be_size=2, seeds=seeds, sngp=SngpConfig(rff_dim=5))


SMALL_DIMS = ModelDims(vocab_size=8, embed_dim=3, hidden_dim=4)
BODY = (("embed", 2), ("w_h", 2), ("b_h", 1), ("w_o", 2))
LINEAR_HEAD = (("b_o", 1),)
GP_HEAD = (("sngp.w_r", 2), ("sngp.b_r", 1), ("sngp.chol_inv", 2))
BE_HEAD = (("be.r", 2), ("be.s", 2))
ARRAY_AXES = [
    (method, key, axis)
    for method in METHODS
    for key, ndim in BODY + (GP_HEAD if uses_gp(method) else LINEAR_HEAD)
    + (BE_HEAD if method == "be" else ())
    for axis in range(ndim)
]


def fresh_bundle(tmp_path, method):
    """A bundle of untrained members, and its JSON."""
    config = small_config(method)
    members = [init_model(SMALL_DIMS, config, seed) for seed in config.member_seeds(0)]
    path = tmp_path / f"{method}.json"
    write_bundle(members, path, STAMP)
    return path, json.loads(path.read_text())


class TestBundleLayout:
    """Every array of every method is checked against the shape a fresh
    model of the bundle's method and dims has, by field path."""

    @pytest.mark.parametrize("method, key, axis", ARRAY_AXES,
                             ids=[f"{m}-{k}-{a}" for m, k, a in ARRAY_AXES])
    def test_each_dimension_off_by_one_refused(self, tmp_path, method, key, axis):
        path, payload = fresh_bundle(tmp_path, method)
        last = len(payload["members"]) - 1
        *heads, name = key.split(".")
        holder = payload["members"][last]
        for head in heads:
            holder = holder[head]
        good = decode_array(holder[name])
        n = good.shape[axis]
        for bad in (np.take(good, range(n + 1), axis=axis, mode="clip"),
                    np.take(good, range(n - 1), axis=axis)):
            holder[name] = encode_array(bad)
            path.write_text(json.dumps(payload))
            message = (f"bundle.members[{last}].{key} is an array of shape {bad.shape}, "
                       f"expected an array of shape {good.shape}")
            with pytest.raises(ValidationError, match=re.escape(f"{path}: {message}")):
                read_bundle(path, STAMP)
        holder[name] = encode_array(good)
        path.write_text(json.dumps(payload))
        assert len(read_bundle(path, STAMP)) == len(payload["members"])

    @pytest.mark.parametrize("method, key, value, message", [
        ("be", "be", None, "be is null, expected an object"),
        ("sngp", "sngp", None, "sngp is null, expected an object"),
        ("sngp_de", "sngp", None, "sngp is null, expected an object"),
        ("sngp", "w_o", None, "w_o must be a regular array of numbers stored as "
         '{"shape", "f8"}, got NoneType'),
        ("sngp", "b_o", encode_array([0.0] * 8), "b_o is an array of shape (8,), expected null"),
        ("base", "be", {"r": encode_array([[1.0] * 4] * 2), "s": encode_array([[1.0] * 6] * 2)},
         "be is an object, expected null"),
    ], ids=["be-null", "sngp-null", "sngp_de-null", "w_o-null", "gp-with-b_o", "base-with-be"])
    def test_head_presence_follows_the_method(self, tmp_path, method, key, value, message):
        path, payload = fresh_bundle(tmp_path, method)
        last = len(payload["members"]) - 1
        payload["members"][last][key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError,
                           match=re.escape(f"bundle.members[{last}].{message}")):
            read_bundle(path, STAMP)

    @pytest.mark.parametrize("method", METHODS)
    def test_member_file_round_trip(self, method):
        vocab_size, examples = copy_corpus(n=30)
        members = train_method(rows_for(vocab_size, examples), dims_for(vocab_size), small_config(method),
                               TrainHyper(steps=3), seed=1)
        for model in members:
            stored = _member_file(model)
            payload = json.loads(json.dumps(to_json(stored)))
            back = from_json(Member, payload, "member")
            assert back.seed == model.seed and back.loss_history == model.loss_history
            assert len(back.loss_history) == 3
            for name in ("embed", "w_h", "b_h", "w_o", "b_o", "be", "sngp"):
                want, got = getattr(stored, name), getattr(back, name)
                if want is None:
                    assert got is None, name
                    continue
                pairs = ([(name, want, got)] if isinstance(want, np.ndarray) else
                         [(f"{name}.{k}", v, getattr(got, k)) for k, v in vars(want).items()
                          if isinstance(v, np.ndarray)])
                assert pairs, name
                for at, w, g in pairs:
                    assert g.dtype == np.float64 and np.array_equal(g, w), at

    @pytest.mark.parametrize("cls", [Member, SngpState, BatchEnsembleState])
    def test_every_member_field_is_stored(self, cls):
        # the bundle stores a dataclass's init fields only, so a field
        # outside __init__ would be state that no bundle keeps
        assert all(f.init for f in fields(cls)), [f.name for f in fields(cls) if not f.init]

    @pytest.mark.parametrize("method", METHODS)
    def test_trainable_is_the_gradient_layout(self, method):
        # the gradients hold exactly the trainable arrays' keys and shapes,
        # and each key is the path of its array from a Member field
        vocab_size, examples = copy_corpus(n=10)
        model = init_model(dims_for(vocab_size), small_config(method), seed=2)
        rows = rows_for(vocab_size, examples)
        _, grads = _loss_and_grads(model, rows, np.arange(len(rows.targets)),
                                   be_member=1 if method == "be" else 0, dropout_seed=5)
        arrays = trainable(model)
        assert sorted(grads) == sorted(arrays)
        for path, array in arrays.items():
            assert grads[path].shape == array.shape, path
            head, *names = path.split(".")
            assert head in {f.name for f in fields(Member)}, path
            value = getattr(model, head)
            for name in names:
                value = getattr(value, name)
            assert value is array, path


# The stored layout of bundle format 8, by dotted key path, in file order.
# A change to `ModelDims`, `MethodConfig`, `SngpConfig`, `Member` or a head
# moves these paths and is a new format: bump BUNDLE_FORMAT_VERSION and
# write the new table, so a bundle of the old layout is refused by its
# version rather than by its unknown keys.
FORMAT_8_HEAD = ["format_version", "method", "dims", "run_sha256", "members"]
FORMAT_8_CARDS = {
    "dims": ["vocab_size", "embed_dim", "hidden_dim"],
    "method": ["method", "samples", "be_size", "sngp.rff_dim", "sngp.mean_field_factor",
               "seeds"],
}
FORMAT_8_BODY = ["seed", "loss_history", "embed", "w_h", "b_h", "w_o", "b_o"]
FORMAT_8_GP = ["sngp.w_r", "sngp.b_r", "sngp.chol_inv"]
FORMAT_8_MEMBERS = {
    "base": FORMAT_8_BODY + ["be", "sngp"],
    "mcd": FORMAT_8_BODY + ["be", "sngp"],
    "be": FORMAT_8_BODY + ["be.r", "be.s", "sngp"],
    "sngp": FORMAT_8_BODY + ["be"] + FORMAT_8_GP,
    "sngp_mcd": FORMAT_8_BODY + ["be"] + FORMAT_8_GP,
    "de": FORMAT_8_BODY + ["be", "sngp"],
    "sngp_de": FORMAT_8_BODY + ["be"] + FORMAT_8_GP,
}


def key_paths(obj, prefix=""):
    """Dotted key paths of a parsed JSON object, in order; an encoded array,
    a scalar or a null is a leaf."""
    paths = []
    for key, value in obj.items():
        if isinstance(value, dict) and value.keys() != {"shape", "f8"}:
            paths += key_paths(value, f"{prefix}{key}.")
        else:
            paths.append(prefix + key)
    return paths


class TestBundleFormat:
    @pytest.mark.parametrize("method", METHODS)
    def test_stored_layout_matches_the_format_table(self, tmp_path, method):
        _, payload = fresh_bundle(tmp_path, method)
        assert payload["format_version"] == BUNDLE_FORMAT_VERSION == 8
        assert list(payload) == FORMAT_8_HEAD
        for card, paths in FORMAT_8_CARDS.items():
            assert key_paths(payload[card]) == paths, card
        for member in payload["members"]:
            assert key_paths(member) == FORMAT_8_MEMBERS[method]


class TestRunStamp:
    """A bundle loads only in the run whose stamp it stores."""

    def test_mismatch_rejected_and_match_passes(self, tmp_path):
        vocab_size, examples = copy_corpus(n=20)
        members = train_method(rows_for(vocab_size, examples), dims_for(vocab_size),
                               MethodConfig(method="base"), TrainHyper(steps=1), seed=1)
        path = tmp_path / "base.json"
        write_bundle(members, path, STAMP)
        assert json.loads(path.read_text())["run_sha256"] == STAMP
        assert len(read_bundle(path, STAMP)) == 1
        other = "c3" * 32
        with pytest.raises(ValidationError, match=re.escape(
                f"{path}: bundle was trained in another run: its run_sha256 is "
                f"{STAMP[:12]!r}, this run's {other[:12]!r}")):
            read_bundle(path, other)

    @pytest.mark.parametrize("stored", ["", "5a", STAMP.upper()])
    def test_any_other_stored_stamp_is_refused(self, tmp_path, stored):
        path, payload = fresh_bundle(tmp_path, "base")
        payload["run_sha256"] = stored
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="trained in another run"):
            read_bundle(path, STAMP)

    def test_missing_stamp_is_refused(self, tmp_path):
        path, payload = fresh_bundle(tmp_path, "base")
        del payload["run_sha256"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="run_sha256"):
            read_bundle(path, STAMP)
