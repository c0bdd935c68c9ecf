"""Forward pass, heads, and numerical components of the model."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import (
    batch_loss,
    cross_entropy_oracle,
    forward_oracle,
    package_dist,
    rows_oracle,
)
from seqcal.corpus import BOS_ID, EOS_ID, PAD_ID, ExampleRecord, content_ids, make_vocabulary
from seqcal.errors import ConfigurationError, InputError, NumericalStateError
from seqcal.model import (
    DROPOUT_RATE,
    MEAN_FIELD_FACTOR,
    SPEC_NORM_BOUND,
    MethodConfig,
    ModelDims,
    SngpConfig,
    _cross_entropy,
    build_rows,
    dropout_mask,
    factor_precision,
    forward,
    gp_features,
    init_model,
    mean_field_logits,
    predictive_variance,
    spectral_normalize,
    sum_embeddings,
    update_precision,
)
from seqcal.rng import derive_key, derive_seed, stream
from seqcal.schema import from_json, to_json


def small_dims(vocab=8):
    return ModelDims(vocab_size=vocab, embed_dim=5, hidden_dim=7)


def narrowest_unsigned(largest):
    """The narrowest unsigned integer type whose range holds `largest`."""
    return next(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                if np.iinfo(t).max >= largest)


def assert_rows_match_oracle(rows, examples, dims):
    """build_rows' counts equal rows_oracle's float64 ones in value and
    sit in the narrowest unsigned type that holds the split's largest
    count; targets and row_spans are the oracle's exactly."""
    want_ctx, want_prefix, want_targets, want_spans = rows_oracle(examples, dims)
    largest = max(want_ctx.max(), want_prefix.max())
    for got, want in ((rows.ctx_weights, want_ctx), (rows.prefix_weights, want_prefix)):
        assert got.dtype == narrowest_unsigned(largest)
        assert got.shape == want.shape and np.array_equal(got, want)
    assert rows.targets.dtype == want_targets.dtype
    assert np.array_equal(rows.targets, want_targets)
    assert rows.row_spans == want_spans


def random_tokens(rs, vocab, lo=1, hi=6):
    n = int(rs.integers(lo, hi + 1))
    return tuple(int(t) for t in rs.integers(0, vocab, size=n))


class TestDims:
    def test_vocab_floor(self):
        with pytest.raises(ConfigurationError, match="vocab_size 3 leaves no content id"):
            ModelDims(vocab_size=3)

    def test_special_ids_in_range(self):
        # the smallest vocabulary ModelDims accepts holds the special ids
        # and a content id
        ModelDims(vocab_size=4)
        assert max(PAD_ID, BOS_ID, EOS_ID) < 4
        assert content_ids(4) == range(3, 4)

    def test_special_ids_distinct(self):
        assert sorted((PAD_ID, BOS_ID, EOS_ID)) == [0, 1, 2]
        symbols = make_vocabulary(4).symbols
        assert len({symbols[PAD_ID], symbols[BOS_ID], symbols[EOS_ID]}) == 3


class TestMethodConfig:
    def test_unknown_method(self):
        with pytest.raises(ConfigurationError, match="method"):
            MethodConfig(method="bayesian")

    def test_deep_ensemble_needs_seeds(self):
        with pytest.raises(ConfigurationError, match="member seeds"):
            MethodConfig(method="de", seeds=(1,))

    def test_deep_ensemble_seeds_distinct(self):
        with pytest.raises(ConfigurationError, match="distinct"):
            MethodConfig(method="de", seeds=(1, 1, 2))

    def test_single_model_rejects_seed_list(self):
        with pytest.raises(ConfigurationError, match="takes no member seeds, got 2"):
            MethodConfig(method="mcd", seeds=(1, 2))

    @pytest.mark.parametrize("method", ["base", "mcd", "be", "sngp", "sngp_mcd"])
    def test_single_model_rejects_one_seed(self, method):
        # member_seeds would ignore it and train from the stage seed
        with pytest.raises(ConfigurationError, match="takes no member seeds, got 1"):
            MethodConfig(method=method, seeds=(7,))

    def test_sngp_knob_ranges(self):
        with pytest.raises(ConfigurationError, match="rff_dim"):
            SngpConfig(rff_dim=0)

    @pytest.mark.parametrize("knob", ["cov_momentum", "power_iters", "kernel_scale",
                                      "spec_norm_bound", "mean_field_factor"])
    def test_retired_sngp_knobs_refused(self, knob):
        with pytest.raises(TypeError, match=knob):
            SngpConfig(**{knob: 1})

    def test_negative_factor_rejected(self):
        # the factor `mean_field_logits` scales by is the constant
        # MEAN_FIELD_FACTOR: neither a config nor the method card a bundle
        # stores can carry another value, a negative one included
        assert MEAN_FIELD_FACTOR >= 0.0
        with pytest.raises(TypeError, match="mean_field_factor"):
            SngpConfig(mean_field_factor=-1e-4)
        card = to_json(MethodConfig(method="sngp"))
        card["sngp"]["mean_field_factor"] = -1.0
        with pytest.raises(ConfigurationError, match="mean_field_factor"):
            from_json(MethodConfig, card, "bundle.method")

    def test_dropout_rate_is_a_constant(self):
        # the rate is DROPOUT_RATE for every method; the config has no knob
        with pytest.raises(TypeError, match="dropout_rate"):
            MethodConfig(method="mcd", dropout_rate=0.1)
        assert 0.0 < DROPOUT_RATE < 1.0 and SPEC_NORM_BOUND > 0.0
        assert MEAN_FIELD_FACTOR >= 0.0


class TestInit:
    def test_base_shapes_and_zero_biases(self):
        dims = small_dims()
        m = init_model(dims, MethodConfig(method="base"), seed=11)
        assert m.embed.shape == (8, 5)
        assert m.w_h.shape == (7, 10)
        assert m.w_o.shape == (8, 7)
        assert np.all(m.b_h == 0.0) and np.all(m.b_o == 0.0)
        assert m.sngp is None and m.be is None

    def test_deterministic_and_seed_sensitive(self):
        dims = small_dims()
        a = init_model(dims, MethodConfig(method="base"), seed=3)
        b = init_model(dims, MethodConfig(method="base"), seed=3)
        c = init_model(dims, MethodConfig(method="base"), seed=4)
        assert np.array_equal(a.embed, b.embed)
        assert np.array_equal(a.w_o, b.w_o)
        assert not np.array_equal(a.embed, c.embed)

    def test_gp_head_replaces_output_layer(self):
        dims = small_dims()
        cfg = MethodConfig(method="sngp", sngp=SngpConfig(rff_dim=16))
        m = init_model(dims, cfg, seed=5)
        assert m.w_o.shape == (8, 16) and m.b_o is None
        assert m.sngp.w_r.shape == (16, 7)
        assert np.array_equal(m.sngp.chol_inv, np.eye(16))
        assert np.all((m.sngp.b_r >= 0.0) & (m.sngp.b_r < 2.0 * math.pi))

    def test_feature_weights_are_the_unscaled_rff_draws(self):
        # an RBF kernel of length scale 1: the feature weights are the rff
        # stream's standard normal draws as they come
        dims = small_dims()
        m = init_model(dims, MethodConfig(method="sngp", sngp=SngpConfig(rff_dim=16)), seed=9)
        assert np.array_equal(m.sngp.w_r, stream(9, "rff").standard_normal((16, 7)))

    def test_batch_ensemble_fast_weights_near_one(self):
        dims = small_dims()
        m = init_model(dims, MethodConfig(method="be", be_size=3), seed=2)
        assert m.be.r.shape == (3, 7)
        assert m.be.s.shape == (3, 10)
        assert np.all(np.abs(m.be.r - 1.0) <= 0.1)
        assert np.all(np.abs(m.be.s - 1.0) <= 0.1)


def z_row(model, inp, prefix):
    """[summed input embeddings; summed embeddings of bos and the prefix]."""
    embed = model.embed
    state = embed[[BOS_ID, *prefix]].sum(axis=0)
    return np.concatenate([embed[list(inp)].sum(axis=0), state])


def logits(model, inp, prefix, **kwargs):
    return forward(model, z_row(model, inp, prefix), **kwargs)["logits"]


def one_step(model, inp, prefix, run_seed=0):
    return package_dist([model], inp, prefix, run_seed=run_seed,
                        example_id="x", step=0)


class TestForward:
    def test_matches_scalar_oracle_base(self):
        rs = np.random.default_rng(100)
        for trial in range(30):
            vocab = int(rs.integers(4, 12))
            dims = ModelDims(vocab_size=vocab, embed_dim=int(rs.integers(2, 6)),
                             hidden_dim=int(rs.integers(2, 8)))
            m = init_model(dims, MethodConfig(method="base"), seed=trial)
            inp = random_tokens(rs, vocab)
            prefix = random_tokens(rs, vocab, lo=0, hi=4)
            got = logits(m, inp, prefix)
            want = forward_oracle(m, inp, prefix)
            assert np.allclose(got, want, atol=1e-12)

    def test_matches_scalar_oracle_gp_head(self):
        rs = np.random.default_rng(200)
        for trial in range(20):
            vocab = int(rs.integers(4, 10))
            dims = ModelDims(vocab_size=vocab, embed_dim=3, hidden_dim=4)
            cfg = MethodConfig(method="sngp", sngp=SngpConfig(rff_dim=int(rs.integers(2, 20))))
            m = init_model(dims, cfg, seed=1000 + trial)
            inp = random_tokens(rs, vocab)
            prefix = random_tokens(rs, vocab, lo=0, hi=4)
            got = logits(m, inp, prefix)
            want = forward_oracle(m, inp, prefix)
            assert np.allclose(got, want, atol=1e-12)

    def test_prefix_state_is_the_sum_over_bos_and_its_tokens(self):
        dims = small_dims()
        m = init_model(dims, MethodConfig(method="base"), seed=7)
        inp = (3, 4)
        ctx = m.embed[3] + m.embed[4]
        bos = m.embed[BOS_ID]
        for prefix, state in (((), bos), ((5,), bos + m.embed[5]),
                              ((5, 5, 6), bos + m.embed[5] + m.embed[5] + m.embed[6])):
            want = forward(m, np.concatenate([ctx, state]))["logits"]
            probs = np.exp(want - want.max())
            assert np.allclose(one_step(m, inp, prefix), probs / probs.sum(), atol=1e-12)
        # a state counts its tokens: a repeated token moves it
        assert not np.allclose(one_step(m, inp, (5,)), one_step(m, inp, (5, 5)))

    def test_dropout_methods_without_seed_match_base(self):
        # same init seed draws identical shared weights for base and mcd
        dims = small_dims()
        base = init_model(dims, MethodConfig(method="base"), seed=21)
        mcd = init_model(dims, MethodConfig(method="mcd"), seed=21)
        a = logits(base, (3, 4, 5), (6,))
        b = logits(mcd, (3, 4, 5), (6,))
        assert np.array_equal(a, b)

    def test_dropout_seed_changes_and_reproduces(self):
        dims = small_dims()
        m = init_model(dims, MethodConfig(method="mcd"), seed=21)
        masks = {seed: dropout_mask(seed, dims.hidden_dim) for seed in (77, 78)}
        plain = logits(m, (3, 4), (5,))
        s1 = logits(m, (3, 4), (5,), mask=masks[77])
        s1again = logits(m, (3, 4), (5,), mask=dropout_mask(77, dims.hidden_dim))
        s2 = logits(m, (3, 4), (5,), mask=masks[78])
        assert np.array_equal(s1, s1again)
        assert not np.array_equal(plain, s1)
        assert not np.array_equal(s1, s2)
        assert np.allclose(s1, forward_oracle(m, (3, 4), (5,), mask=masks[77]), atol=1e-12)
        assert np.allclose(s2, forward_oracle(m, (3, 4), (5,), mask=masks[78]), atol=1e-12)

    def test_non_dropout_method_ignores_sample_seed(self):
        # decode-time samples derive from the run seed; base draws none
        dims = small_dims()
        m = init_model(dims, MethodConfig(method="base"), seed=21)
        a = one_step(m, (3, 4), (5,), run_seed=0)
        b = one_step(m, (3, 4), (5,), run_seed=123)
        assert np.array_equal(a, b)

    def test_unit_fast_weights_match_base(self):
        # shared draws coincide for base and be up to the point the fast
        # weights are drawn, so forcing r=s=1 must reproduce base exactly
        dims = small_dims()
        base = init_model(dims, MethodConfig(method="base"), seed=13)
        be = init_model(dims, MethodConfig(method="be", be_size=3), seed=13)
        be.be.r[:] = 1.0
        be.be.s[:] = 1.0
        want = logits(base, (3, 4, 6), (7,))
        for k in range(3):
            got = logits(be, (3, 4, 6), (7,), be_member=k)
            assert np.allclose(got, want, atol=1e-12)

    def test_members_differ_with_real_fast_weights(self):
        dims = small_dims()
        be = init_model(dims, MethodConfig(method="be", be_size=3), seed=13)
        a = logits(be, (3, 4), (5,), be_member=0)
        b = logits(be, (3, 4), (5,), be_member=1)
        assert not np.array_equal(a, b)
        for k, got in ((0, a), (1, b)):
            assert np.allclose(got, forward_oracle(be, (3, 4), (5,), be_member=k),
                               atol=1e-12)

    def test_member_out_of_range(self):
        dims = small_dims()
        be = init_model(dims, MethodConfig(method="be", be_size=3), seed=13)
        with pytest.raises(InputError, match="member"):
            logits(be, (3,), (), be_member=3)

    def test_token_out_of_range(self):
        m = init_model(small_dims(), MethodConfig(method="base"), seed=1)
        with pytest.raises(InputError, match="token id"):
            build_rows([ExampleRecord(id="a", input=(3, 8), reference=(4,))], m.dims)

    def test_non_finite_guard(self):
        m = init_model(small_dims(), MethodConfig(method="base"), seed=1)
        m.w_o[0, 0] = np.inf
        with pytest.raises(NumericalStateError, match="non-finite"):
            one_step(m, (3,), ())


class TestSumEmbeddings:
    def test_rows_add_from_zero_in_token_order(self):
        rng = np.random.default_rng(5)
        embed = rng.uniform(-0.1, 0.1, size=(30, 7))
        for _ in range(200):
            tokens = tuple(rng.integers(0, 30, size=rng.integers(1, 12)).tolist())
            want = np.zeros(7)
            for t in tokens:
                want = want + embed[t]
            got = sum_embeddings(embed, tokens)
            assert got.shape == (7,) and np.array_equal(got, want)

    def test_stacked_prefixes_equal_one_row_at_a_time(self):
        rng = np.random.default_rng(6)
        embed = rng.uniform(-0.1, 0.1, size=(30, 7))
        for t in range(6):
            tokens = rng.integers(0, 30, size=(4, 3, t))
            got = sum_embeddings(embed, tokens)
            assert got.shape == (4, 3, 7)
            for i, j in np.ndindex(4, 3):
                assert np.array_equal(got[i, j], sum_embeddings(embed, tokens[i, j]))


class TestDropoutMask:
    def test_inverted_scaling_values(self):
        # forward keeps a unit scaled by 1/(1-rate) and zeroes the rest
        m = init_model(small_dims(), MethodConfig(method="mcd"), seed=21)
        z = np.random.default_rng(3).standard_normal((1000, 2 * m.dims.embed_dim))
        keep = dropout_mask(5, (1000, m.dims.hidden_dim))
        out = forward(m, z, mask=keep)
        assert np.array_equal(out["mask"][keep], np.full(keep.sum(), 1.0 / (1.0 - DROPOUT_RATE)))
        assert np.array_equal(out["h"], out["h_raw"] * out["mask"])
        assert np.all(out["h"][~keep] == 0.0)
        # keep probability should be near 1 - rate
        assert abs(keep.mean() - (1.0 - DROPOUT_RATE)) < 0.05

    def test_deterministic_per_seed(self):
        assert np.array_equal(dropout_mask(9, 64), dropout_mask(9, 64))
        assert not np.array_equal(dropout_mask(9, 64), dropout_mask(10, 64))

    def test_matches_a_fresh_stream_per_mask(self):
        """A single-seed mask holds the draws of the mask's own stream,
        whatever masks were drawn before it."""
        shapes = [(7,), (3, 5), (1,), (4, 32), (13,), (2, 1)]
        seeds = list(range(2000)) + [derive_seed(7, "mcd", "ex", i) for i in range(200)]
        top_bit = 0
        for i, seed in enumerate(seeds):
            shape = shapes[i % len(shapes)]
            keep = stream(seed, "dropout-mask").random(shape) >= DROPOUT_RATE
            # a mask of another shape and seed in between must not leak
            dropout_mask(seed + 1, shapes[(i + 1) % len(shapes)])
            got = dropout_mask(seed, shape)
            assert got.shape == shape
            assert np.array_equal(got, keep)
            key = derive_key(seed, "dropout-mask")
            assert key >> 64 != 0
            top_bit += key >> 127
        # keys whose high word does not fit a signed 64-bit integer
        assert top_bit > 0


class TestSpectralNormalize:
    def test_diagonal_known_answer(self):
        w = np.diag([3.0, 1.0]) * SPEC_NORM_BOUND
        got = spectral_normalize(w)
        assert np.allclose(got, w / 3.0, atol=1e-9)

    def test_random_matrices_meet_bound_and_keep_direction(self):
        rs = np.random.default_rng(4)
        for _ in range(20):
            w = rs.standard_normal((int(rs.integers(2, 12)), int(rs.integers(2, 12))))
            w *= float(rs.uniform(0.02, 2.0))
            got = spectral_normalize(w)
            sigma = np.linalg.svd(w, compute_uv=False)[0]
            assert np.linalg.svd(got, compute_uv=False)[0] <= SPEC_NORM_BOUND * (1.0 + 1e-6)
            if sigma > SPEC_NORM_BOUND:
                assert np.allclose(got, w * (SPEC_NORM_BOUND / sigma), rtol=1e-6, atol=1e-9)
            else:
                assert np.array_equal(got, w)

    def test_rescale_uses_exact_top_singular_value(self):
        rs = np.random.default_rng(6)
        for shape in ((24, 24), (32, 32), (32, 16), (5, 9)):
            w = rs.standard_normal(shape) * 2.0
            sigma = np.linalg.svd(w, compute_uv=False)[0]
            got = spectral_normalize(w)
            assert np.allclose(got, w * (SPEC_NORM_BOUND / sigma), rtol=1e-13, atol=0)
            assert abs(np.linalg.svd(got, compute_uv=False)[0] - SPEC_NORM_BOUND) <= 1e-13

    def test_sigma_is_bitwise_the_matrix_two_norm(self, monkeypatch):
        rs = np.random.default_rng(8)
        for _ in range(300):
            shape = (int(rs.integers(1, 40)), int(rs.integers(1, 40)))
            w = rs.standard_normal(shape) * rs.uniform(0.01, 100.0)
            norm = float(np.linalg.norm(w, 2))
            # a bound of exactly the norm keeps w only if sigma has its bits
            monkeypatch.setattr("seqcal.model.SPEC_NORM_BOUND", norm)
            assert np.array_equal(spectral_normalize(w), w)
            monkeypatch.setattr("seqcal.model.SPEC_NORM_BOUND", 0.5 * norm)
            assert np.array_equal(spectral_normalize(w), w * (0.5 * norm / norm))

    def test_within_bound_is_identity(self):
        rs = np.random.default_rng(5)
        w = rs.standard_normal((4, 4)) * 0.01
        got = spectral_normalize(w)
        assert np.array_equal(got, w)

    def test_zero_matrix(self):
        got = spectral_normalize(np.zeros((3, 5)))
        assert np.array_equal(got, np.zeros((3, 5)))

    def test_bad_arguments(self):
        # the bound is SPEC_NORM_BOUND, not an argument
        with pytest.raises(TypeError):
            spectral_normalize(np.eye(2), 1.0)
        with pytest.raises(NumericalStateError, match="non-finite"):
            spectral_normalize(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(InputError, match="matrix"):
            spectral_normalize(np.zeros(3))


class TestGpFeatures:
    def _state(self, rff_dim=6, hidden=4, seed=3):
        m = init_model(ModelDims(vocab_size=5, embed_dim=3, hidden_dim=hidden),
                       MethodConfig(method="sngp", sngp=SngpConfig(rff_dim=rff_dim)),
                       seed=seed)
        return m.sngp

    def test_matches_manual_formula(self):
        state = self._state()
        h = np.array([0.2, -0.4, 0.1, 0.9])
        got = gp_features(h, state)[1]
        want = [math.sqrt(2.0 / 6) * math.cos(float(state.w_r[i] @ h) + float(state.b_r[i]))
                for i in range(6)]
        assert np.allclose(got, want, atol=1e-12)

    def test_squared_norm_at_most_two(self):
        state = self._state(rff_dim=32)
        rs = np.random.default_rng(8)
        phi = gp_features(rs.standard_normal((50, 4)), state)[1]
        assert np.all(np.sum(phi**2, axis=1) <= 2.0 + 1e-12)

    def test_forward_keeps_the_cosine_argument(self):
        dims = ModelDims(vocab_size=5, embed_dim=3, hidden_dim=4)
        model = init_model(dims, MethodConfig(method="sngp", sngp=SngpConfig(rff_dim=6)),
                           seed=3)
        z = np.random.default_rng(2).standard_normal((9, 6))
        out = forward(model, z)
        state = model.sngp
        assert np.array_equal(out["u"], out["h"] @ state.w_r.T + state.b_r)
        assert np.array_equal(out["feat"], math.sqrt(2.0 / 6) * np.cos(out["u"]))
        assert np.array_equal(out["feat"], gp_features(out["h"], state)[1])
        base = init_model(dims, MethodConfig(method="base"), seed=3)
        linear = forward(base, z)
        assert "u" not in linear and linear["feat"] is linear["h"]

    def test_row_stack_consistent_with_single(self):
        state = self._state()
        rows = np.random.default_rng(9).standard_normal((5, 4))
        stacked = gp_features(rows, state)[1]
        # gemm and gemv may round differently in the last ulp
        for i in range(5):
            assert np.allclose(stacked[i], gp_features(rows[i], state)[1], rtol=1e-13, atol=0)


class TestPrecisionUpdate:
    def test_hand_case(self):
        phi = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        new = update_precision(np.eye(2), phi)
        assert np.array_equal(new, np.array([[3.0, 1.0], [1.0, 6.0]]))

    def test_zero_features_keep_matrix(self):
        precision = update_precision(np.eye(3), np.ones((4, 3)))
        new = update_precision(precision, np.zeros((4, 3)))
        assert np.array_equal(new, precision)

    def test_batches_sum_to_identity_plus_gram(self):
        precision = np.eye(3)
        rs = np.random.default_rng(2)
        phi = rs.standard_normal((10, 3))
        for part in (phi[:4], phi[4:5], phi[5:]):
            precision = update_precision(precision, part)
        want = np.eye(3) + sum(np.outer(row, row) for row in phi)
        assert np.allclose(precision, want, rtol=1e-14, atol=1e-14)

    def test_stays_symmetric_positive_definite(self):
        precision = np.eye(8)
        rs = np.random.default_rng(3)
        for _ in range(50):
            phi = rs.standard_normal((int(rs.integers(1, 6)), 8))
            precision = update_precision(precision, phi)
        assert np.array_equal(precision, precision.T)
        assert np.min(np.linalg.eigvalsh(precision)) >= 1.0

    def test_bad_arguments(self):
        with pytest.raises(TypeError):
            update_precision(np.eye(2), np.ones((1, 2)), 0.5)
        with pytest.raises(InputError, match="dimension"):
            update_precision(np.eye(2), np.ones((1, 3)))


class TestPredictiveVariance:
    def _state(self, rff_dim):
        m = init_model(ModelDims(vocab_size=5, embed_dim=3, hidden_dim=4),
                       MethodConfig(method="sngp", sngp=SngpConfig(rff_dim=rff_dim)),
                       seed=4)
        return m.sngp

    def test_identity_precision_gives_squared_norm(self):
        state = self._state(4)
        state.chol_inv = factor_precision(np.eye(4))
        phi = np.array([[1.0, 2.0, 0.0, 0.0], [0.5, 0.0, 0.5, 0.0]])
        got = predictive_variance(state, phi)
        assert np.allclose(got, [5.0, 0.5], atol=1e-12)

    def test_matches_explicit_inverse(self):
        state = self._state(5)
        rs = np.random.default_rng(6)
        a = rs.standard_normal((9, 5))
        precision = a.T @ a / 9.0 + 0.1 * np.eye(5)
        state.chol_inv = factor_precision(precision)
        phi = rs.standard_normal((7, 5))
        got = predictive_variance(state, phi)
        inv = np.linalg.inv(precision)
        want = np.einsum("bd,de,be->b", phi, inv, phi)
        assert np.allclose(got, want, rtol=1e-10)

    @pytest.mark.parametrize("examples, live", [(40, 3), (40, 1), (5, 16)])
    def test_stacked_rows_match_single_example(self, examples, live):
        # bitwise: the GEMM row count, and with it the last bit, must not
        # depend on how many examples are stacked
        state = self._state(64)
        rs = np.random.default_rng(7)
        a = rs.standard_normal((200, 64))
        precision = np.eye(64) + a.T @ a
        state.chol_inv = factor_precision(precision)
        phi = rs.standard_normal((examples, live, 64))
        got = predictive_variance(state, phi)
        assert got.shape == (examples, live)
        for e in range(examples):
            assert np.array_equal(got[e], predictive_variance(state, phi[e:e + 1])[0])
        want = np.einsum("nld,de,nle->nl", phi, np.linalg.inv(precision), phi)
        assert np.allclose(got, want, rtol=1e-10)

    def test_untrained_head_variance_is_squared_norm(self):
        # the identity prior: an untrained head's variance is |phi|^2
        state = self._state(3)
        phi = np.random.default_rng(8).standard_normal((6, 3))
        assert np.array_equal(state.chol_inv, np.eye(3))
        got = predictive_variance(state, phi)
        assert np.allclose(got, np.sum(phi ** 2, axis=1), rtol=1e-14, atol=0)

    def test_rejects_indefinite_precision(self):
        with pytest.raises(NumericalStateError, match="positive definite"):
            factor_precision(np.array([[1.0, 0.0], [0.0, -1.0]]))


class TestMeanFieldLogits:
    def test_zero_factor_is_identity(self, monkeypatch):
        monkeypatch.setattr("seqcal.model.MEAN_FIELD_FACTOR", 0.0)
        logits = np.array([1.0, -2.0, 0.5])
        got = mean_field_logits(logits, np.array(9.0))
        assert np.array_equal(got, logits)

    def test_scalar_variance_formula(self, monkeypatch):
        monkeypatch.setattr("seqcal.model.MEAN_FIELD_FACTOR", 0.5)
        logits = np.array([2.0, -1.0])
        got = mean_field_logits(logits, 3.0)
        assert np.allclose(got, logits / math.sqrt(2.5), atol=1e-15)

    def test_row_variances_broadcast(self, monkeypatch):
        monkeypatch.setattr("seqcal.model.MEAN_FIELD_FACTOR", 1.0)
        logits = np.arange(6.0).reshape(2, 3)
        var = np.array([[0.0], [8.0]])
        got = mean_field_logits(logits, var)
        assert np.array_equal(got[0], logits[0])
        assert np.allclose(got[1], logits[1] / 3.0, atol=1e-15)

    def test_negative_variance_rejected(self, monkeypatch):
        monkeypatch.setattr("seqcal.model.MEAN_FIELD_FACTOR", 1.0)
        with pytest.raises(NumericalStateError, match="negative"):
            mean_field_logits(np.ones(3), np.array([-0.1]))


class TestRowStructure:
    def test_single_example_layout(self):
        dims = small_dims()
        ex = ExampleRecord(id="a", input=(3, 4), reference=(5, 6))
        rows = build_rows([ex], dims)
        assert rows.targets.tolist() == [5, 6, EOS_ID]
        assert rows.row_spans == ((0, 3),)
        # context weights: a count of one on each input token, every row
        want_ctx = np.zeros(8)
        want_ctx[3] = want_ctx[4] = 1.0
        for r in range(3):
            assert np.array_equal(rows.ctx_weights[r], want_ctx)
        # prefix weights: bos in every row, plus the counts of the first t
        # reference tokens
        want_prefix = np.zeros((3, 8))
        want_prefix[:, BOS_ID] = 1.0
        want_prefix[1:, 5] = 1.0
        want_prefix[2, 6] = 1.0
        assert np.array_equal(rows.prefix_weights, want_prefix)

    def test_in_place_rows_equal_the_stacked_lists(self):
        # ragged references, a zero-length one among them, and inputs up
        # to 8 long with repeated tokens
        rng = np.random.default_rng(8)
        dims = ModelDims(vocab_size=23)
        for _ in range(50):
            examples = [SimpleNamespace(
                input=tuple(rng.integers(3, 23, size=int(rng.integers(1, 9))).tolist()),
                reference=tuple(rng.integers(3, 23, size=int(rng.integers(0, 8))).tolist()),
            ) for _ in range(int(rng.integers(1, 12)))]
            examples.append(SimpleNamespace(input=(5, 5, 9), reference=()))
            assert_rows_match_oracle(build_rows(examples, dims), examples, dims)

    def test_counts_past_255_widen_and_do_not_wrap(self):
        # one token 300 times in an input, another 299 times in a
        # reference: one byte would wrap both to 44 and 43
        dims = ModelDims(vocab_size=23)
        examples = [SimpleNamespace(input=(7,) * 300 + (4,), reference=(5, 6)),
                    SimpleNamespace(input=(3, 8), reference=(9,) * 299)]
        rows = build_rows(examples, dims)
        assert rows.ctx_weights.dtype == rows.prefix_weights.dtype == np.uint16
        assert rows.ctx_weights[:3, 7].tolist() == [300] * 3
        assert rows.prefix_weights[-1, 9] == 299
        assert_rows_match_oracle(rows, examples, dims)

    def test_empty_split_gives_empty_rows(self):
        dims = small_dims()
        rows = build_rows([], dims)
        assert rows.ctx_weights.shape == rows.prefix_weights.shape == (0, dims.vocab_size)
        assert rows.targets.shape == (0,) and rows.row_spans == ()

    def test_batch_loss_matches_stepwise_forward(self):
        dims = small_dims()
        m = init_model(dims, MethodConfig(method="base"), seed=31)
        examples = [
            ExampleRecord(id="a", input=(3, 4), reference=(5,)),
            ExampleRecord(id="b", input=(6, 7, 3), reference=(4, 6)),
        ]
        terms = []
        for ex in examples:
            seq = tuple(ex.reference) + (EOS_ID,)
            for t, target in enumerate(seq):
                out = forward_oracle(m, ex.input, tuple(ex.reference)[:t])
                shifted = out - out.max()
                logp = shifted - math.log(float(np.exp(shifted).sum()))
                terms.append(-logp[target])
        want = float(np.mean(terms))
        got = batch_loss(m, examples)
        assert abs(got - want) < 1e-12

    def test_duplicated_batch_keeps_loss(self):
        dims = small_dims()
        m = init_model(dims, MethodConfig(method="base"), seed=32)
        ex = ExampleRecord(id="a", input=(3, 4, 5), reference=(6, 7))
        assert abs(batch_loss(m, [ex]) - batch_loss(m, [ex, ex])) < 1e-12

    def test_gp_head_loss_matches_stepwise_forward(self):
        dims = small_dims()
        cfg = MethodConfig(method="sngp", sngp=SngpConfig(rff_dim=12))
        m = init_model(dims, cfg, seed=33)
        ex = ExampleRecord(id="a", input=(3, 4), reference=(5, 6))
        seq = (5, 6, EOS_ID)
        terms = []
        for t, target in enumerate(seq):
            out = forward_oracle(m, ex.input, seq[:t])
            shifted = out - out.max()
            logp = shifted - math.log(float(np.exp(shifted).sum()))
            terms.append(-logp[target])
        assert abs(batch_loss(m, [ex]) - float(np.mean(terms))) < 1e-12


class TestCrossEntropy:
    @pytest.mark.parametrize("vocab, targets", [(8, [0, 7, 3]), (200, [199, 0, 5, 5])])
    def test_cross_entropy_in_place_equals_out_of_place(self, vocab, targets):
        rng = np.random.default_rng(vocab)
        logits = rng.normal(0.0, 30.0, size=(len(targets), vocab))
        targets = np.array(targets)
        want_loss, want_exp, want_sums = cross_entropy_oracle(logits, targets)
        owned = logits.copy()
        loss, exp, sums = _cross_entropy(owned, targets)
        assert loss.hex() == want_loss.hex()
        assert exp.tobytes() == want_exp.tobytes()
        assert sums.tobytes() == want_sums.tobytes()
        # the caller's array now holds the exp
        assert exp is owned and owned.tobytes() == want_exp.tobytes()


class TestStreamHelper:
    def test_distinct_parts_distinct_streams(self):
        a = stream(1, "x").random(4)
        b = stream(1, "y").random(4)
        assert not np.array_equal(a, b)
