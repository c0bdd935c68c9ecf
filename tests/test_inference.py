"""Posterior-mean distributions, beam decoding, and prediction files."""

import json
import math
import re

import numpy as np
import pytest

import seqcal.inference as inference
from oracles import (
    exhaustive_oracle,
    forward_oracle,
    greedy_oracle,
    package_dist,
    package_rows,
    posterior_mean_dist,
)
from seqcal.corpus import BOS_ID, ExampleRecord, TaskSpec, generate_corpus
from seqcal.errors import (
    ConfigurationError,
    InputError,
    NumericalStateError,
    ParseError,
    ValidationError,
)
from seqcal.inference import (
    PosteriorConfig,
    PredictionRecord,
    beam_decode,
    decode_corpus,
    join_with_references,
    read_predictions,
    uncertainty_score,
    write_predictions,
)
from seqcal.model import (
    METHODS,
    MethodConfig,
    ModelDims,
    SngpConfig,
    dropout_mask,
    init_model,
)
from seqcal.rng import derive_seed
from seqcal.rouge import score_quality
from seqcal.training import TrainHyper, split_rows, train_method


def softmax(x):
    s = x - np.max(x)
    e = np.exp(s)
    return e / e.sum()


def make_members(method, seed=0, vocab=6, **kwargs):
    dims = ModelDims(vocab_size=vocab, embed_dim=4, hidden_dim=5)
    cfg = MethodConfig(method=method, **kwargs)
    return tuple(init_model(dims, cfg, s) for s in cfg.member_seeds(seed))


class TestPosteriorConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="beam_size"):
            PosteriorConfig(beam_size=0)
        with pytest.raises(ConfigurationError, match="max_len"):
            PosteriorConfig(max_len=0)


class TestPosteriorMean:
    """The package's posterior-mean rows against scalar forward passes."""

    def test_base_is_softmax_of_forward(self):
        members = make_members("base", seed=3)
        dist = package_dist(members, (3, 4), (5,), run_seed=1,
                            example_id="x", step=0)
        want = softmax(forward_oracle(members[0], (3, 4), (5,)))
        assert np.allclose(dist, want, atol=1e-14)
        assert abs(dist.sum() - 1.0) < 1e-12

    def test_dropout_average_matches_manual_passes(self):
        members = make_members("mcd", seed=4, samples=6)
        dist = package_dist(members, (3, 4), (), run_seed=9,
                            example_id="ex-7", step=2)
        # step 2's masks follow steps 0 and 1 in the example's one stream
        masks = dropout_mask(derive_seed(9, "mcd", "ex-7"), (3, 6, 5))[2]
        acc = np.zeros(6)
        for m in range(6):
            acc += softmax(forward_oracle(members[0], (3, 4), (), mask=masks[m]))
        assert np.allclose(dist, acc / 6, atol=1e-12)

    def test_batch_ensemble_average(self):
        members = make_members("be", seed=5, be_size=4)
        dist = package_dist(members, (3,), (4,), run_seed=0,
                            example_id="x", step=0)
        acc = np.zeros(6)
        for k in range(4):
            acc += softmax(forward_oracle(members[0], (3,), (4,), be_member=k))
        assert np.allclose(dist, acc / 4, atol=1e-12)

    def test_deep_ensemble_average(self):
        members = make_members("de", seeds=(7, 8, 9))
        dist = package_dist(members, (3, 5), (4,), run_seed=0,
                            example_id="x", step=1)
        acc = np.zeros(6)
        for m in members:
            acc += softmax(forward_oracle(m, (3, 5), (4,)))
        assert np.allclose(dist, acc / 3, atol=1e-12)

    def test_gp_head_applies_mean_field(self):
        from seqcal.model import gp_features, mean_field_logits, predictive_variance

        members = make_members("sngp", seed=6, sngp=SngpConfig(rff_dim=12,
                                                               mean_field_factor=0.7))
        model = members[0]
        dist = package_dist(members, (3, 4), (5,), run_seed=0,
                            example_id="x", step=0)
        ctx = model.embed[3] + model.embed[4]
        pre = model.embed[BOS_ID] + model.embed[5]
        h = np.tanh(model.w_h @ np.concatenate([ctx, pre]) + model.b_h)
        phi = gp_features(h, model.sngp)[1]
        sigma2 = predictive_variance(model.sngp, phi[None, :])
        logits = mean_field_logits(phi @ model.w_o.T, sigma2[0], 0.7)
        assert np.allclose(dist, softmax(logits), atol=1e-12)

    def test_mean_of_probs_differs_from_probs_of_mean(self):
        # two members that each put all signal in a constant output bias:
        # averaging probabilities keeps both modes, averaging logits does not
        members = make_members("de", seeds=(1, 2))
        for m in members:
            m.w_o[:] = 0.0
        a = np.array([8.0, 0.0, 0.0, -8.0, 0.0, 0.0])
        b = np.array([-8.0, 0.0, 0.0, 8.0, 0.0, 0.0])
        members[0].b_o = a
        members[1].b_o = b
        dist = package_dist(members, (3,), (), run_seed=0,
                            example_id="x", step=0)
        prob_mean = (softmax(a) + softmax(b)) / 2.0
        logit_mean = softmax((a + b) / 2.0)
        assert np.allclose(dist, prob_mean, atol=1e-12)
        assert np.max(np.abs(dist - logit_mean)) > 0.2

    def test_masks_shared_across_prefixes(self):
        members = make_members("mcd", seed=4, samples=3)
        both = package_rows(members, (3, 4), [(5,), (3,)], run_seed=2,
                            example_id="e", step=1)
        solo = package_dist(members, (3, 4), (3,), run_seed=2,
                            example_id="e", step=1)
        assert np.allclose(both[1], solo, atol=1e-12)

    def test_step_changes_masks(self):
        # a step keeps all 2 x 5 units with probability 0.9**10 ~ 0.35, so
        # two steps can share their masks; across 8 examples most do not
        members = make_members("mcd", seed=4, samples=2)
        changed = 0
        for i in range(8):
            a = package_dist(members, (3, 4), (5,), run_seed=2,
                             example_id=f"e{i}", step=0)
            b = package_dist(members, (3, 4), (5,), run_seed=2,
                             example_id=f"e{i}", step=1)
            changed += not np.array_equal(a, b)
        assert changed >= 4

    def test_member_validation(self):
        config = PosteriorConfig()
        with pytest.raises(InputError, match="at least one"):
            beam_decode((), (3,), config, run_seed=0, example_id="x")
        members = make_members("de", seeds=(7, 8, 9))
        with pytest.raises(ValidationError, match="expects 3 members"):
            beam_decode(members[:2], (3,), config, run_seed=0, example_id="x")

    def test_token_range_validation(self):
        # prefixes come only from the search, so only the input is checked
        members = make_members("base")
        with pytest.raises(InputError, match="input token"):
            beam_decode(members, (9,), PosteriorConfig(), run_seed=0, example_id="x")

    @pytest.mark.parametrize("method", METHODS)
    def test_single_prefix_equals_oracle_unit_average(self, method):
        # factor 0 leaves GP logits unscaled; test_gp_head_applies_mean_field
        # covers factor > 0
        kwargs = {"samples": 3, "be_size": 3,
                  "sngp": SngpConfig(rff_dim=10, mean_field_factor=0.0)}
        if method in ("de", "sngp_de"):
            kwargs["seeds"] = (4, 5, 6)
        members = make_members(method, seed=8, **kwargs)
        units = [(m, {}) for m in members]
        if method in ("mcd", "sngp_mcd"):
            masks = dropout_mask(derive_seed(3, "mcd", "u"), (2, 3, 5))[1]
            units = [(members[0], {"mask": masks[k]}) for k in range(3)]
        elif method == "be":
            units = [(members[0], {"be_member": k}) for k in range(3)]
        want = sum(softmax(forward_oracle(m, (3, 4, 1), (5, 0), **kw)) for m, kw in units)
        got = package_dist(members, (3, 4, 1), (5, 0), run_seed=3,
                           example_id="u", step=1)
        assert np.allclose(got, want / len(units), atol=1e-12)


class TestDropoutDraws:
    def test_one_mask_draw_per_decode(self, monkeypatch):
        """A decode draws every example's masks in one call, one seed per
        example and (max_len + 1, samples, hidden) draws per seed."""
        members = make_members("mcd", seed=4, samples=3)
        examples = [ExampleRecord(id=f"e{i}", input=(3, 4 + i % 2), reference=(3,))
                    for i in range(5)]
        draws = []

        def counted(seeds, shape):
            draws.append((np.shape(seeds), shape))
            return dropout_mask(seeds, shape)

        monkeypatch.setattr(inference, "dropout_mask", counted)
        decode_corpus(members, examples, PosteriorConfig(beam_size=2, max_len=4), run_seed=9)
        assert draws == [((5,), (5, 3, 5))]

    def test_masks_are_the_examples_own(self, monkeypatch):
        """An example's masks at each step are the same whatever it is
        decoded with, and a shorter max_len reads a prefix of them."""
        members = make_members("mcd", seed=4, samples=3)
        examples = [ExampleRecord(id=f"e{i}", input=(3, 4 + i % 2), reference=(3,))
                    for i in range(5)]
        seen = []
        original = inference.step_distributions

        def watched(members, ctxs, prefixes, masks):
            seen.append(masks)
            return original(members, ctxs, prefixes, masks)

        monkeypatch.setattr(inference, "step_distributions", watched)

        def masks_by_id(batch, max_len):
            seen.clear()
            decode_corpus(members, batch, PosteriorConfig(beam_size=2, max_len=max_len),
                          run_seed=9)
            return {ex.id: np.stack([step[i] for step in seen]) for i, ex in enumerate(batch)}

        full = masks_by_id(examples, 4)
        assert full["e0"].shape == (5, 3, 5)
        for batch, max_len in ((examples[::-1], 4), (examples[3:4], 4), (examples[1::2], 2)):
            for ex_id, masks in masks_by_id(batch, max_len).items():
                assert np.array_equal(masks, full[ex_id][: max_len + 1])
        assert not np.array_equal(full["e0"], full["e1"])


class TestBeamDecode:
    def test_beam_one_equals_greedy(self):
        config = PosteriorConfig(beam_size=1, max_len=4)
        for seed in range(12):
            members = make_members("base", seed=seed)
            rec = beam_decode(members, (3, 4, 5), config, run_seed=7,
                              example_id=f"g{seed}")
            tokens, logps, total, eos_lp = greedy_oracle(
                members, (3, 4, 5), config, 7, f"g{seed}")
            assert rec.hypothesis == tokens
            assert np.allclose(rec.token_logp, logps, atol=1e-12)
            assert abs(rec.eos_logp - eos_lp) < 1e-12

    @pytest.mark.parametrize("method", ["base", "de"])
    def test_underflowing_probability_raises(self, method):
        # finite logits 800 apart: exp underflows every other probability
        # to exactly 0, whose log score would be -inf; a deep ensemble whose
        # members all do so is no better
        members = make_members(method, seeds=(1, 2) if method == "de" else ())
        for m in members:
            m.b_o[3] = 800.0
        with pytest.raises(NumericalStateError, match="underflowed to 0 at decode step 0"):
            beam_decode(members, (3, 4), PosteriorConfig(beam_size=2, max_len=3),
                        run_seed=0, example_id="u")

    def test_beam_one_equals_greedy_with_dropout(self):
        config = PosteriorConfig(beam_size=1, max_len=3)
        for seed in range(5):
            members = make_members("mcd", seed=seed, samples=4)
            rec = beam_decode(members, (4, 5), config, run_seed=seed,
                              example_id="d")
            tokens, logps, total, eos_lp = greedy_oracle(
                members, (4, 5), config, seed, "d")
            assert rec.hypothesis == tokens
            assert np.allclose(rec.token_logp, logps, atol=1e-12)

    def test_wide_beam_equals_exhaustive_search(self):
        config = PosteriorConfig(beam_size=64, max_len=3)
        for seed in range(25):
            members = make_members("base", seed=100 + seed, vocab=4)
            rec = beam_decode(members, (0, 3), config, run_seed=1,
                              example_id=f"x{seed}")
            tokens, logps, eos_lp = exhaustive_oracle(
                members, (0, 3), config, 1, f"x{seed}")
            assert rec.hypothesis == tokens
            assert np.allclose(rec.token_logp, logps, atol=1e-12)
            assert abs(rec.eos_logp - eos_lp) < 1e-12

    def test_wide_beam_equals_exhaustive_gp_head(self):
        config = PosteriorConfig(beam_size=64, max_len=3)
        for seed in range(5):
            members = make_members("sngp", seed=300 + seed, vocab=4,
                                   sngp=SngpConfig(rff_dim=8))
            rec = beam_decode(members, (0, 3), config, run_seed=1,
                              example_id=f"s{seed}")
            tokens, logps, _ = exhaustive_oracle(members, (0, 3), config, 1, f"s{seed}")
            assert rec.hypothesis == tokens

    def test_never_empty_and_capped(self):
        config = PosteriorConfig(beam_size=2, max_len=3)
        for seed in range(10):
            members = make_members("base", seed=seed)
            rec = beam_decode(members, (3,), config, run_seed=0, example_id="c")
            assert 1 <= len(rec.hypothesis) <= 3
            assert len(rec.token_logp) == len(rec.hypothesis)
            assert rec.uncertainty == uncertainty_score(rec.token_logp, rec.eos_logp)

    def test_step_distributions_rows_are_normalized(self, monkeypatch):
        config = PosteriorConfig(beam_size=3, max_len=4)
        members = make_members("mcd", seed=1, samples=3)
        seen_steps = []
        original = inference.step_distributions

        def watched(members, ctxs, prefixes, masks):
            dists = original(members, ctxs, prefixes, masks)
            seen_steps.append(prefixes.shape[2])
            assert masks.shape == (1, 3, 5)
            assert dists.shape == prefixes.shape[:2] + (6,)
            assert np.all(np.abs(dists.sum(axis=2) - 1.0) < 1e-9)
            return dists

        monkeypatch.setattr(inference, "step_distributions", watched)
        beam_decode(members, (3, 4), config, run_seed=5, example_id="h")
        assert seen_steps == [0, 1, 2, 3, 4]

    def test_stored_logps_match_recomputation(self):
        config = PosteriorConfig(beam_size=3, max_len=4)
        members = make_members("base", seed=9)
        rec = beam_decode(members, (4, 5), config, run_seed=3, example_id="r")
        for t in range(len(rec.hypothesis)):
            dist = posterior_mean_dist(members, (4, 5), rec.hypothesis[:t],
                                       run_seed=3, example_id="r", step=t)
            assert abs(math.log(dist[rec.hypothesis[t]]) - rec.token_logp[t]) < 1e-12

    def test_larger_beams_rarely_score_worse(self):
        # ranking is length-normalized while pruning is not, so strict
        # monotonicity is not guaranteed; a systematic regression is a bug
        config_by_size = {b: PosteriorConfig(beam_size=b, max_len=4) for b in (1, 2, 4)}
        worse = 0
        trials = 30
        for seed in range(trials):
            members = make_members("base", seed=400 + seed)
            scores = {}
            for b, cfg in config_by_size.items():
                rec = beam_decode(members, (3, 4, 5), cfg, run_seed=2,
                                  example_id=f"m{seed}")
                scores[b] = rec.uncertainty
            if scores[2] < scores[1] - 1e-12 or scores[4] < scores[2] - 1e-12:
                worse += 1
        assert worse <= trials // 5, f"{worse}/{trials} runs lost score with a wider beam"


class TestDecodeCorpus:
    VOCAB_SIZE = 8

    def _corpus(self, n=6):
        spec = TaskSpec(kind="copy", input_len=3, output_len=3)
        return generate_corpus(spec, n, self.VOCAB_SIZE, seed=5)

    def test_deterministic_and_seed_sensitive(self):
        examples = self._corpus()
        dims = ModelDims(vocab_size=self.VOCAB_SIZE, embed_dim=4, hidden_dim=5)
        cfg = MethodConfig(method="mcd", samples=4)
        members = train_method(split_rows(examples, dims), dims, cfg, TrainHyper(steps=30), seed=3)
        config = PosteriorConfig(beam_size=2, max_len=3)
        a = decode_corpus(members, examples, config, run_seed=10)
        b = decode_corpus(members, examples, config, run_seed=10)
        c = decode_corpus(members, examples, config, run_seed=11)
        assert a == b
        assert [r.uncertainty for r in a] != [r.uncertainty for r in c]

    def test_overflowing_logits_raise(self):
        # every weight is finite, but a saturated hidden layer times a
        # 1e308 output row overflows; decoding must not emit NaN scores
        examples = self._corpus(n=4)
        members = make_members("base", vocab=self.VOCAB_SIZE)
        members[0].b_h[:] = 10.0
        members[0].w_o[0] = 1e308
        with np.errstate(over="ignore"), pytest.raises(NumericalStateError,
                                                       match="non-finite"):
            decode_corpus(members, examples, PosteriorConfig(beam_size=2, max_len=3),
                          run_seed=0)


class TestPredictionFiles:
    VOCAB_SIZE = 10
    MAX_LEN = 4

    def _records(self):
        return (
            PredictionRecord(id="a-1", hypothesis=(3, 4), token_logp=(-0.5, -1.25),
                             eos_logp=-0.125, uncertainty=-0.625),
            PredictionRecord(id="a-2", hypothesis=(5,),
                             token_logp=(-0.1234567890123456789,),
                             eos_logp=-2.5, uncertainty=-1.3117283945061729),
        )

    def test_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        records = self._records()
        write_predictions(records, path)
        assert read_predictions(path, self.VOCAB_SIZE, self.MAX_LEN) == records

    def test_write_rejects_duplicate_ids(self, tmp_path):
        rec = self._records()[0]
        with pytest.raises(ValidationError, match="duplicate"):
            write_predictions([rec, rec], tmp_path / "p.jsonl")

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "p.jsonl"
        good = json.dumps({"id": "a", "hypothesis": [3], "token_logp": [-1.0],
                           "eos_logp": -1.0, "uncertainty": -1.0})
        path.write_text(good + "\n{broken\n")
        with pytest.raises(ParseError, match="line 2"):
            read_predictions(path, self.VOCAB_SIZE, self.MAX_LEN)

    def test_field_set_is_strict(self, tmp_path):
        path = tmp_path / "p.jsonl"
        payload = {"id": "a", "hypothesis": [3], "token_logp": [-1.0],
                   "eos_logp": -1.0}
        path.write_text(json.dumps(payload) + "\n")
        with pytest.raises(ParseError, match="missing.*uncertainty"):
            read_predictions(path, self.VOCAB_SIZE, self.MAX_LEN)

    def test_logp_length_must_match(self, tmp_path):
        path = tmp_path / "p.jsonl"
        payload = {"id": "a", "hypothesis": [3, 4], "token_logp": [-1.0],
                   "eos_logp": -1.0, "uncertainty": -1.0}
        path.write_text(json.dumps(payload) + "\n")
        with pytest.raises(ParseError, match="entries for 2 tokens"):
            read_predictions(path, self.VOCAB_SIZE, self.MAX_LEN)

    def test_duplicate_ids_rejected_on_read(self, tmp_path):
        path = tmp_path / "p.jsonl"
        line = json.dumps({"id": "a", "hypothesis": [3], "token_logp": [-1.0],
                           "eos_logp": -1.0, "uncertainty": -1.0})
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(ParseError, match="duplicate"):
            read_predictions(path, self.VOCAB_SIZE, self.MAX_LEN)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400",
                                       pytest.param("1" + "0" * 400, id="int1e400")])
    @pytest.mark.parametrize("field", ["token_logp", "eos_logp", "uncertainty"])
    def test_non_finite_scores_rejected(self, tmp_path, field, value):
        # json.loads reads the floats among these as nan or inf; the last
        # value is an integer that float64 cannot hold
        scores = {"token_logp": "[-1.0]", "eos_logp": "-1.0", "uncertainty": "-1.0"}
        scores[field] = f"[{value}]" if field == "token_logp" else value
        good = '{"id":"a","hypothesis":[3],"token_logp":[-1.0],"eos_logp":-1.0,"uncertainty":-1.0}'
        bad = '{"id":"b","hypothesis":[3],' + ",".join(
            f'"{k}":{v}' for k, v in scores.items()) + "}"
        path = tmp_path / "p.jsonl"
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(ParseError, match=f"line 2.*{field}.*finite"):
            read_predictions(path, self.VOCAB_SIZE, self.MAX_LEN)

    def test_what_the_search_can_write_at_its_bounds_loads(self, tmp_path):
        # the first and last content ids, log-probabilities of 0 and -0,
        # and a hypothesis of max_len tokens
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps({"id": "a", "hypothesis": [3, 9], "token_logp": [0.0, -0.0],
                                    "eos_logp": 0.0, "uncertainty": 0.0}) + "\n"
                        + json.dumps({"id": "b", "hypothesis": [9, 3, 3, 9],
                                      "token_logp": [0.0] * 4, "eos_logp": 0.0,
                                      "uncertainty": 0.0}) + "\n")
        assert [r.hypothesis for r in read_predictions(path, self.VOCAB_SIZE, self.MAX_LEN)] == [
            (3, 9), (9, 3, 3, 9)]

    @pytest.mark.parametrize("edit, message", [
        pytest.param({"token_logp": [800.0]}, "log-probability 800.0 is above 0", id="logp-800"),
        pytest.param({"token_logp": [0.5]}, "log-probability 0.5 is above 0", id="logp-half"),
        pytest.param({"eos_logp": 1e-300}, "log-probability 1e-300 is above 0", id="eos-logp"),
        pytest.param({"uncertainty": -50.0}, "uncertainty -50.0 is not -1.0, the score",
                     id="uncertainty"),
        # the next float above the score is not the score
        pytest.param({"uncertainty": -0.9999999999999999}, "uncertainty -0.9999999999999999",
                     id="uncertainty-one-ulp"),
        # two log-probabilities whose sum is below the float range
        pytest.param({"hypothesis": [3, 4], "token_logp": [-1e308, -1e308]},
                     "uncertainty -1.0 is not -inf", id="uncertainty-overflow"),
        pytest.param({"hypothesis": [], "token_logp": []},
                     "hypothesis must hold at least one token", id="empty"),
        pytest.param({"hypothesis": [-7, 99999, 0, 1], "token_logp": [-1.0] * 4},
                     "hypothesis token id -7 outside the content ids 3..9", id="ids"),
        pytest.param({"hypothesis": [0]}, "token id 0 outside", id="pad"),
        pytest.param({"hypothesis": [1]}, "token id 1 outside", id="bos"),
        pytest.param({"hypothesis": [2]}, "token id 2 outside", id="eos"),
        pytest.param({"hypothesis": [10]}, "token id 10 outside the content ids 3..9",
                     id="vocab_size"),
        # one token more than the search's cap
        pytest.param({"hypothesis": [3] * 5, "token_logp": [-1.0] * 5, "uncertainty": -1.0},
                     "hypothesis of 5 tokens is longer than max_len 4", id="max_len"),
    ])
    def test_what_the_search_cannot_write_is_refused(self, tmp_path, edit, message):
        good = {"id": "a", "hypothesis": [3], "token_logp": [-1.0], "eos_logp": -1.0,
                "uncertainty": -1.0}
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "id": "b", **edit}) + "\n")
        with pytest.raises(ParseError, match=f"line 2: .*{re.escape(message)}"):
            read_predictions(path, self.VOCAB_SIZE, self.MAX_LEN)


class TestJoin:
    def _pred(self, id_, hyp):
        return PredictionRecord(id=id_, hypothesis=hyp, token_logp=(-0.5,) * len(hyp),
                                eos_logp=-0.5, uncertainty=-0.5)

    def test_join_scores_quality(self):
        preds = [self._pred("a", (3, 4)), self._pred("b", (5,))]
        examples = [ExampleRecord(id="b", input=(5, 6), reference=(5,)),
                    ExampleRecord(id="a", input=(3, 4), reference=(3, 7))]
        joined = join_with_references(preds, examples)
        assert [j.id for j in joined] == ["a", "b"]
        assert joined[0].reference == (3, 7)
        assert joined[0].quality == score_quality((3, 4), (3, 7))
        assert joined[1].quality["rouge1"] == 100.0

    def test_prediction_without_reference(self):
        with pytest.raises(ValidationError, match="no reference"):
            join_with_references([self._pred("zz", (3,))],
                                 [ExampleRecord(id="a", input=(3,), reference=(3,))])

    def test_reference_without_prediction(self):
        with pytest.raises(ValidationError, match="no prediction"):
            join_with_references([self._pred("a", (3,))],
                                 [ExampleRecord(id="a", input=(3,), reference=(3,)),
                                  ExampleRecord(id="b", input=(4,), reference=(4,))])
