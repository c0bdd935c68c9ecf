import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lcs_oracle, rouge_n_oracle
from seqcal.errors import ConfigurationError
from seqcal.rouge import lcs_length, rouge_l, rouge_n, score_quality


tokens = st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=8)


class TestRougeN:
    def test_identical_unigrams(self):
        assert rouge_n((3, 4, 5), (3, 4, 5), 1) == 1.0

    def test_half_overlap_example(self):
        # hyp "a b c d" vs ref "a b e f": overlap 2 of 4 both sides
        assert rouge_n((3, 4, 5, 6), (3, 4, 7, 8), 1) == 0.5

    def test_clipping(self):
        # hyp repeats "a" three times, ref has it once: clipped overlap 1,
        # so precision 1/3 and recall 1/2
        assert rouge_n((3, 3, 3), (3, 4), 1) == pytest.approx(0.4)

    def test_bigram_disjoint(self):
        assert rouge_n((3, 4, 5), (5, 4, 3), 2) == 0.0

    def test_hyp_shorter_than_order(self):
        # no bigrams in a single-token hypothesis -> zero
        assert rouge_n((3,), (3, 4), 2) == 0.0

    def test_bad_order(self):
        with pytest.raises(ConfigurationError):
            rouge_n((3,), (3,), 3)

    @settings(max_examples=300, deadline=None)
    @given(hyp=tokens, ref=tokens, n=st.sampled_from((1, 2)))
    def test_matches_counting_oracle(self, hyp, ref, n):
        assert rouge_n(hyp, ref, n) == rouge_n_oracle(hyp, ref, n)

    @settings(max_examples=200, deadline=None)
    @given(hyp=tokens, ref=tokens, n=st.sampled_from((1, 2)))
    def test_bounds_and_symmetric_roles(self, hyp, ref, n):
        s = rouge_n(hyp, ref, n)
        assert 0.0 <= s <= 1.0
        # swapping the roles swaps precision and recall, which F1 weighs alike
        assert rouge_n(ref, hyp, n) == s


class TestRougeL:
    def test_perfect_match(self):
        assert rouge_l((3, 4, 5), (3, 4, 5)) == 1.0

    def test_subsequence_case(self):
        # hyp "a c e" inside ref "a b c d e": LCS 3, precision 1, recall 3/5
        assert rouge_l((3, 5, 7), (3, 4, 5, 6, 7)) == pytest.approx(0.75)

    def test_reversal(self):
        # strictly decreasing vs increasing: LCS length 1 of 3 both sides
        assert rouge_l((5, 4, 3), (3, 4, 5)) == pytest.approx(1 / 3)

    def test_empty_zero(self):
        assert rouge_l((), (3,)) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(hyp=tokens, ref=tokens)
    def test_lcs_matches_exhaustive_oracle(self, hyp, ref):
        assert lcs_length(hyp, ref) == lcs_oracle(hyp, ref)

    @settings(max_examples=200, deadline=None)
    @given(hyp=tokens.filter(len), ref=tokens.filter(len))
    def test_lcs_monotone_under_extension(self, hyp, ref):
        # Appending a shared token can only grow the LCS.
        base = lcs_length(hyp, ref)
        extended = lcs_length(tuple(hyp) + (99,), tuple(ref) + (99,))
        assert extended >= base + 1


class TestQualityMap:
    def test_keys_and_scale(self):
        q = score_quality((3, 4, 5), (3, 4, 5))
        assert set(q) == {"rouge1", "rouge2", "rougeL"}
        assert q == {"rouge1": 100.0, "rouge2": 100.0, "rougeL": 100.0}

    def test_partial(self):
        q = score_quality((3, 9), (3, 4))
        assert q["rouge1"] == pytest.approx(50.0)
        assert q["rouge2"] == 0.0
