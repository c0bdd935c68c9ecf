import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    abstention_oracle,
    auc_oracle,
    bootstrap_oracle,
    ece_oracle,
    ranks_oracle,
    spearman_oracle,
)
from seqcal.calib import (
    _centred_ranks,
    abstention_curve,
    bootstrap_std,
    check_bins,
    check_resamples,
    ece,
    roc_auc,
    sequence_pairs,
    spearman,
    token_pairs,
)
from seqcal.errors import (
    ConfigurationError,
    MetricError,
    UndefinedCorrelationError,
)
from seqcal.rng import stream


def scored(*pairs):
    """(confidences, correct flags) arrays from (confidence, correct) pairs,
    the shape sequence_pairs and token_pairs return."""
    return (np.array([c for c, _ in pairs], dtype=float),
            np.array([f for _, f in pairs], dtype=bool))


@dataclass(frozen=True)
class FakeRecord:
    # calib only needs these attributes; the full prediction record
    # provides the same surface.
    id: str
    hypothesis: tuple
    reference: tuple
    token_logp: tuple
    uncertainty: float
    quality: dict = field(default_factory=dict)


def make_records(rng, n):
    records = []
    for i in range(n):
        length = int(rng.integers(1, 6))
        logp = tuple(float(-rng.exponential(0.5)) for _ in range(length))
        hyp = tuple(int(t) for t in rng.integers(3, 8, size=length))
        ref = tuple(int(t) for t in rng.integers(3, 8, size=int(rng.integers(1, 6))))
        records.append(
            FakeRecord(
                id=f"r{i:04d}",
                hypothesis=hyp,
                reference=ref,
                token_logp=logp,
                uncertainty=float(np.mean(logp)),
                quality={
                    "rouge1": float(rng.uniform(0, 100)),
                    "rouge2": float(rng.uniform(0, 100)),
                    "rougeL": float(rng.uniform(0, 100)),
                },
            )
        )
    return records


class TestEce:
    def test_single_pair_gap(self):
        # one pair at confidence 0.7, incorrect: ece = 0.7
        assert ece(scored((0.7, False)), 10) == pytest.approx(0.7)

    def test_perfectly_calibrated_two_bins(self):
        # two pairs in one bin, conf 0.75 each, one correct: gap 0.25
        pairs = scored((0.75, True), (0.75, False))
        assert ece(pairs, 2) == pytest.approx(0.25)

    def test_boundary_goes_to_lower_bin(self):
        # confidence exactly 1/K belongs to bin 1: ((0, 1/K]), not bin 2
        pairs = scored((1.0 / 15.0, True))
        assert ece(pairs, 15) == pytest.approx(abs(1.0 / 15.0 - 1.0))

    def test_confidence_one_allowed(self):
        assert ece(scored((1.0, True)), 15) == 0.0

    def test_zero_confidence_rejected(self):
        with pytest.raises(MetricError, match=r"pair confidence 0.0 outside .*\(0, 1\]"):
            ece(scored((0.5, True), (0.0, False)), 15)

    def test_empty_rejected(self):
        with pytest.raises(MetricError, match="at least one scored pair"):
            ece(scored(), 15)

    def test_bin_rule_has_one_owner(self):
        assert check_bins(1) == 1
        with pytest.raises(ConfigurationError, match="ece bins must be >= 1"):
            check_bins(0)
        with pytest.raises(ConfigurationError, match="ece bins must be >= 1"):
            ece(scored((0.5, True)), 0)

    def test_matches_scan_oracle_randomized(self):
        rng = stream(77, "ece-test")
        for trial in range(250):
            n = int(rng.integers(1, 60))
            k = int(rng.integers(1, 25))
            pairs = scored(*[(float(rng.uniform(1e-9, 1.0)), bool(rng.integers(0, 2)))
                             for _ in range(n)])
            # mix in exact boundary values to stress the edge comparisons
            if n > 2:
                pairs[0][:2] = 1.0 / k, min(2.0 / k, 1.0)
                pairs[1][:2] = True, False
            got = ece(pairs, k)
            want = ece_oracle(pairs, k)
            assert got == pytest.approx(want, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        confs=st.lists(
            st.floats(min_value=1e-6, max_value=1.0, allow_nan=False), min_size=1, max_size=40
        ),
        flags=st.lists(st.booleans(), min_size=1, max_size=40),
        k=st.integers(min_value=1, max_value=20),
    )
    def test_oracle_property(self, confs, flags, k):
        pairs = scored(*zip(confs, flags))
        assert ece(pairs, k) == pytest.approx(
            ece_oracle(pairs, k), abs=1e-12
        )


class TestPairExtraction:
    def test_sequence_pair_perfect(self):
        rec = FakeRecord(
            id="a", hypothesis=(3, 4), reference=(3, 4), token_logp=(0.0, 0.0),
            uncertainty=0.0,
        )
        conf, correct = sequence_pairs([rec])
        assert conf.tolist() == [1.0] and correct.tolist() == [True]

    def test_sequence_pair_confidence_product(self):
        rec = FakeRecord(
            id="a", hypothesis=(3,), reference=(4,),
            token_logp=(math.log(0.25),), uncertainty=math.log(0.25),
        )
        conf, correct = sequence_pairs([rec])
        assert conf.tolist() == [pytest.approx(0.25)]
        assert correct.tolist() == [False]

    def test_token_pairs_positional(self):
        # hyp "a b" vs ref "a c" with probs (0.9, 0.8)
        rec = FakeRecord(
            id="a", hypothesis=(3, 4), reference=(3, 5),
            token_logp=(math.log(0.9), math.log(0.8)), uncertainty=-0.1,
        )
        conf, correct = token_pairs([rec])
        assert conf.tolist() == [pytest.approx(0.9), pytest.approx(0.8)]
        assert correct.tolist() == [True, False]

    def test_token_pairs_skip_counted(self):
        # |hyp| = 3, |ref| = 2: exactly 2 pairs, one skipped position
        rec = FakeRecord(
            id="a", hypothesis=(3, 4, 5), reference=(3, 4),
            token_logp=(-0.1, -0.1, -0.1), uncertainty=-0.1,
        )
        conf, correct = token_pairs([rec])
        assert len(conf) == len(correct) == 2


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_perfect_inverse(self):
        assert spearman([1, 2, 3], [5, 4, 3]) == pytest.approx(-1.0)

    def test_ties_average_rank(self):
        # hand case: u = (1, 1, 2), q = (3, 3, 5) -> rho = 1 under average ranks
        assert spearman([1, 1, 2], [3, 3, 5]) == pytest.approx(1.0)

    def test_constant_side_undefined(self):
        with pytest.raises(UndefinedCorrelationError):
            spearman([1, 1, 1], [1, 2, 3])

    def test_matches_quadratic_oracle_randomized(self):
        rng = stream(31, "spearman-test")
        checked = 0
        while checked < 220:
            n = int(rng.integers(2, 40))
            # duplicate-heavy draws stress the tie handling
            u = rng.integers(0, 6, size=n).astype(float)
            q = rng.integers(0, 6, size=n).astype(float)
            if len(set(u)) < 2 or len(set(q)) < 2:
                continue
            assert spearman(u, q) == pytest.approx(spearman_oracle(u, q), abs=1e-12)
            checked += 1

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.sampled_from([-2.5, -0.0, 0.0, 0.125, 1.0, 3.0, 1e300]), max_size=40
        ),
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(1, 8),
    )
    def test_average_ranks_equal_oracle_exactly(self, values, seed, n_rows):
        # a small value set makes ties common; ranks are exact half-integers,
        # both for the values themselves and for every row of a (B, n)
        # resample index matrix
        n = len(values)
        centre = (n + 1) / 2.0
        assert _centred_ranks(values).tolist() == [r - centre for r in ranks_oracle(values)]
        if not n:
            return
        idx = np.random.default_rng(seed).integers(0, n, size=(n_rows, n))
        batched = _centred_ranks(values, idx)
        assert batched.shape == (n_rows, n)
        for row, picks in zip(batched, idx):
            want = [r - centre for r in ranks_oracle([values[i] for i in picks])]
            assert row.tolist() == want

    def test_nan_has_no_rank(self):
        with pytest.raises(MetricError, match="NaN"):
            spearman([0.0, np.nan, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(MetricError, match="NaN"):
            roc_auc([0.0, np.nan], [10.0, 90.0], 40.0)

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=2, max_size=30
        )
    )
    def test_invariant_under_monotone_transform(self, data):
        u = [a for a, _ in data]
        q = [b for _, b in data]
        if len(set(u)) < 2 or len(set(q)) < 2:
            return
        base = spearman(u, q)
        stretched = spearman([3.0 * x + 7.0 for x in u], [math.exp(0.3 * y) for y in q])
        assert stretched == pytest.approx(base, abs=1e-12)


class TestBootstrap:
    def test_perfectly_correlated(self):
        u = np.arange(30, dtype=float)
        q = u * 2.0 + 1.0
        result = bootstrap_std(u, q, n_resamples=200, seed=5)
        assert result.rho == pytest.approx(1.0)
        assert result.std == pytest.approx(0.0, abs=1e-15)
        assert result.resamples_failed == 0

    def test_deterministic_given_seed(self):
        rng = stream(9, "boot")
        u = rng.random(40)
        q = rng.random(40)
        a = bootstrap_std(u, q, n_resamples=300, seed=11)
        b = bootstrap_std(u, q, n_resamples=300, seed=11)
        assert a == b

    def test_seed_changes_resamples(self):
        rng = stream(9, "boot2")
        u = rng.random(40)
        q = rng.random(40)
        a = bootstrap_std(u, q, n_resamples=300, seed=1)
        b = bootstrap_std(u, q, n_resamples=300, seed=2)
        assert a.rho == b.rho
        assert a.std != b.std

    def test_constant_quality_propagates_error(self):
        with pytest.raises(UndefinedCorrelationError):
            bootstrap_std([1.0, 2.0, 3.0], [5.0, 5.0, 5.0], n_resamples=50, seed=0)

    def test_std_positive_for_noisy_data(self):
        rng = stream(12, "boot3")
        u = rng.random(50)
        q = rng.random(50)
        result = bootstrap_std(u, q, n_resamples=500, seed=3)
        assert result.std > 0.0
        assert result.resamples_used + result.resamples_failed == 500


class TestBootstrapAgainstLoops:
    """All resamples ranked at once against one resample at a time."""

    def _check(self, u, q, n_resamples, seed):
        try:
            got = bootstrap_std(u, q, n_resamples, seed)
        except UndefinedCorrelationError:
            assert len(set(u)) < 2 or len(set(q)) < 2
            return None
        except MetricError as exc:
            exact, failed = bootstrap_oracle(u, q, n_resamples, seed, spearman)
            assert len(exact) < 2 and "usable" in str(exc)
            assert f"({failed} failed)" in str(exc)
            return "too few"
        exact, failed = bootstrap_oracle(u, q, n_resamples, seed, spearman)
        brute, brute_failed = bootstrap_oracle(u, q, n_resamples, seed, spearman_oracle)
        assert (got.resamples_used, got.resamples_failed) == (len(exact), failed)
        assert brute_failed == failed
        assert got.rho == spearman(u, q)
        # bit for bit the per-resample spearman route ...
        assert got.std == float(np.std(np.asarray(exact), ddof=1))
        # ... and close to the O(n^2) rank oracle
        assert np.allclose(exact, brute, rtol=1e-12, atol=1e-12)
        assert got.std == pytest.approx(float(np.std(brute, ddof=1)), rel=1e-9, abs=1e-12)
        return "failed" if failed else "clean"

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.lists(st.tuples(st.integers(-2, 2), st.sampled_from([0.0, -0.0, 25.0, 100.0])),
                      min_size=2, max_size=25),
        n_resamples=st.integers(2, 30),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_tie_heavy_data_matches_loops(self, data, n_resamples, seed):
        self._check([float(a) for a, _ in data], [b for _, b in data], n_resamples, seed)

    def test_every_outcome_is_reached(self):
        outcomes = set()
        rng = stream(31, "boot-outcomes")
        for trial in range(400):
            n = int(rng.integers(2, 7))
            u = rng.integers(0, 3, size=n).astype(float).tolist()
            q = rng.integers(0, 2, size=n).astype(float).tolist()
            outcomes.add(self._check(u, q, int(rng.integers(2, 6)), trial))
        assert {"clean", "failed", "too few", None} <= outcomes

    def test_continuous_and_infinite_values_match_loops(self):
        rng = stream(32, "boot-floats")
        for trial in range(30):
            n = int(rng.integers(5, 120))
            u = rng.standard_normal(n)
            u[rng.random(n) < 0.1] = -np.inf
            q = np.round(rng.random(n) * 100.0, 0)
            assert self._check(u.tolist(), q.tolist(), 40, trial) in ("clean", "failed")

    def test_nan_refused(self):
        with pytest.raises(MetricError, match="NaN"):
            bootstrap_std([0.0, 1.0, np.nan, 2.0], [1.0, 2.0, 3.0, 4.0], 10, 0)

    def test_resample_rule_has_one_owner(self):
        assert check_resamples(2) == 2
        with pytest.raises(ConfigurationError, match=">= 2 resamples"):
            check_resamples(1)
        with pytest.raises(ConfigurationError, match=">= 2 resamples"):
            bootstrap_std([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], 1, 0)


class TestRocAuc:
    def test_perfect_separation(self):
        u = [-0.1, -0.2, -5.0, -6.0]
        q = [80.0, 70.0, 10.0, 5.0]
        assert roc_auc(u, q, theta=40.0) == 1.0

    def test_reversed_separation(self):
        u = [-5.0, -6.0, -0.1, -0.2]
        q = [80.0, 70.0, 10.0, 5.0]
        assert roc_auc(u, q, theta=40.0) == 0.0

    def test_all_ties_half(self):
        u = [-1.0, -1.0, -1.0, -1.0]
        q = [80.0, 70.0, 10.0, 5.0]
        assert roc_auc(u, q, theta=40.0) == 0.5

    def test_threshold_is_strict(self):
        # quality exactly theta counts as bad
        u = [-1.0, -2.0]
        q = [40.0, 50.0]
        auc = roc_auc(u, q, theta=40.0)
        assert auc == 0.0  # good item (-2) ranks below bad item (-1)

    def test_single_class_error_names_counts(self):
        with pytest.raises(MetricError, match="2 good, 0 bad"):
            roc_auc([-1.0, -2.0], [80.0, 90.0], theta=40.0)

    def test_matches_pairwise_oracle_exactly(self):
        rng = stream(55, "auc-test")
        checked = 0
        while checked < 220:
            n = int(rng.integers(2, 50))
            u = rng.integers(-4, 5, size=n).astype(float)  # heavy ties
            q = rng.uniform(0, 100, size=n)
            theta = float(rng.uniform(5, 95))
            n_good = int((q > theta).sum())
            if n_good in (0, n):
                continue
            assert roc_auc(u, q, theta) == auc_oracle(list(u), list(q), theta)
            checked += 1

    def test_complement_under_negation(self):
        rng = stream(56, "auc-neg")
        u = rng.random(30)
        q = rng.uniform(0, 100, 30)
        if not 0 < (q > 50).sum() < 30:
            q[0] = 80.0
            q[1] = 20.0
        a = roc_auc(u, q, 50.0)
        b = roc_auc(-u, q, 50.0)
        assert a + b == pytest.approx(1.0, abs=1e-12)


class TestAbstention:
    def test_four_records_alpha_half(self):
        # removing 2 of 4 most-uncertain leaves the 2 highest-u records
        records = [
            FakeRecord("a", (3,), (3,), (-0.1,), -0.1, {"rouge1": 90.0, "rouge2": 0, "rougeL": 0}),
            FakeRecord("b", (3,), (3,), (-0.5,), -0.5, {"rouge1": 70.0, "rouge2": 0, "rougeL": 0}),
            FakeRecord("c", (3,), (3,), (-1.0,), -1.0, {"rouge1": 50.0, "rouge2": 0, "rougeL": 0}),
            FakeRecord("d", (3,), (3,), (-2.0,), -2.0, {"rouge1": 10.0, "rouge2": 0, "rougeL": 0}),
        ]
        values = abstention_curve(records, "rouge1", (0.0, 0.5))
        assert values == (pytest.approx(55.0), pytest.approx(80.0))

    def test_alpha_zero_equals_corpus_mean_exactly(self):
        rng = stream(3, "abst")
        records = make_records(rng, 37)
        (value,) = abstention_curve(records, "rougeL", (0.0,))
        ordered = sorted(records, key=lambda r: (r.uncertainty, r.id))
        want = math.fsum(r.quality["rougeL"] for r in ordered) / len(records)
        assert value == want

    def test_tie_break_by_id(self):
        records = [
            FakeRecord("b", (3,), (3,), (-1.0,), -1.0, {"rouge1": 10.0, "rouge2": 0, "rougeL": 0}),
            FakeRecord("a", (3,), (3,), (-1.0,), -1.0, {"rouge1": 90.0, "rouge2": 0, "rougeL": 0}),
        ]
        # equal u: id "a" sorts first and is dropped first
        assert abstention_curve(records, "rouge1", (0.5,)) == (pytest.approx(10.0),)

    def test_alpha_one_rejected(self):
        records = make_records(stream(4, "abst2"), 5)
        with pytest.raises(ConfigurationError):
            abstention_curve(records, "rouge1", (0.0, 1.0))

    def test_unsorted_alpha_rejected(self):
        records = make_records(stream(4, "abst3"), 5)
        with pytest.raises(ConfigurationError):
            abstention_curve(records, "rouge1", (0.5, 0.0))

    def test_matches_oracle_randomized(self):
        rng = stream(21, "abst-oracle")
        for _ in range(200):
            records = make_records(rng, int(rng.integers(1, 40)))
            alphas = sorted(set(float(a) for a in rng.uniform(0, 0.99, size=4)))
            values = abstention_curve(records, "rouge2", tuple(alphas))
            assert list(values) == abstention_oracle(records, "rouge2", alphas)
