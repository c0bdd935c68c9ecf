"""Calibration and selective-generation metrics over scored predictions.

The unit of account is a `ScoredPair`: a confidence in (0, 1] plus a
correctness flag.  Sequence-level pairs treat a prediction as correct only
on exact token match with the reference; token-level pairs compare
positionally up to the shorter length.

Expected calibration error partitions (0, 1] into K equal bins
((k-1)/K, k/K] and sums |confidence - accuracy| gaps weighted by bin mass.
Bin membership is decided by direct comparison against the k/K boundary
values so that independent implementations agree on boundary cases.

Uncertainty-vs-quality agreement is summarized three ways: Spearman rank
correlation (average ranks on ties, undefined on zero rank variance),
ROC-AUC for separating good from bad outputs at a quality threshold
(Mann-Whitney form, ties count one half), and abstention curves that drop
the most uncertain fraction of records and track mean quality of the rest.
Means over retained qualities use math.fsum, so their value does not
depend on summation order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    MetricError,
    UndefinedCorrelationError,
)
from .schema import write_text

QUALITY_KEYS = ("rouge1", "rouge2", "rougeL")


@dataclass(frozen=True)
class ScoredPair:
    confidence: float
    correct: bool


@dataclass(frozen=True)
class AbstentionCurve:
    alphas: tuple[float, ...]
    values: tuple[float, ...]


@dataclass(frozen=True)
class BootstrapResult:
    rho: float
    std: float
    resamples_used: int
    resamples_failed: int


def _check_pairs(pairs):
    pairs = list(pairs)
    if not pairs:
        raise MetricError("ece needs at least one scored pair")
    for p in pairs:
        if not (0.0 < p.confidence <= 1.0):
            raise MetricError(
                f"pair confidence {p.confidence} outside the half-open interval (0, 1]"
            )
    return pairs


def check_bins(bins: int) -> int:
    """Expected calibration error needs at least one bin."""
    if bins < 1:
        raise ConfigurationError(f"ece bins must be >= 1, got {bins}")
    return bins


def ece(pairs, bins: int) -> float:
    """Expected calibration error over `bins` equal-width bins
    ((k-1)/K, k/K]; the caller chooses which pairs to feed (sequence_pairs
    or token_pairs output)."""
    k = check_bins(bins)
    pairs = _check_pairs(pairs)
    conf = np.array([p.confidence for p in pairs], dtype=float)
    corr = np.array([1.0 if p.correct else 0.0 for p in pairs])
    bounds = np.arange(1, k + 1) / k
    # side='left' puts p in the first bin whose upper edge satisfies p <= k/K,
    # using the same float comparisons a scan over the edges would use.
    idx = np.searchsorted(bounds, conf, side="left")
    counts = np.bincount(idx, minlength=k)
    conf_sums = np.bincount(idx, weights=conf, minlength=k)
    corr_sums = np.bincount(idx, weights=corr, minlength=k)
    n = len(pairs)
    total = 0.0
    for b in range(k):
        if counts[b] == 0:
            continue
        gap = abs(conf_sums[b] / counts[b] - corr_sums[b] / counts[b])
        total += counts[b] / n * gap
    return float(total)


def sequence_pairs(records) -> list[ScoredPair]:
    """One pair per prediction: joint confidence and exact-match correctness.

    Confidence is exp of the summed per-token log-probabilities; hypotheses
    and references are stored without terminal eos, so plain tuple equality
    is the eos-stripped exact match.
    """
    out = []
    for rec in records:
        conf = math.exp(math.fsum(rec.token_logp))
        out.append(ScoredPair(confidence=conf, correct=tuple(rec.hypothesis) == tuple(rec.reference)))
    return out


def token_pairs(records) -> list[ScoredPair]:
    """Positional token pairs up to min(|hyp|, |ref|); hypothesis positions
    past the reference's end are skipped."""
    pairs = []
    for rec in records:
        hyp = tuple(rec.hypothesis)
        ref = tuple(rec.reference)
        for t in range(min(len(hyp), len(ref))):
            pairs.append(
                ScoredPair(
                    confidence=math.exp(rec.token_logp[t]),
                    correct=hyp[t] == ref[t],
                )
            )
    return pairs


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties getting the average rank of their run."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], len(values)) - 1
    ranks = np.empty(len(values), dtype=float)
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    return ranks


def spearman(u, q) -> float:
    """Spearman rank correlation with average ranks on ties.

    Raises UndefinedCorrelationError when either side has zero rank
    variance (all values tied), and on length mismatch or n < 2.
    """
    u = np.asarray(u, dtype=float)
    q = np.asarray(q, dtype=float)
    if u.shape != q.shape or u.ndim != 1:
        raise MetricError(f"spearman needs two equal-length vectors, got {u.shape} and {q.shape}")
    if len(u) < 2:
        raise UndefinedCorrelationError(f"spearman needs n >= 2, got n={len(u)}")
    ru = _average_ranks(u)
    rq = _average_ranks(q)
    ru_c = ru - ru.mean()
    rq_c = rq - rq.mean()
    var_u = float(np.dot(ru_c, ru_c))
    var_q = float(np.dot(rq_c, rq_c))
    if var_u == 0.0 or var_q == 0.0:
        side = "first" if var_u == 0.0 else "second"
        raise UndefinedCorrelationError(
            f"rank correlation undefined: {side} argument has zero rank variance"
        )
    return float(np.dot(ru_c, rq_c) / math.sqrt(var_u * var_q))


def check_resamples(n_resamples: int) -> int:
    """A bootstrap needs at least two resamples for a standard deviation."""
    if n_resamples < 2:
        raise ConfigurationError(f"bootstrap needs >= 2 resamples, got {n_resamples}")
    return n_resamples


def _resample_centred_ranks(ids: np.ndarray, n_ids: int) -> np.ndarray:
    """Average ranks minus their mean (n+1)/2, one row per resample.

    `ids` is a (B, n) matrix of dense value ids (equal values share an id,
    ids ascend with the values).  Per resample, a count of each id and its
    running sum give every value's average rank
    (count below) + (count + 1) / 2.
    """
    n_rows, n = ids.shape
    rows = np.arange(n_rows)[:, None]
    counts = np.bincount((ids + n_ids * rows).ravel(), minlength=n_rows * n_ids)
    counts = counts.reshape(n_rows, n_ids)
    below = np.cumsum(counts, axis=1) - counts
    return below[rows, ids] + (counts[rows, ids] + 1) / 2.0 - (n + 1) / 2.0


def bootstrap_std(u, q, n_resamples: int, seed: int) -> BootstrapResult:
    """Full-sample Spearman rho plus its bootstrap standard deviation.

    Resamples records with replacement; resamples on which the correlation
    is undefined are skipped and counted, never silently zeroed.  The std
    is the ddof=1 standard deviation over successful resamples.

    All resamples are ranked at once, as a (B, n) array.  The result is
    bitwise the one a `spearman` call per resample gives: average ranks
    are half-integers and their mean is exactly (n+1)/2, so the centred
    ranks, their squares and their products are multiples of 1/4, and
    every partial sum of them is exact in float64 whatever the summation
    order (the largest, the rank variance (n^3 - n)/12, stays below 2^51
    for n up to about 3e5).  Only the final square root and division
    round, the same way in both routes.  NaN has no rank and is refused.
    """
    from .rng import stream

    check_resamples(n_resamples)
    u = np.asarray(u, dtype=float)
    q = np.asarray(q, dtype=float)
    rho = spearman(u, q)  # propagate undefined-correlation errors directly
    if np.isnan(u).any() or np.isnan(q).any():
        raise MetricError("bootstrap rank correlation got NaN values")
    rng = stream(seed, "bootstrap")
    n = len(u)
    idx = rng.integers(0, n, size=(n_resamples, n))
    centred = []
    for side in (u, q):
        uniq, ids = np.unique(side, return_inverse=True)
        centred.append(_resample_centred_ranks(ids[idx], len(uniq)))
    ru_c, rq_c = centred
    var_u = (ru_c * ru_c).sum(axis=1)
    var_q = (rq_c * rq_c).sum(axis=1)
    usable = (var_u != 0.0) & (var_q != 0.0)
    values = (ru_c * rq_c).sum(axis=1)[usable] / np.sqrt(var_u[usable] * var_q[usable])
    used = len(values)
    failed = n_resamples - used
    if used < 2:
        raise MetricError(
            f"bootstrap produced {used} usable resamples "
            f"({failed} failed); cannot estimate a standard deviation"
        )
    std = float(np.std(values, ddof=1))
    return BootstrapResult(rho=rho, std=std, resamples_used=used, resamples_failed=failed)


def roc_auc(u, quality, theta: float) -> float:
    """AUC for `u` separating good (quality > theta) from bad outputs.

    Mann-Whitney form over average ranks, so tied u values contribute one
    half.  Raises MetricError naming the class counts when either class is
    empty.
    """
    u = np.asarray(u, dtype=float)
    quality = np.asarray(quality, dtype=float)
    if u.shape != quality.shape or u.ndim != 1:
        raise MetricError(
            f"roc_auc needs two equal-length vectors, got {u.shape} and {quality.shape}"
        )
    good = quality > theta
    n_good = int(good.sum())
    n_bad = len(u) - n_good
    if n_good == 0 or n_bad == 0:
        raise MetricError(
            f"roc_auc requires both classes at theta={theta}: "
            f"{n_good} good, {n_bad} bad"
        )
    ranks = _average_ranks(u)
    r_good = float(ranks[good].sum())
    return (r_good - n_good * (n_good + 1) / 2.0) / (n_good * n_bad)


def check_alphas(alphas) -> tuple[float, ...]:
    """Abstention fractions as floats: at least one, each in [0, 1), sorted
    ascending."""
    alphas = tuple(float(a) for a in alphas)
    if not alphas:
        raise ConfigurationError("abstention needs at least one alpha")
    for a in alphas:
        if not 0.0 <= a < 1.0:
            raise ConfigurationError(f"abstention alpha must lie in [0, 1), got {a}")
    if list(alphas) != sorted(alphas):
        raise ConfigurationError("abstention alphas must be sorted ascending")
    return alphas


def abstention_curve(records, quality_key: str, alphas) -> AbstentionCurve:
    """Mean retained quality after dropping the most uncertain records.

    Records are ordered by uncertainty ascending (lowest u = most
    uncertain), ties broken by record id; at each alpha the floor(alpha*n)
    lowest-u records are removed.  Alphas must be sorted ascending and lie
    in [0, 1).
    """
    records = list(records)
    if not records:
        raise MetricError("abstention curve needs at least one record")
    if quality_key not in QUALITY_KEYS:
        raise ConfigurationError(f"unknown quality metric {quality_key!r}")
    alphas = check_alphas(alphas)
    ordered = sorted(records, key=lambda r: (r.uncertainty, r.id))
    qualities = [r.quality[quality_key] for r in ordered]
    n = len(qualities)
    values = []
    for a in alphas:
        drop = int(math.floor(a * n))
        kept = qualities[drop:]
        values.append(math.fsum(kept) / len(kept))
    return AbstentionCurve(alphas=alphas, values=tuple(values))


def write_csv(path, header: str, rows) -> None:
    """`header`, then one comma-joined line per row.  A float cell is
    written with `.17g` (exact, not always shortest), None as an empty
    cell, anything else with `str`."""
    def cell(value) -> str:
        if isinstance(value, float):
            return format(value, ".17g")
        return "" if value is None else str(value)

    write_text(path, itertools.chain(
        (header + "\n",), (",".join(map(cell, row)) + "\n" for row in rows)))
