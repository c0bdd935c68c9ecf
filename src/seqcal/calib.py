"""Calibration and selective-generation metrics over scored predictions.

The unit of account is a pair of arrays: confidences in (0, 1] and
correctness flags.  Sequence-level pairs treat a prediction as correct only
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
depend on summation order.  K and the fractions are this module's
constants `ECE_BINS` and `ALPHAS`, not arguments.
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
from .inference import sequence_logp
from .rng import stream
from .schema import write_text

QUALITY_KEYS = ("rouge1", "rouge2", "rougeL")

# The report settings: the ECE bin count K, the ROUGE cutoff in points
# between good and bad outputs for ROC-AUC (one per quality key), and the
# fractions of most uncertain records the abstention curve drops.
ECE_BINS = 15
THRESHOLDS = {"rouge1": 40.0, "rouge2": 15.0, "rougeL": 30.0}
ALPHAS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)


@dataclass(frozen=True)
class BootstrapResult:
    rho: float
    std: float
    resamples_used: int
    resamples_failed: int


def ece(pairs) -> float:
    """Expected calibration error over the K = `ECE_BINS` equal-width bins
    ((k-1)/K, k/K]; `pairs` is a (confidences, correct flags) pair of
    equal-length arrays, as sequence_pairs and token_pairs return."""
    conf, corr = (np.asarray(side, dtype=float) for side in pairs)
    if not len(conf):
        raise MetricError("ece needs at least one scored pair")
    outside = ~((conf > 0.0) & (conf <= 1.0))
    if outside.any():
        raise MetricError(f"pair confidence {float(conf[outside][0])} "
                          "outside the half-open interval (0, 1]")
    bounds = np.arange(1, ECE_BINS + 1) / ECE_BINS
    # side='left' puts p in the first bin whose upper edge satisfies p <= k/K,
    # using the same float comparisons a scan over the edges would use.
    idx = np.searchsorted(bounds, conf, side="left")
    counts = np.bincount(idx, minlength=ECE_BINS)
    conf_sums = np.bincount(idx, weights=conf, minlength=ECE_BINS)
    corr_sums = np.bincount(idx, weights=corr, minlength=ECE_BINS)
    n = len(conf)
    total = 0.0
    for b in range(ECE_BINS):
        if counts[b] == 0:
            continue
        gap = abs(conf_sums[b] / counts[b] - corr_sums[b] / counts[b])
        total += counts[b] / n * gap
    return float(total)


def sequence_pairs(records) -> tuple[np.ndarray, np.ndarray]:
    """Per prediction, its joint confidence and exact-match correctness.

    Confidence is exp(`sequence_logp`), the probability of emitting exactly
    the hypothesis and then eos, from the total the search ranked it by;
    hypotheses and references are stored without terminal eos, so plain
    tuple equality is the exact match.
    """
    records = list(records)
    conf = [math.exp(sequence_logp(rec.token_logp, rec.eos_logp)) for rec in records]
    correct = [tuple(rec.hypothesis) == tuple(rec.reference) for rec in records]
    return np.array(conf, dtype=float), np.array(correct, dtype=bool)


def token_pairs(records) -> tuple[np.ndarray, np.ndarray]:
    """Positional token confidences and correctness up to min(|hyp|, |ref|);
    hypothesis positions past the reference's end are skipped."""
    conf, correct = [], []
    for rec in records:
        matches = [h == r for h, r in zip(rec.hypothesis, rec.reference)]
        conf.extend(math.exp(lp) for lp in rec.token_logp[:len(matches)])
        correct.extend(matches)
    return np.array(conf, dtype=float), np.array(correct, dtype=bool)


def _centred_ranks(values, resamples=None) -> np.ndarray:
    """Average ranks (tied values share the mean rank of their run) minus
    their mean (n+1)/2.

    Without `resamples` the n values are ranked and the result has shape
    (n,).  With `resamples`, a (B, n) matrix of indices into `values`, row
    b ranks values[resamples[b]] and the result has shape (B, n).  Per row,
    a count of each distinct value and its running sum give every value's
    average rank (count below) + (count + 1) / 2.

    The result is exact: average ranks are half-integers and their mean is
    exactly (n+1)/2, so the centred ranks, their squares and their products
    are multiples of 1/4, and every partial sum of them is exact in float64
    whatever the summation order (the largest, the rank variance
    (n^3 - n)/12, stays below 2^51 for n up to about 3e5).  So the batched
    route and one call per resample give the same bits, rounding only in
    the final square root and division.  NaN has no rank and is refused.
    """
    values = np.asarray(values, dtype=float)
    if np.isnan(values).any():
        raise MetricError("cannot rank NaN values")
    uniq, ids = np.unique(values, return_inverse=True)
    ids = ids.reshape(1, -1) if resamples is None else ids[resamples]
    n_rows, n = ids.shape
    k = len(uniq)
    rows = np.arange(n_rows)[:, None]
    counts = np.bincount((ids + k * rows).ravel(), minlength=n_rows * k).reshape(n_rows, k)
    below = np.cumsum(counts, axis=1) - counts
    ranks = below[rows, ids] + (counts[rows, ids] + 1) / 2.0 - (n + 1) / 2.0
    return ranks[0] if resamples is None else ranks


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
    ru_c = _centred_ranks(u)
    rq_c = _centred_ranks(q)
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


def bootstrap_std(u, q, n_resamples: int, seed: int) -> BootstrapResult:
    """Full-sample Spearman rho plus its bootstrap standard deviation.

    Resamples records with replacement; resamples on which the correlation
    is undefined are skipped and counted, never silently zeroed.  The std
    is the ddof=1 standard deviation over successful resamples.

    All resamples are ranked at once, as a (B, n) array, by
    `_centred_ranks`, whose exactness makes the result bitwise the one a
    `spearman` call per resample gives.  An undefined full-sample rho
    propagates as UndefinedCorrelationError; fewer than two usable
    resamples is a plain MetricError.
    """
    check_resamples(n_resamples)
    u = np.asarray(u, dtype=float)
    q = np.asarray(q, dtype=float)
    rho = spearman(u, q)  # propagate undefined-correlation errors directly
    n = len(u)
    idx = stream(seed, "bootstrap").integers(0, n, size=(n_resamples, n))
    ru_c = _centred_ranks(u, idx)
    rq_c = _centred_ranks(q, idx)
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
    # The good outputs' ranks sum to their centred ranks' sum plus
    # n_good (n+1)/2; less the least such sum, n_good (n_good+1)/2, that is
    # the count of good-over-bad wins (ties one half), an exact half-integer.
    wins = float(_centred_ranks(u)[good].sum()) + n_good * n_bad / 2.0
    return wins / (n_good * n_bad)


def abstention_curve(records, quality_key: str) -> tuple[float, ...]:
    """Mean retained quality after dropping the most uncertain records, one
    value per alpha of `ALPHAS`.

    Records are ordered by uncertainty ascending (lowest u = most
    uncertain), ties broken by record id; at each alpha the floor(alpha*n)
    lowest-u records are removed.
    """
    records = list(records)
    if not records:
        raise MetricError("abstention curve needs at least one record")
    if quality_key not in QUALITY_KEYS:
        raise ConfigurationError(f"unknown quality metric {quality_key!r}")
    ordered = sorted(records, key=lambda r: (r.uncertainty, r.id))
    qualities = [r.quality[quality_key] for r in ordered]
    n = len(qualities)
    return tuple(math.fsum(qualities[drop:]) / (n - drop)
                 for drop in (int(math.floor(a * n)) for a in ALPHAS))


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
