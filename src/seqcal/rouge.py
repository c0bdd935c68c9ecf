"""Token-level ROUGE-1, ROUGE-2, and ROUGE-L F1 over integer id sequences.

The corpus is synthetic, so there is no stemming, casing, or stopword
handling anywhere: scores are deterministic functions of the id sequences.
N-gram variants use clipped counts; the L variant uses the longest common
subsequence.  Each score is F1, the harmonic mean of precision and recall,
defined as 0 when nothing overlaps.  Scores live in [0, 1];
`score_quality` scales to the percentage convention used in reports.
"""

from __future__ import annotations

from collections import Counter

from .errors import ConfigurationError


def _f1(overlap: int, hyp_total: int, ref_total: int) -> float:
    """F1 of `overlap` matched units out of `hyp_total` hypothesis and
    `ref_total` reference units."""
    if not overlap:
        return 0.0
    precision = overlap / hyp_total
    recall = overlap / ref_total
    return 2.0 * precision * recall / (precision + recall)


def _ngram_counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(hypothesis, reference, n: int) -> float:
    """Clipped n-gram overlap F1; order n must be 1 or 2."""
    if n not in (1, 2):
        raise ConfigurationError(f"rouge_n order must be 1 or 2, got {n}")
    hyp_counts = _ngram_counts(tuple(hypothesis), n)
    ref_counts = _ngram_counts(tuple(reference), n)
    overlap = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
    return _f1(overlap, sum(hyp_counts.values()), sum(ref_counts.values()))


def lcs_length(a, b) -> int:
    """Length of the longest common subsequence, O(len(a) * len(b))."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                cur.append(prev[j - 1] + 1)
            else:
                cur.append(max(prev[j], cur[j - 1]))
        prev = cur
    return prev[len(b)]


def rouge_l(hypothesis, reference) -> float:
    """Longest-common-subsequence F1."""
    hyp = tuple(hypothesis)
    ref = tuple(reference)
    return _f1(lcs_length(hyp, ref), len(hyp), len(ref))


def score_quality(hypothesis, reference) -> dict[str, float]:
    """F1 percentages keyed the way prediction records store them."""
    return {
        "rouge1": 100.0 * rouge_n(hypothesis, reference, 1),
        "rouge2": 100.0 * rouge_n(hypothesis, reference, 2),
        "rougeL": 100.0 * rouge_l(hypothesis, reference),
    }
