"""Posterior-mean decoding and prediction serialization.

The posterior predictive at each decode step is the mean of member
probability distributions, one member per stochastic forward:

  base        one deterministic pass
  mcd         `samples` dropout passes of one model
  be          every rank-1 ensemble member of one model
  sngp        one pass with mean-field-adjusted logits
  sngp_mcd    `samples` dropout passes, each mean-field adjusted
  de          one pass per independently trained model
  sngp_de     one mean-field pass per independently trained model

Averaging happens strictly in probability space: softmax first, mean
second.  Collapsing the mean into the logits changes the distribution
whenever members disagree, so the two orders are never interchangeable.

Beam search has one scoring rule.  Pruning keeps the beam_size prefixes
with the highest summed mean-probability log score, and the output is the
closed hypothesis with the highest (total + eos log score) / (T + 1), the
u below.  A candidate is always a fully terminated sequence: eos is one
of the scored continuations from length 1 on, and hypotheses still alive
at the length cap are closed with a forced eos score.  Stored hypotheses
and per-token log-probabilities exclude the terminal eos; the eos
log-probability is kept alongside so every ranking score can be
reproduced.  A member pass whose logits are not finite, or a posterior
probability that underflows to 0 and so has no finite log score, stops
decoding with NumericalStateError, and prediction files with NaN or
infinite scores are refused on reading.

Decoding is batched over examples: `decode_corpus` runs one search over
the whole split, keeping the beam state as arrays over examples x live
hypotheses, with one member pass per (step, stochastic unit).  Its records
are bit-identical to decoding each example on its own, and that is kept
on purpose: the member pass feeds BLAS stacked (n, live, K) operands, one
GEMM per example at the one-example (live, K) shape, because a GEMM's
per-row results depend on its row count, and a last-bit change in a
log-probability can reorder near-tied hypotheses.  `beam_decode` is the
same search on a single example.  A decode is a pure function of the
members, the examples, the config and the run seed, so the `infer` stage
decodes its methods as the jobs of one `training.JobPool`, one warm
forked child per CPU decoding method after method (at one CPU, the stage
process decodes them all), and writes the same records.

`step_distributions` is the one routine that forms a decode step's
posterior-mean rows, the only place the methods differ: the search calls
it once per step, max_len + 1 times per decode, with the (examples, live,
step) token array of every live prefix; a prefix's state sums the
embeddings of bos and its tokens (`model.sum_embeddings`).

`sequence_logp` is log P = sum_t log pbar(y_t) + log pbar(eos), that of
emitting exactly the tokens and then stopping.  Its exp is the sequence
confidence calibration scores, and sequence uncertainty normalizes it,

    u = log P / (T + 1)

so lower u means a less confident, more uncertain prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import TokenSeq
from .errors import ConfigurationError, NumericalStateError, ValidationError
from .model import (
    TrainedModel,
    _check_tokens,
    _softmax_rows,
    check_members,
    dropout_active,
    dropout_mask,
    forward,
    mean_field_logits,
    predictive_variance,
    sum_embeddings,
)
from .rng import derive_seeds
from .rouge import score_quality
from .schema import read_jsonl, write_jsonl


@dataclass(frozen=True)
class PosteriorConfig:
    """Decode-time knobs: the beam width and the output length cap."""

    beam_size: int = 3
    max_len: int = 8

    def __post_init__(self):
        if self.beam_size < 1:
            raise ConfigurationError(f"beam_size must be >= 1, got {self.beam_size}")
        if self.max_len < 1:
            raise ConfigurationError(f"max_len must be >= 1, got {self.max_len}")


@dataclass(frozen=True)
class PredictionRecord:
    """One decoded output: tokens and per-token log scores exclude the
    terminal eos, whose log score is stored separately."""

    id: str
    hypothesis: TokenSeq
    token_logp: tuple[float, ...]
    eos_logp: float
    uncertainty: float

    def __post_init__(self):
        if len(self.token_logp) != len(self.hypothesis):
            raise ValidationError(f"token_logp has {len(self.token_logp)} entries "
                                  f"for {len(self.hypothesis)} tokens")


@dataclass(frozen=True)
class JoinedRecord(PredictionRecord):
    """A prediction joined with its reference and quality scores; the
    record surface every calibration metric consumes."""

    reference: TokenSeq
    quality: dict


def _member_pass(model: TrainedModel, ctx, states, mask, be_member: int) -> np.ndarray:
    """Probability rows (n, live, vocab) for one stochastic unit over every
    live prefix of every example: ctx (n, d), states (n, live, d), and an
    optional per-example dropout mask (n, hidden).

    The matmuls, the predictive variance's included, take stacked
    (n, live, K) operands, so BLAS runs once per example at the (live, K)
    shape a one-example decode uses.  Flattening to (n * live, K) would
    change the GEMM row count, and with it the last bit of some rows.  The
    elementwise steps do not depend on the row count, so the softmax runs
    flattened.
    """
    n, live, d = states.shape
    z = np.concatenate([np.broadcast_to(ctx[:, None, :], (n, live, d)), states], axis=2)
    out = forward(model, z, be_member=be_member,
                  mask=None if mask is None else mask[:, None, :])
    logits = out["logits"]
    if out["phi"] is not None:
        sigma2 = predictive_variance(model.sngp, out["phi"])
        logits = mean_field_logits(logits, sigma2[..., None],
                                   model.config.sngp.mean_field_factor)
    if not np.all(np.isfinite(logits)):
        raise NumericalStateError(
            f"{model.config.method} decode pass produced non-finite logits")
    return _softmax_rows(logits.reshape(n * live, -1)).reshape(n, live, -1)


def step_distributions(members, ctxs, prefixes, *, run_seed: int, example_ids, step: int):
    """Posterior-mean next-token rows (n, live, vocab) for the prefixes
    (n, live, step): the mean of the member pass over every stochastic
    unit.  ctxs holds one (n, d) context array per member model, and each
    member's prefix states are `sum_embeddings` of bos followed by the
    prefix, in its own embeddings.

    Dropout samples draw one mask per (example, step, sample index), shared
    by all of that example's prefixes, so hypotheses inside one beam step
    see the same subnetwork and remain comparable.  Each mask is the start
    of the stream keyed by derive_seed(run_seed, "mcd", example id, step,
    sample), the same draws whether an example is decoded alone or in a
    batch (`derive_seeds` hashes the shared (run_seed, "mcd") head once
    per sample); the step's (samples, examples, hidden) masks come from one
    batched `dropout_mask` call.
    """
    config = members[0].config
    dims = members[0].dims
    if dropout_active(config.method):
        seeds = [derive_seeds((run_seed, "mcd"), example_ids, (step, m))
                 for m in range(config.samples)]
        masks = dropout_mask(seeds, dims.hidden_dim)
        units = [(0, sample_masks, 0) for sample_masks in masks]
    elif config.method == "be":
        units = [(0, None, k) for k in range(config.be_size)]
    else:
        units = [(i, None, 0) for i in range(len(members))]
    bos = np.full(prefixes.shape[:2] + (1,), dims.bos_id)
    states = [sum_embeddings(m.embed, np.concatenate([bos, prefixes], axis=2))
              for m in members]
    total = np.zeros(prefixes.shape[:2] + (dims.vocab_size,))
    for i, mask, be_member in units:
        total += _member_pass(members[i], ctxs[i], states[i], mask, be_member)
    return total / len(units)


def sequence_logp(token_logp, eos_logp: float) -> float:
    """Log-probability of emitting exactly these tokens and then eos."""
    return math.fsum(token_logp) + float(eos_logp)


def uncertainty_score(token_logp, eos_logp: float) -> float:
    """Length-normalized sequence log-probability, the eos step counted."""
    return sequence_logp(token_logp, eos_logp) / (len(tuple(token_logp)) + 1)


def _sorted_by(key: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """Per-row order of (key, tokens...) ascending: key (n, c), tokens
    (n, c, t).  Token columns break key ties lexicographically."""
    columns = [tokens[:, :, j] for j in range(tokens.shape[2] - 1, -1, -1)]
    return np.lexsort(columns + [key], axis=-1)


def _search(members, inputs, example_ids, config: PosteriorConfig,
            run_seed: int) -> tuple[PredictionRecord, ...]:
    """Beam search over all examples at once.

    The beam state is arrays over examples x live hypotheses: tokens and
    per-token log-probs (n, live, max_len) and running totals (n, live).
    Every example has the same live count at every step, so the arrays
    stay rectangular.  Unused token positions hold -1, so a hypothesis
    sorts before its extensions, as tuples do.  Each step makes one
    `step_distributions` call over every live prefix of every example.
    """
    members = check_members(members, "posterior")
    dims = members[0].dims
    for x in inputs:
        _check_tokens(x, dims.vocab_size, "input")
    n = len(inputs)
    if n == 0:
        return ()
    width = config.max_len
    eos = dims.eos_id
    content = np.array([v for v in range(dims.vocab_size) if v != eos])
    ctxs = [np.stack([sum_embeddings(m.embed, x) for x in inputs]) for m in members]
    rows = np.arange(n)[:, None]
    tokens = np.full((n, 1, width), -1)
    logps = np.zeros((n, 1, width))
    totals = np.zeros((n, 1))
    closed = []  # (tokens, logps, totals, eos log-prob) for each step from 1 on
    for step in range(width + 1):
        dists = step_distributions(members, ctxs, tokens[:, :, :step], run_seed=run_seed,
                                   example_ids=example_ids, step=step)
        if not np.all(dists > 0.0):
            raise NumericalStateError(
                f"{members[0].config.method} posterior probability underflowed to 0 "
                f"at decode step {step}")
        logd = np.log(dists)
        # eos closes every hypothesis from length 1 on; at the cap it is forced
        if step > 0:
            closed.append((tokens, logps, totals, logd[:, :, eos]))
        if step == width:
            break
        live = tokens.shape[1]
        parent = np.repeat(np.arange(live), len(content))
        cand_logp = logd[:, :, content].reshape(n, -1)
        cand_total = totals[:, parent] + cand_logp
        cand_tokens = tokens[:, parent]
        cand_tokens[:, :, step] = np.tile(content, live)
        keep = _sorted_by(-cand_total, cand_tokens)[:, : config.beam_size]
        tokens = cand_tokens[rows, keep]
        logps = logps[rows, parent[keep]]
        logps[:, :, step] = cand_logp[rows, keep]
        totals = cand_total[rows, keep]

    tokens, logps, totals, eos_logp = (np.concatenate(part, axis=1) for part in zip(*closed))
    lengths = np.repeat(np.arange(1, width + 1), [c[0].shape[1] for c in closed])
    best = _sorted_by(-(totals + eos_logp) / (lengths + 1), tokens)[:, 0]
    out = []
    for e, j in enumerate(best.tolist()):
        length = int(lengths[j])
        token_logp = tuple(logps[e, j, :length].tolist())
        eos_lp = float(eos_logp[e, j])
        out.append(PredictionRecord(
            id=example_ids[e],
            hypothesis=tuple(tokens[e, j, :length].tolist()),
            token_logp=token_logp,
            eos_logp=eos_lp,
            uncertainty=uncertainty_score(token_logp, eos_lp),
        ))
    return tuple(out)


def beam_decode(
    members,
    input_tokens,
    config: PosteriorConfig,
    *,
    run_seed: int,
    example_id: str,
) -> PredictionRecord:
    """Beam search over posterior-mean distributions for one example.

    eos is never a candidate at the first step, so every hypothesis emits
    at least one token; hypotheses reaching max_len are closed with the
    eos score of their final state.
    """
    return _search(members, [tuple(input_tokens)], [example_id], config, run_seed)[0]


def decode_corpus(members, examples, config: PosteriorConfig,
                  run_seed: int) -> tuple[PredictionRecord, ...]:
    """Decode every example in one batched search, in example order."""
    examples = list(examples)
    return _search(members, [tuple(ex.input) for ex in examples],
                   [ex.id for ex in examples], config, run_seed)


# ---------------------------------------------------------------------------
# Prediction files: one compact JSON object per line.

def write_predictions(records, path) -> None:
    write_jsonl(path, records)


def read_predictions(path) -> tuple[PredictionRecord, ...]:
    return tuple(read_jsonl(path, PredictionRecord))


def join_with_references(predictions, examples) -> tuple[JoinedRecord, ...]:
    """Match predictions to reference examples by id and score quality.

    The two sets must match exactly; a prediction without a reference or a
    reference without a prediction is an error, not a silent drop.
    """
    by_id = {}
    for ex in examples:
        if ex.id in by_id:
            raise ValidationError(f"duplicate reference id {ex.id!r}")
        by_id[ex.id] = ex
    out = []
    seen = set()
    for rec in predictions:
        if rec.id not in by_id:
            raise ValidationError(f"prediction {rec.id!r} has no reference example")
        if rec.id in seen:
            raise ValidationError(f"duplicate prediction id {rec.id!r}")
        seen.add(rec.id)
        ex = by_id[rec.id]
        out.append(
            JoinedRecord(
                **vars(rec),
                reference=tuple(ex.reference),
                quality=score_quality(rec.hypothesis, ex.reference),
            )
        )
    if len(seen) != len(by_id):
        unmatched = sorted(set(by_id) - seen)
        raise ValidationError(
            f"{len(unmatched)} reference examples have no prediction, first {unmatched[0]!r}"
        )
    return tuple(out)
