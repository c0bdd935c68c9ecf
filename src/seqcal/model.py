"""Small conditional autoregressive model with pluggable probabilistic heads.

The architecture is deliberately tiny so the exact backward pass stays
hand-checkable:

    ctx    = sum of input-token embeddings                   (d,)
    state  = sum of the embeddings of bos and the emitted    (d,)
             prefix, so it counts the tokens emitted
    z      = [ctx; state]                                    (2d,)
    a      = W_h z + b_h                                     (d',)
    h      = dropout(tanh(a))                                (d',)
    logits = W_o h + b_o                                     (|V|,)

Heads modify this skeleton:

  batch ensemble   member k owns rank-1 fast weights (r_k, s_k) that
                   modulate the shared hidden weight elementwise,
                   a = r_k * (W_h (s_k * z)) + b_h
  gaussian process the output layer becomes random cosine features
                   phi(h) = sqrt(2/D) cos(W_r h + b_r) with trainable
                   weights beta, plus the Laplace precision I + sum phi phi^T
                   over the training rows, which supplies a predictive
                   variance for mean-field logit scaling at inference time
  dropout          inverted dropout on the hidden activation only, active
                   for the mc-dropout method variants

Token ids follow `corpus`'s layout (`BOS_ID` opens every prefix state,
`EOS_ID` closes every reference), so `ModelDims` holds only shapes.

A member's arrays are declared once, in `Member`, in the order its
bundle stores them; `TrainedModel` is a `Member` plus the cards its
bundle holds once.  `trainable` names the arrays SGD updates by field
path (`embed`, `sngp.beta`, `be.r`, ...), the keys of the gradients
`_loss_and_grads` returns.

All parameters are float64; the teacher-forced count rows of
`build_rows` are stored in the narrowest unsigned type that holds their
largest count and cast to float64 at each product.  `forward` is the one
implementation of this body.  It takes z rows of any leading shape and
returns raw logits plus the intermediates the backward pass needs; for
the gaussian-process head these include the cosine argument
u = h W_r^T + b_r, so the backward pass takes sin(u) without repeating
the product.  Two callers run it:

  _forward_rows                  teacher-forced rows: a training step's
                                 batch for the loss and its gradients, and
                                 through it training.evaluate_loss (one
                                 LOSS_CHUNK_ROWS chunk of a split at a time)
                                 and training._finalize_precision (the
                                 features phi, one batch_size chunk at a
                                 time)
  inference._member_pass         stacked (examples, live, 2d) decode rows

The training loss, `_cross_entropy`, works in place on the logits its
callers own, so a chunk of `training.evaluate_loss` holds one (rows,
vocab) float64 array at a time.  The posterior machinery in
inference.py applies mean-field scaling and the softmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import BOS_ID, EOS_ID, content_ids
from .errors import (
    ConfigurationError,
    InputError,
    NumericalStateError,
    ValidationError,
)
from .rng import stream

METHODS = ("base", "mcd", "be", "sngp", "sngp_mcd", "de", "sngp_de")

# The methods' fixed settings: the inverted-dropout rate of the
# mc-dropout variants and the bound on the top singular value of the
# gaussian-process methods' hidden weights.
DROPOUT_RATE = 0.1
SPEC_NORM_BOUND = 1.0


def dropout_active(method: str) -> bool:
    """Whether `method` draws dropout masks, in training and in decoding."""
    return method in ("mcd", "sngp_mcd")


def uses_gp(method: str) -> bool:
    return method in ("sngp", "sngp_mcd", "sngp_de")


def is_deep_ensemble(method: str) -> bool:
    return method in ("de", "sngp_de")


@dataclass(frozen=True)
class ModelDims:
    """Shape card for one model; its tokens follow `corpus`'s layout, so
    `vocab_size` must leave at least one of `corpus.content_ids`."""

    vocab_size: int
    embed_dim: int = 16
    hidden_dim: int = 32

    def __post_init__(self):
        content_ids(self.vocab_size)  # refuses a vocab_size with no content id
        if self.embed_dim < 1 or self.hidden_dim < 1:
            raise ConfigurationError("embed_dim and hidden_dim must be >= 1")


@dataclass(frozen=True)
class SngpConfig:
    rff_dim: int = 128
    mean_field_factor: float = 1e-4

    def __post_init__(self):
        if self.rff_dim < 1:
            raise ConfigurationError(f"rff_dim must be >= 1, got {self.rff_dim}")
        if self.mean_field_factor < 0.0:
            raise ConfigurationError(
                f"mean_field_factor must be nonnegative, got {self.mean_field_factor}"
            )


@dataclass(frozen=True)
class MethodConfig:
    """One probabilistic method plus its knobs.

    `samples` is the stochastic forward count for the mc-dropout variants;
    `seeds` lists one training seed per deep-ensemble member and must be
    empty for single-model methods.
    """

    method: str
    samples: int = 10
    be_size: int = 5
    sngp: SngpConfig = field(default_factory=SngpConfig)
    seeds: tuple[int, ...] = ()

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigurationError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.samples < 1:
            raise ConfigurationError(f"samples must be >= 1, got {self.samples}")
        if self.be_size < 1:
            raise ConfigurationError(f"be_size must be >= 1, got {self.be_size}")
        if is_deep_ensemble(self.method):
            if len(self.seeds) < 2:
                raise ConfigurationError(
                    f"{self.method} needs at least 2 member seeds, got {len(self.seeds)}"
                )
            if len(set(self.seeds)) != len(self.seeds):
                raise ConfigurationError("ensemble member seeds must be distinct")
        elif self.seeds:
            raise ConfigurationError(
                f"single-model method {self.method} takes no member seeds, got {len(self.seeds)}"
            )

    def member_seeds(self, seed: int) -> tuple[int, ...]:
        """The training seed of each member: one per configured seed for a
        deep ensemble, otherwise `seed` for the one shared model."""
        return self.seeds if is_deep_ensemble(self.method) else (seed,)

    @property
    def n_members(self) -> int:
        return len(self.member_seeds(0))

    @property
    def decode_units(self) -> tuple[tuple[int, int | None, int], ...]:
        """The stochastic units a decode step averages over, one member pass
        each (`inference.step_distributions`): (member model, dropout sample
        or None, BatchEnsemble member)."""
        if dropout_active(self.method):
            return tuple((0, m, 0) for m in range(self.samples))
        if self.method == "be":
            return tuple((0, None, k) for k in range(self.be_size))
        return tuple((i, None, 0) for i in range(self.n_members))


@dataclass
class BatchEnsembleState:
    """Rank-1 fast weights, one (r_k, s_k) pair per member."""

    r: np.ndarray  # (members, hidden_dim)
    s: np.ndarray  # (members, 2 * embed_dim)

    @property
    def size(self) -> int:
        return self.r.shape[0]


@dataclass
class SngpState:
    """Frozen random features, trainable output weights, Laplace precision."""

    w_r: np.ndarray  # (rff_dim, hidden_dim), frozen
    b_r: np.ndarray  # (rff_dim,), frozen
    beta: np.ndarray  # (vocab, rff_dim), trainable
    precision: np.ndarray  # (rff_dim, rff_dim)
    covariance_valid: bool = False
    # cached inverse of the lower Cholesky factor of precision; reset on
    # every update and never stored
    chol_inv: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(kw_only=True)
class Member:
    """One member's arrays, in the order its bundle stores them.  w_o/b_o
    are None when a gaussian-process head owns the output layer (its beta
    lives in `sngp`); each head is None unless the method has it."""

    seed: int
    loss_history: tuple[float, ...] = ()
    embed: np.ndarray
    w_h: np.ndarray
    b_h: np.ndarray
    w_o: np.ndarray | None
    b_o: np.ndarray | None
    be: BatchEnsembleState | None
    sngp: SngpState | None


@dataclass(kw_only=True)
class TrainedModel(Member):
    """A member with the cards its bundle stores once for all members."""

    dims: ModelDims
    config: MethodConfig


def trainable(model: Member) -> dict[str, np.ndarray]:
    """{field path: array} for every array SGD updates, the paths
    `read_bundle` names; the gradients of `_loss_and_grads` share the keys."""
    arrays = {"embed": model.embed, "w_h": model.w_h, "b_h": model.b_h}
    if model.sngp is None:
        arrays.update({"w_o": model.w_o, "b_o": model.b_o})
    else:
        arrays["sngp.beta"] = model.sngp.beta
    if model.be is not None:
        arrays.update({"be.r": model.be.r, "be.s": model.be.s})
    return arrays


def check_members(members, what: str) -> tuple[TrainedModel, ...]:
    """`members` as a tuple, refused unless they are one trained method:
    at least one, all of one method and dims, as many as it trains."""
    members = tuple(members)
    if not members:
        raise InputError(f"{what} needs at least one member")
    config, dims = members[0].config, members[0].dims
    if any(m.config != config or m.dims != dims for m in members):
        raise ValidationError(f"{what} members disagree on method or dimensions")
    if len(members) != config.n_members:
        raise ValidationError(
            f"method {config.method} expects {config.n_members} members, got {len(members)}"
        )
    return members


def init_model(dims: ModelDims, config: MethodConfig, seed: int) -> TrainedModel:
    """Seeded initialization: weights uniform(-0.1, 0.1), biases zero,
    batch-ensemble fast weights near one, random features standard normal
    with phases uniform over [0, 2pi)."""
    rs = stream(seed, "init")
    embed = rs.uniform(-0.1, 0.1, size=(dims.vocab_size, dims.embed_dim))
    w_h = rs.uniform(-0.1, 0.1, size=(dims.hidden_dim, 2 * dims.embed_dim))
    w_o = b_o = be = sngp = None
    if uses_gp(config.method):
        cfg = config.sngp
        beta = rs.uniform(-0.1, 0.1, size=(dims.vocab_size, cfg.rff_dim))
        feat = stream(seed, "rff")
        w_r = feat.standard_normal((cfg.rff_dim, dims.hidden_dim))
        b_r = feat.uniform(0.0, 2.0 * math.pi, size=cfg.rff_dim)
        sngp = SngpState(w_r=w_r, b_r=b_r, beta=beta, precision=np.eye(cfg.rff_dim))
    else:
        w_o = rs.uniform(-0.1, 0.1, size=(dims.vocab_size, dims.hidden_dim))
        b_o = np.zeros(dims.vocab_size)
    if config.method == "be":
        be = BatchEnsembleState(
            r=1.0 + rs.uniform(-0.1, 0.1, size=(config.be_size, dims.hidden_dim)),
            s=1.0 + rs.uniform(-0.1, 0.1, size=(config.be_size, 2 * dims.embed_dim)),
        )
    return TrainedModel(seed=seed, embed=embed, w_h=w_h, b_h=np.zeros(dims.hidden_dim),
                        w_o=w_o, b_o=b_o, be=be, sngp=sngp, dims=dims, config=config)


def _check_tokens(tokens, vocab_size: int, what: str) -> None:
    for t in tokens:
        if not 0 <= int(t) < vocab_size:
            raise InputError(f"{what} token id {t} outside 0..{vocab_size - 1}")


def sum_embeddings(embed: np.ndarray, tokens) -> np.ndarray:
    """Sum of the embeddings over the last axis of tokens (..., t): the
    context of an input, or the state of a bos-prefixed prefix.  The sum
    runs from zero in token order, so a row keeps its bits whatever is
    stacked with it."""
    tokens = np.asarray(tokens, dtype=int)
    total = np.zeros(tokens.shape[:-1] + embed.shape[1:])
    for j in range(tokens.shape[-1]):
        total += embed[tokens[..., j]]
    return total


def dropout_mask(seeds, shape) -> np.ndarray:
    """Dropout keep flags at DROPOUT_RATE, one boolean mask of `shape`
    per seed, so an array of seeds gives `np.shape(seeds) + shape`.

    The mask of a seed is the start of `stream(seed, "dropout-mask")`: a
    unit is kept where its draw of `.random(shape)` is >= DROPOUT_RATE.
    `forward` scales the kept units by 1/(1-DROPOUT_RATE).  A training
    step draws one (rows, hidden) mask; a decode draws one
    (steps, samples, hidden) mask per example, seed by seed, so only the
    flags of the whole array are held.
    """
    seeds = np.asarray(seeds, dtype=object)
    keep = np.empty(seeds.shape + tuple(np.atleast_1d(shape).tolist()), dtype=bool)
    for i, seed in np.ndenumerate(seeds):
        keep[i] = stream(seed, "dropout-mask").random(keep.shape[seeds.ndim:]) >= DROPOUT_RATE
    return keep


def gp_features(h: np.ndarray, state: SngpState):
    """The cosine argument u = h W_r^T + b_r and the random cosine features
    phi = sqrt(2/D) cos(u), on one activation vector or a stack of rows;
    the squared norm of each feature vector is at most 2 by construction."""
    u = h @ state.w_r.T + state.b_r
    phi = np.cos(u)
    phi *= math.sqrt(2.0 / state.w_r.shape[0])
    return u, phi


def forward(model: TrainedModel, z: np.ndarray, *, be_member: int | None = None,
            mask: np.ndarray | None = None) -> dict:
    """The model body on z rows of any leading shape (..., 2d).

    be_member picks the batch-ensemble member (default 0; ignored without
    fast weights) and mask, when given, holds `dropout_mask` keep flags
    that broadcast against the hidden activation: inverted dropout keeps
    a unit scaled by 1/(1-DROPOUT_RATE).  Returns the pre-activation "a",
    the tanh activation "h_raw", the masked activation "h", "logits", the
    gaussian-process features "phi" (None for the linear head) and the
    scaled mask "mask" (None without one).  For the backward pass, the
    gaussian-process head adds its cosine argument "u", and batch-ensemble
    passes add the member index "be_member", its fast weights "r_k"/"s_k",
    the scaled input "zs" and the pre-modulation product "pre".
    """
    out = {}
    if model.be is None:
        a = z @ model.w_h.T + model.b_h
    else:
        k = 0 if be_member is None else be_member
        if not 0 <= k < model.be.size:
            raise InputError(f"batch-ensemble member {k} outside 0..{model.be.size - 1}")
        r_k, s_k = model.be.r[k], model.be.s[k]
        zs = z * s_k
        pre = zs @ model.w_h.T
        a = pre * r_k + model.b_h
        out.update(be_member=k, r_k=r_k, s_k=s_k, zs=zs, pre=pre)
    h = h_raw = np.tanh(a)
    if mask is not None:
        mask = mask / (1.0 - DROPOUT_RATE)
        h = h_raw * mask
    if model.sngp is None:
        logits, phi = h @ model.w_o.T, None
        logits += model.b_o
    else:
        out["u"], phi = gp_features(h, model.sngp)
        logits = phi @ model.sngp.beta.T
    out.update(a=a, h_raw=h_raw, h=h, logits=logits, phi=phi, mask=mask)
    return out


def spectral_normalize(w: np.ndarray) -> np.ndarray:
    """Rescale `w` so its top singular value is at most SPEC_NORM_BOUND.

    The top singular value is the exact matrix 2-norm, read straight from
    LAPACK's descending singular values: the same bits `np.linalg.norm(w, 2)`
    returns, without its wrapper.  A matrix within the bound is returned
    unchanged; otherwise the whole matrix is scaled by bound / sigma, so
    columns keep their direction.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2:
        raise InputError(f"spectral_normalize expects a matrix, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise NumericalStateError("spectral_normalize got non-finite entries")
    sigma = float(np.linalg.svd(w, compute_uv=False)[0])
    if sigma <= SPEC_NORM_BOUND:
        return w.copy()
    return w * (SPEC_NORM_BOUND / sigma)


def update_precision(state: SngpState, phi_batch: np.ndarray) -> SngpState:
    """Add one batch of features to the precision matrix.

        precision <- precision + sum_b phi_b phi_b^T

    Starting from the identity prior of `init_model`, one pass over every
    training row gives the exact Laplace precision I + Phi^T Phi, which is
    symmetric with every eigenvalue at least 1.  The cached factor is
    dropped and covariance_valid reset, since the estimate is incomplete
    until finalized.
    """
    phi = np.atleast_2d(np.asarray(phi_batch, dtype=float))
    big_d = state.precision.shape[0]
    if phi.shape[1] != big_d:
        raise InputError(
            f"feature batch has dimension {phi.shape[1]}, precision expects {big_d}"
        )
    return replace(state, precision=state.precision + phi.T @ phi, covariance_valid=False)


def finalize_covariance(state: SngpState) -> SngpState:
    """Mark the precision estimate usable for predictive variances."""
    return replace(state, covariance_valid=True)


def factor_precision(state: SngpState) -> np.ndarray:
    """L^{-1} for the Cholesky factorization precision = L L^T.

    Computed once per state and cached on it; raises NumericalStateError
    when the precision is not positive definite.
    """
    if state.chol_inv is None:
        try:
            chol = np.linalg.cholesky(state.precision)
        except np.linalg.LinAlgError as exc:
            raise NumericalStateError(
                f"precision matrix is not positive definite: {exc}"
            ) from exc
        state.chol_inv = np.tril(np.linalg.inv(chol))
    return state.chol_inv


def predictive_variance(state: SngpState, phi_rows: np.ndarray) -> np.ndarray:
    """Per-row variance phi^T precision^{-1} phi over the last axis.

    With precision = L L^T the variance is |L^{-1} phi|^2, with the
    cached L^{-1} of `factor_precision`; the explicit inverse of the
    precision is never formed.  Rows may be stacked as
    (n, live, D): the product then runs once per leading index at the
    (live, D) shape, the shape a single-example call uses, so a row's
    variance does not depend on how many examples are stacked with it.
    """
    if not state.covariance_valid:
        raise NumericalStateError(
            "predictive variance requested before the precision was finalized"
        )
    solved = np.asarray(phi_rows, dtype=float) @ factor_precision(state).T
    return np.einsum("...d,...d->...", solved, solved)


def mean_field_logits(logits, variances, factor: float) -> np.ndarray:
    """Scale logits by 1/sqrt(1 + factor * variance).

    factor=0 returns the logits unchanged, since sqrt(1 + 0 * v) is exactly
    1 for finite v.  Variances broadcast against the logits, so a row's
    variance, shared across its classes, carries a trailing axis of length
    one; negative variances are a numerical-state error.  The factor is
    `SngpConfig.mean_field_factor`, which is never negative.
    """
    logits = np.asarray(logits, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if np.any(variances < 0.0):
        raise NumericalStateError(
            f"negative predictive variance {variances.min()} in mean-field scaling"
        )
    return logits / np.sqrt(1.0 + factor * variances)


# ---------------------------------------------------------------------------
# Teacher-forced rows and the hand-written backward pass.


@dataclass(frozen=True)
class RowStructure:
    """Count form of a batch of teacher-forced decode steps.

    ctx_weights @ embed gives the input context row and prefix_weights @
    embed the prefix state row, which keeps the loss an explicit linear
    chain in the embedding table for the backward pass.  The counts are
    small integers, held in the narrowest unsigned type that fits the
    split's largest one (uint8 on every committed workload), so they take
    an eighth of float64's memory; `_forward_rows` casts each gathered
    batch to float64, which gives every product the same operands, and so
    the same bits, as float64 counts.  row_spans maps each example to its
    slice of rows.
    """

    ctx_weights: np.ndarray  # (rows, vocab), unsigned counts
    prefix_weights: np.ndarray  # (rows, vocab), unsigned counts
    targets: np.ndarray  # (rows,)
    row_spans: tuple[tuple[int, int], ...]


def build_rows(examples, dims: ModelDims) -> RowStructure:
    """Rows for next-token prediction: one per reference position plus the
    closing eos step, written in place into (rows, vocab) arrays: the
    input's token counts, and in an example's prefix row t the counts of
    bos and the reference's first t tokens, a running sum down its rows.
    No count exceeds the input length or the reference length plus one,
    so the arrays take the narrowest unsigned type that holds the larger
    of the two over the split."""
    examples = list(examples)
    v = dims.vocab_size
    for ex in examples:
        _check_tokens(ex.input, v, "input")
        _check_tokens(ex.reference, v, "reference")
    n_rows = sum(len(ex.reference) + 1 for ex in examples)
    largest = max((max(len(ex.input), len(ex.reference) + 1) for ex in examples), default=0)
    count_type = np.min_scalar_type(largest)
    ctx_weights = np.zeros((n_rows, v), dtype=count_type)
    prefix_weights = np.zeros((n_rows, v), dtype=count_type)
    targets = np.empty(n_rows, dtype=int)
    spans = []
    start = 0
    for ex in examples:
        end = start + len(ex.reference) + 1
        np.add.at(ctx_weights, (start, list(ex.input)), 1)
        ctx_weights[start + 1:end] = ctx_weights[start]
        np.add.at(prefix_weights, (np.arange(start, end), (BOS_ID, *ex.reference)), 1)
        np.cumsum(prefix_weights[start:end], axis=0, dtype=count_type,
                  out=prefix_weights[start:end])
        targets[start:end] = (*ex.reference, EOS_ID)
        spans.append((start, end))
        start = end
    return RowStructure(ctx_weights, prefix_weights, targets, tuple(spans))


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _forward_rows(model: TrainedModel, structure: RowStructure, rows, *,
                  be_member: int | None, dropout_seed: int | None):
    """`forward` over selected teacher-forced rows, with the gathered count
    rows (still in their narrow type) and the z rows the backward pass
    needs added to its cache.  Each product casts its counts to float64
    explicitly, never through a mixed-type matmul, so its operands and its
    bits are those of float64 counts; only one cast is alive at a time."""
    ctx_w = structure.ctx_weights[rows]
    pre_w = structure.prefix_weights[rows]
    z = np.concatenate([ctx_w.astype(float) @ model.embed,
                        pre_w.astype(float) @ model.embed], axis=1)
    mask = None
    if dropout_seed is not None and dropout_active(model.config.method):
        mask = dropout_mask(dropout_seed, (len(z), model.dims.hidden_dim))
    cache = forward(model, z, be_member=be_member, mask=mask)
    cache.update(ctx_w=ctx_w, pre_w=pre_w, z=z)
    return cache


def _cross_entropy(logits: np.ndarray, targets: np.ndarray):
    """The rows' mean cross-entropy, with the exp of the max-shifted logits
    and its row sums, which the softmax of the backward pass reuses.

    Overwrites `logits`, which the caller must own: the max shift and the
    exp are taken in place, so the returned exp is `logits` itself and no
    (rows, vocab) temporary is made."""
    logits -= logits.max(axis=1, keepdims=True)
    # a copy, taken before the exp overwrites the shifted logits
    picked = logits[np.arange(len(targets)), targets]
    np.exp(logits, out=logits)
    sums = logits.sum(axis=1)
    return float(np.mean(np.log(sums) - picked)), logits, sums


def _loss_and_grads(model: TrainedModel, structure: RowStructure, rows, *,
                    be_member: int | None, dropout_seed: int | None):
    targets = structure.targets[rows]
    cache = _forward_rows(model, structure, rows, be_member=be_member,
                          dropout_seed=dropout_seed)
    n = len(targets)
    loss, dlogits, sums = _cross_entropy(cache["logits"], targets)
    dlogits /= sums[:, None]
    dlogits[np.arange(n), targets] -= 1.0
    dlogits /= n

    grads = {}
    if model.sngp is None:
        grads["w_o"] = dlogits.T @ cache["h"]
        grads["b_o"] = dlogits.sum(axis=0)
        dh = dlogits @ model.w_o
    else:
        state = model.sngp
        grads["sngp.beta"] = dlogits.T @ cache["phi"]
        dphi = dlogits @ state.beta
        big_d = state.w_r.shape[0]
        # phi = sqrt(2/D) cos(u) with u = h W_r^T + b_r, kept by forward
        du = dphi * (-math.sqrt(2.0 / big_d) * np.sin(cache["u"]))
        dh = du @ state.w_r

    if cache["mask"] is not None:
        dh = dh * cache["mask"]

    da = dh * (1.0 - cache["h_raw"] ** 2)

    grads["b_h"] = da.sum(axis=0)
    if model.be is None:
        grads["w_h"] = da.T @ cache["z"]
        dz = da @ model.w_h
    else:
        k = cache["be_member"]
        da_pre = da * cache["r_k"]
        grads["w_h"] = da_pre.T @ cache["zs"]
        dzs = da_pre @ model.w_h
        grads["be.r"] = np.zeros_like(model.be.r)
        grads["be.s"] = np.zeros_like(model.be.s)
        grads["be.r"][k] = (da * cache["pre"]).sum(axis=0)
        grads["be.s"][k] = (dzs * cache["z"]).sum(axis=0)
        dz = dzs * cache["s_k"]

    d = model.dims.embed_dim
    grads["embed"] = (cache["ctx_w"].astype(float).T @ dz[:, :d]
                      + cache["pre_w"].astype(float).T @ dz[:, d:])
    return loss, grads
