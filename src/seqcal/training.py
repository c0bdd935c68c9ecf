"""SGD training loop for every method, plus model bundle serialization.

The teacher-forced rows of a split are built once (`split_rows`) and
shared: every member of every method trains on the same train rows, and
`evaluate_loss` reads them too.  A step picks its batch's rows by index
from the per-example spans.  The passes over a whole split,
`evaluate_loss` and the precision pass, walk it in consecutive row chunks
(`_row_chunks`), so besides the rows themselves nothing they hold is sized
by the split.

One `train_method` call produces every member the method needs: several
independently seeded models for the deep ensembles, one shared model for
everything else.  Batch-ensemble members take turns, one member per step.
Models with a gaussian-process head get their hidden weights spectrally
normalized after every update, and their feature precision I + sum phi phi^T
is accumulated exactly in a single pass over every training row after the
last step, with dropout off and the final weights, so the Laplace
covariance describes the model actually used at inference time.

Bundles are plain JSON: floats survive a round trip exactly because the
writer emits shortest-repr values and the reader restores float64.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError,
    InputError,
    NumericalStateError,
    TrainingError,
    ValidationError,
)
from .model import (
    BatchEnsembleState,
    Gradients,
    MethodConfig,
    ModelDims,
    ModelParams,
    RowStructure,
    SngpState,
    TrainedModel,
    _forward_rows,
    _loss_and_grads,
    _rows_loss,
    build_rows,
    check_members,
    factor_precision,
    finalize_covariance,
    init_model,
    spectral_normalize,
    update_precision,
    uses_dropout,
    uses_gp,
)
from .rng import derive_seed, stream
from .schema import from_json, parse_json

BUNDLE_FORMAT_VERSION = 2

# Cross-entropy this far above any legitimate value means the run has
# diverged even when saturation keeps every float finite.
LOSS_DIVERGENCE_LIMIT = 1e6

# Rows per forward pass of `evaluate_loss`: its temporaries scale with this
# times max(vocab, rff_dim), whatever the size of the split.
LOSS_CHUNK_ROWS = 512


@dataclass(frozen=True)
class TrainHyper:
    steps: int = 300
    batch_size: int = 32
    learning_rate: float = 0.5

    def __post_init__(self):
        if self.steps < 0:
            raise ConfigurationError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ConfigurationError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )


def split_rows(examples, dims: ModelDims) -> RowStructure:
    """The teacher-forced rows of one split, built once and shared by every
    member trained on it and by `evaluate_loss`."""
    examples = list(examples)
    if not examples:
        raise InputError("a split needs at least one example")
    return build_rows(examples, dims)


def _batch_rows(spans: np.ndarray, example_idx) -> np.ndarray:
    """The rows of the chosen examples, each example's span in order.
    `spans` holds the row_spans as an (examples, 2) array."""
    starts = spans[example_idx, 0]
    lengths = spans[example_idx, 1] - starts
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1])


def _row_chunks(n_rows: int, size: int):
    """Consecutive row index arrays of `size` rows, the last one ragged."""
    for start in range(0, n_rows, size):
        yield np.arange(start, min(start + size, n_rows))


def _params_finite(model: TrainedModel) -> bool:
    """Whether every trained array is finite.  A finite sum of the arrays'
    sums proves it with one reduction per array; a non-finite one, which
    overflow alone can also give, falls back to checking every element."""
    arrays = [model.params.embed, model.params.w_h, model.params.b_h]
    if model.params.w_o is not None:
        arrays += [model.params.w_o, model.params.b_o]
    if model.sngp_state is not None:
        arrays.append(model.sngp_state.beta)
    if model.be_state is not None:
        arrays += [model.be_state.r, model.be_state.s]
    if math.isfinite(sum(float(a.sum()) for a in arrays)):
        return True
    return all(np.all(np.isfinite(a)) for a in arrays)


def _apply_update(model: TrainedModel, grads: Gradients, lr: float) -> None:
    params = model.params
    params.embed -= lr * grads.embed
    params.w_h -= lr * grads.w_h
    params.b_h -= lr * grads.b_h
    if grads.w_o is not None:
        params.w_o -= lr * grads.w_o
        params.b_o -= lr * grads.b_o
    if grads.beta is not None:
        model.sngp_state.beta -= lr * grads.beta
    if grads.be_r is not None:
        model.be_state.r -= lr * grads.be_r
        model.be_state.s -= lr * grads.be_s


def _finalize_precision(model: TrainedModel, structure, batch_size: int) -> None:
    """One deterministic pass over the training rows, batch by batch so
    memory stays flat, adding every row's features to the identity prior;
    then mark the precision usable."""
    state = model.sngp_state
    for rows in _row_chunks(len(structure.targets), batch_size):
        phi = _forward_rows(model, structure, rows, be_member=None, dropout_seed=None)["phi"]
        state = update_precision(state, phi)
    model.sngp_state = finalize_covariance(state)


def train_member(
    structure: RowStructure,
    dims: ModelDims,
    config: MethodConfig,
    hyper: TrainHyper,
    seed: int,
    vocab_sha256: str = "",
    on_step=None,
) -> TrainedModel:
    """Train one model from a fresh seeded initialization on the rows of
    the training split (`split_rows`).

    on_step, when given, is called as on_step(step, loss, model) after
    each update, with the loss measured on the step's batch before the
    update was applied.
    """
    model = init_model(dims, config, seed)
    model.vocab_sha256 = vocab_sha256
    gp = uses_gp(config.method)
    if gp:
        model.params.w_h = spectral_normalize(model.params.w_h, config.sngp.spec_norm_bound)
    order = stream(seed, "train", "order")
    history = []
    spans = np.asarray(structure.row_spans)
    n = len(spans)
    batch = min(hyper.batch_size, n)
    for step in range(hyper.steps):
        example_idx = order.choice(n, size=batch, replace=False)
        rows = _batch_rows(spans, example_idx)
        dropout_seed = None
        if uses_dropout(config.method) and config.dropout_rate > 0.0:
            dropout_seed = derive_seed(seed, "train-dropout", step)
        be_member = step % config.be_size if config.method == "be" else None
        loss, grads = _loss_and_grads(
            model, structure, rows, be_member=be_member, dropout_seed=dropout_seed
        )
        if not math.isfinite(loss) or loss > LOSS_DIVERGENCE_LIMIT:
            raise TrainingError(f"loss diverged ({loss})", step=step)
        _apply_update(model, grads, hyper.learning_rate)
        if not _params_finite(model):
            raise TrainingError("parameters became non-finite", step=step)
        if gp:
            model.params.w_h = spectral_normalize(model.params.w_h, config.sngp.spec_norm_bound)
        history.append(loss)
        if on_step is not None:
            on_step(step, loss, model)
    if gp:
        _finalize_precision(model, structure, hyper.batch_size)
    model.loss_history = tuple(history)
    return model


def train_method(
    structure: RowStructure,
    dims: ModelDims,
    config: MethodConfig,
    hyper: TrainHyper,
    seed: int,
    vocab_sha256: str = "",
    on_step=None,
) -> tuple[TrainedModel, ...]:
    """All members for one method: the configured seeds for a deep
    ensemble, otherwise a single model trained from `seed`."""
    return tuple(
        train_member(structure, dims, config, hyper, s, vocab_sha256, on_step)
        for s in config.member_seeds(seed)
    )


def evaluate_loss(model: TrainedModel, structure: RowStructure) -> float:
    """Mean next-token cross-entropy over every row of a split
    (`split_rows`), with dropout off (first batch-ensemble member for that
    method): the row-weighted mean of the losses of `LOSS_CHUNK_ROWS`-row
    chunks, so no temporary is sized by the split."""
    n_rows = len(structure.targets)
    total = 0.0
    for rows in _row_chunks(n_rows, LOSS_CHUNK_ROWS):
        logits = _forward_rows(model, structure, rows, be_member=None,
                               dropout_seed=None)["logits"]
        total += _rows_loss(logits, structure.targets[rows]) * len(rows)
    return total / n_rows


# ---------------------------------------------------------------------------
# Bundle serialization.


def _float_array(value, shape, what):
    """`value` as a float64 array, refused unless it is a regular array of
    finite JSON numbers with the given shape (any length when `shape` is
    None): a string, object or ragged list is a ValidationError."""
    try:
        arr = np.asarray(value)
    except ValueError:
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise ValidationError(f"{what} must be an array of numbers")
    if arr.shape != shape and not (shape is None and arr.ndim == 1):
        raise ValidationError(f"{what} has shape {arr.shape}, expected {shape}")
    arr = arr.astype(float, copy=False)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} contains non-finite values")
    return arr


def _array_field(payload, key, shape, where):
    if key not in payload:
        raise ValidationError(f"{where} is missing array {key!r}")
    return _float_array(payload[key], shape, f"{where} array {key!r}")


def _member_payload(model: TrainedModel) -> dict:
    params = model.params
    out = {
        "seed": model.seed,
        "loss_history": list(model.loss_history),
        "embed": params.embed.tolist(),
        "w_h": params.w_h.tolist(),
        "b_h": params.b_h.tolist(),
        "w_o": None if params.w_o is None else params.w_o.tolist(),
        "b_o": None if params.b_o is None else params.b_o.tolist(),
        "be": None,
        "sngp": None,
    }
    if model.be_state is not None:
        out["be"] = {"r": model.be_state.r.tolist(), "s": model.be_state.s.tolist()}
    if model.sngp_state is not None:
        st = model.sngp_state
        out["sngp"] = {
            "w_r": st.w_r.tolist(),
            "b_r": st.b_r.tolist(),
            "beta": st.beta.tolist(),
            "precision": st.precision.tolist(),
            "covariance_valid": st.covariance_valid,
        }
    return out


def write_bundle(members, path) -> None:
    members = tuple(members)
    if len({m.vocab_sha256 for m in members}) > 1:
        raise ValidationError("bundle members disagree on vocabulary hash")
    first = check_members(members, "bundle")[0]
    head = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "method": asdict(first.config),
        "dims": asdict(first.dims),
        "vocab_sha256": first.vocab_sha256,
    }
    # The bytes of json.dump({**head, "members": [...]}), but encoded by
    # json.dumps, which uses the C encoder where json.dump streams through
    # the pure-python one, one member at a time so that only one member's
    # lists exist at once.
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(head, separators=(",", ":"))[:-1] + ',"members":[')
        for i, member in enumerate(members):
            if i:
                fh.write(",")
            fh.write(json.dumps(_member_payload(member), separators=(",", ":")))
        fh.write("]}\n")


def _load_sngp_state(sp, big_d: int, dims: ModelDims, where) -> SngpState:
    """The gaussian-process state of a bundle member, refused unless its
    precision was finalized and is symmetric positive definite.  The
    Cholesky factor this check computes is the one inference uses."""
    if not isinstance(sp, dict):
        raise ValidationError(f"{where} gaussian-process state must be an object")
    if sp.get("covariance_valid") is not True:
        raise ValidationError(f"{where} gaussian-process precision was never finalized")
    state = SngpState(
        w_r=_array_field(sp, "w_r", (big_d, dims.hidden_dim), where),
        b_r=_array_field(sp, "b_r", (big_d,), where),
        beta=_array_field(sp, "beta", (dims.vocab_size, big_d), where),
        precision=_array_field(sp, "precision", (big_d, big_d), where),
        covariance_valid=True,
    )
    if not np.array_equal(state.precision, state.precision.T):
        raise ValidationError(f"{where} gaussian-process precision is not symmetric")
    try:
        factor_precision(state)
    except NumericalStateError as exc:
        raise ValidationError(f"{where} gaussian-process {exc}") from exc
    return state


def _load_member(payload, dims: ModelDims, config: MethodConfig, vocab_sha256, where):
    if not isinstance(payload, dict):
        raise ValidationError(f"{where} must be an object")
    seed = payload.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValidationError(f"{where} has a missing or non-integer seed")
    history = _float_array(payload.get("loss_history", []), None, f"{where} loss_history")
    d, dh, v = dims.embed_dim, dims.hidden_dim, dims.vocab_size
    params = ModelParams(
        embed=_array_field(payload, "embed", (v, d), where),
        w_h=_array_field(payload, "w_h", (dh, 2 * d), where),
        b_h=_array_field(payload, "b_h", (dh,), where),
    )
    be_state = None
    sngp_state = None
    if uses_gp(config.method):
        if payload.get("sngp") is None:
            raise ValidationError(f"{where} is missing its gaussian-process state")
        sngp_state = _load_sngp_state(payload["sngp"], config.sngp.rff_dim, dims, where)
    else:
        params.w_o = _array_field(payload, "w_o", (v, dh), where)
        params.b_o = _array_field(payload, "b_o", (v,), where)
    if config.method == "be":
        if payload.get("be") is None:
            raise ValidationError(f"{where} is missing its batch-ensemble state")
        bep = payload["be"]
        if not isinstance(bep, dict):
            raise ValidationError(f"{where} batch-ensemble state must be an object")
        be_state = BatchEnsembleState(
            r=_array_field(bep, "r", (config.be_size, dh), where),
            s=_array_field(bep, "s", (config.be_size, 2 * d), where),
        )
    return TrainedModel(
        dims=dims, config=config, params=params, be_state=be_state,
        sngp_state=sngp_state, seed=seed, vocab_sha256=vocab_sha256,
        loss_history=tuple(history.tolist()),
    )


def read_bundle(path) -> tuple[TrainedModel, ...]:
    try:
        payload = parse_json(Path(path).read_bytes(), f"bundle {path}")
    except ConfigurationError as exc:
        raise ValidationError(str(exc)) from exc
    if not isinstance(payload, dict):
        raise ValidationError(f"bundle {path} must be a JSON object")
    version = payload.get("format_version")
    if version != BUNDLE_FORMAT_VERSION:
        raise ValidationError(
            f"bundle {path} has format_version {version!r}, expected {BUNDLE_FORMAT_VERSION}"
        )
    for key in ("method", "dims", "vocab_sha256", "members"):
        if key not in payload:
            raise ValidationError(f"bundle {path} is missing {key!r}")
    try:
        config = from_json(MethodConfig, payload["method"], "method")
        dims = from_json(ModelDims, payload["dims"], "dims")
    except ConfigurationError as exc:
        raise ValidationError(f"bundle {path} has an invalid header: {exc}") from exc
    members_raw = payload["members"]
    if not isinstance(members_raw, list) or not members_raw:
        raise ValidationError(f"bundle {path} must contain at least one member")
    if len(members_raw) != config.n_members:
        raise ValidationError(f"bundle {path} has {len(members_raw)} members, "
                              f"method {config.method} expects {config.n_members}")
    vocab_sha = payload["vocab_sha256"]
    if not isinstance(vocab_sha, str):
        raise ValidationError(f"bundle {path} vocab_sha256 must be a string")
    return tuple(
        _load_member(raw, dims, config, vocab_sha, f"bundle {path} member {i}")
        for i, raw in enumerate(members_raw)
    )


def check_vocab_match(members, vocab_sha256: str) -> None:
    """Refuse to run models against a vocabulary they were not trained on."""
    for m in members:
        if m.vocab_sha256 and vocab_sha256 and m.vocab_sha256 != vocab_sha256:
            raise ValidationError(
                "model was trained against a different vocabulary "
                f"({m.vocab_sha256[:12]}... vs {vocab_sha256[:12]}...)"
            )
