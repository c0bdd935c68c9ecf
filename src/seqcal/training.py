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
A step updates, and then checks for finiteness, the arrays one
`model.trainable` call lists, each by the gradient of the same key.
Models with a gaussian-process head get their hidden weights spectrally
normalized after every update, and their feature precision I + sum phi phi^T
is accumulated exactly in a single pass over every training row after the
last step, with dropout off and the final weights, so the Laplace
covariance describes the model actually used at inference time.

Who trains what, and in which process: in the train stage, the stage
process trains the single-model methods (base, mcd, be, sngp, sngp_mcd)
itself.  Meanwhile forked worker processes (`EnsembleWorkers`), one per
CPU the stage may use, train the deep-ensemble members (de, sngp_de), and
`train_method` hands back the members the workers trained.  Every member,
in whichever process, is one `train_member` call, a pure function of its
seed, so the bundles hold the same bits as when one process trains them
all.

A bundle is one `BundleFile` of `model.Member` records, written with
`schema.to_json` and read with `schema.from_json`.  It stores the stamp
of the run that trained it, and `read_bundle` refuses it in any run with
another stamp; each member's arrays must have the shapes of a fresh
`init_model` of the stored method and dims.  Floats survive a round trip
exactly: the writer emits shortest-repr values, the reader float64.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
from dataclasses import dataclass, fields, is_dataclass
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
    Member,
    MethodConfig,
    ModelDims,
    RowStructure,
    TrainedModel,
    _cross_entropy,
    _forward_rows,
    _loss_and_grads,
    build_rows,
    check_members,
    dropout_active,
    factor_precision,
    finalize_covariance,
    init_model,
    is_deep_ensemble,
    spectral_normalize,
    trainable,
    update_precision,
    uses_gp,
)
from .rng import derive_seed, stream
from .schema import from_json, parse_json, to_json, write_text

BUNDLE_FORMAT_VERSION = 3

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


def _params_finite(arrays: dict) -> bool:
    """Whether every array of `arrays` (`trainable`) is finite.  A finite
    sum of the arrays' sums proves it with one reduction per array; a
    non-finite one, which overflow alone can also give, falls back to
    checking every element."""
    if math.isfinite(sum(float(a.sum()) for a in arrays.values())):
        return True
    return all(np.all(np.isfinite(a)) for a in arrays.values())


def _apply_update(arrays: dict, grads: dict, lr: float) -> None:
    """One SGD step, in place, on each array of `arrays` (`trainable`)."""
    for path, array in arrays.items():
        array -= lr * grads[path]


def _finalize_precision(model: TrainedModel, structure, batch_size: int) -> None:
    """One deterministic pass over the training rows, batch by batch so
    memory stays flat, adding every row's features to the identity prior;
    then mark the precision usable."""
    state = model.sngp
    for rows in _row_chunks(len(structure.targets), batch_size):
        phi = _forward_rows(model, structure, rows, be_member=None, dropout_seed=None)["phi"]
        state = update_precision(state, phi)
    model.sngp = finalize_covariance(state)


def train_member(
    structure: RowStructure,
    dims: ModelDims,
    config: MethodConfig,
    hyper: TrainHyper,
    seed: int,
    on_step=None,
) -> TrainedModel:
    """Train one model from a fresh seeded initialization on the rows of
    the training split (`split_rows`).

    on_step, when given, is called as on_step(step, loss, model) after
    each update, with the loss measured on the step's batch before the
    update was applied.
    """
    model = init_model(dims, config, seed)
    gp = uses_gp(config.method)
    if gp:
        model.w_h = spectral_normalize(model.w_h, config.sngp.spec_norm_bound)
    order = stream(seed, "train", "order")
    history = []
    spans = np.asarray(structure.row_spans)
    n = len(spans)
    batch = min(hyper.batch_size, n)
    for step in range(hyper.steps):
        example_idx = order.choice(n, size=batch, replace=False)
        rows = _batch_rows(spans, example_idx)
        dropout_seed = None
        if dropout_active(config):
            dropout_seed = derive_seed(seed, "train-dropout", step)
        be_member = step % config.be_size if config.method == "be" else None
        loss, grads = _loss_and_grads(
            model, structure, rows, be_member=be_member, dropout_seed=dropout_seed
        )
        if not math.isfinite(loss) or loss > LOSS_DIVERGENCE_LIMIT:
            raise TrainingError(f"loss diverged ({loss})", step=step)
        arrays = trainable(model)
        _apply_update(arrays, grads, hyper.learning_rate)
        if not _params_finite(arrays):
            raise TrainingError("parameters became non-finite", step=step)
        if gp:
            model.w_h = spectral_normalize(model.w_h, config.sngp.spec_norm_bound)
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
    on_step=None,
    workers: EnsembleWorkers | None = None,
) -> tuple[TrainedModel, ...]:
    """All members for one method: the configured seeds for a deep
    ensemble, otherwise a single model trained from `seed`.  A deep
    ensemble comes from `workers` when given, which trained it on the same
    rows, dims and hyperparameters (`on_step` is then not called)."""
    if workers is not None and is_deep_ensemble(config.method):
        return workers.members(config)
    return tuple(
        train_member(structure, dims, config, hyper, s, on_step)
        for s in config.member_seeds(seed)
    )


class EnsembleWorkers:
    """The members of the deep ensembles in `configs`, trained in forked
    worker processes while the caller trains the other methods.

    One worker is forked per CPU this process may use, but no more than
    there are members.  The workers deal out one job list round-robin: every
    member, the GP ensemble's (the slowest) first.  A worker trains each of
    its members through `train_member`, sends the pickled list of them down
    its pipe (a member whose training raised is sent as the exception) and
    leaves through `os._exit`.  The first `members` call reads every
    worker's list and reaps the worker.  A worker that exits without a
    complete list is a TrainingError that names its members.  `close`
    (also on leaving a `with` block) kills and reaps every worker still
    unread, so none outlives the stage, whether it succeeds or fails.
    """

    def __init__(self, structure: RowStructure, dims: ModelDims, configs,
                 hyper: TrainHyper):
        jobs = [(config, i, seed)
                for config in sorted(configs, key=lambda c: not uses_gp(c.method))
                for i, seed in enumerate(config.seeds)]
        n_workers = min(len(os.sched_getaffinity(0)), len(jobs))
        self._running = []  # (pid, read end of its pipe, its jobs), unread
        self._results = None  # {(method, member index): member or exception}
        try:
            for k in range(n_workers):
                self._running.append(_fork_worker(structure, dims, hyper, jobs[k::n_workers]))
        except BaseException:
            self.close()
            raise

    def members(self, config: MethodConfig) -> tuple[TrainedModel, ...]:
        """The members of `config`'s ensemble in seed order, or the
        exception of the first one whose training raised."""
        if self._results is None:
            results = {}
            while self._running:
                pid, pipe, jobs = self._running[0]
                payload = pipe.read()
                pipe.close()
                status = os.waitpid(pid, 0)[1]
                del self._running[0]
                results.update(_worker_results(payload, status, jobs))
            self._results = results
        members = tuple(self._results[config.method, i] for i in range(config.n_members))
        for member in members:
            if isinstance(member, BaseException):
                raise member
        return members

    def close(self) -> None:
        while self._running:
            pid, pipe, _ = self._running.pop()
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def _fork_worker(structure, dims, hyper, jobs):
    """Fork a worker that trains the (config, member index, seed) `jobs`
    and sends the pickled list of their members; (pid, pipe, jobs).  The
    stage runs no threads of its own, and OpenBLAS stops its thread pool
    around a fork itself (pthread_atfork), so the child starts sound."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            results = []
            for config, _, seed in jobs:
                try:
                    results.append(train_member(structure, dims, config, hyper, seed))
                except Exception as exc:
                    results.append(exc)
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(pickle.dumps(results, pickle.HIGHEST_PROTOCOL))
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, os.fdopen(read_end, "rb"), jobs


def _worker_results(payload: bytes, status: int, jobs) -> dict:
    """{(method, member index): member or exception} from a reaped worker's
    payload; a TrainingError, naming how the worker ended, unless the
    payload holds one result per job."""
    try:
        results = pickle.loads(payload)
    except Exception:
        results = None
    if isinstance(results, list) and len(results) == len(jobs):
        return {(config.method, i): r for (config, i, _), r in zip(jobs, results)}
    code = os.waitstatus_to_exitcode(status)
    how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
    held = {}
    for config, _, seed in jobs:
        held.setdefault(config.method, []).append(str(seed))
    names = "; ".join(f"{method} member seeds {', '.join(seeds)}"
                      for method, seeds in held.items())
    raise TrainingError(f"the worker training {names} {how} before sending its members")


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
        total += _cross_entropy(logits, structure.targets[rows])[0] * len(rows)
    return total / n_rows


# ---------------------------------------------------------------------------
# Bundle serialization.


@dataclass(frozen=True)
class BundleFile:
    """A whole bundle as stored; `members` comes last, as the streamed
    writer needs.  `run_sha256` is the stamp of the run directory whose
    config, vocabulary and train split trained the members."""

    format_version: int
    method: MethodConfig
    dims: ModelDims
    run_sha256: str
    members: tuple[Member, ...]


def _member_file(model: TrainedModel) -> Member:
    """The `Member` fields of `model`, the part its bundle stores per member."""
    return Member(**{f.name: getattr(model, f.name) for f in fields(Member)})


def write_bundle(members, path, run_sha256: str) -> None:
    members = check_members(members, "bundle")
    first = members[0]
    head = BundleFile(format_version=BUNDLE_FORMAT_VERSION, method=first.config,
                      dims=first.dims, run_sha256=run_sha256, members=())
    write_text(path, _bundle_chunks(head, members))


def _bundle_chunks(head: BundleFile, members):
    """The bytes of json.dump(to_json(bundle)), but encoded by json.dumps
    (the C encoder; json.dump streams through the pure-python one) one
    member at a time, so only one member's lists exist at once.  The
    head's empty member list loses its closing "]}"."""
    yield json.dumps(to_json(head), separators=(",", ":"))[:-2]
    for i, member in enumerate(members):
        if i:
            yield ","
        yield json.dumps(to_json(_member_file(member)), separators=(",", ":"))
    yield "]}\n"


def _layout(obj, where: str) -> dict:
    """{field path: what it holds} for the arrays and heads of a member
    file; a head's own arrays follow its entry."""
    out = {}
    for name in (f.name for f in fields(obj) if f.init):
        value, at = getattr(obj, name), f"{where}.{name}"
        if value is None:
            out[at] = "null"
        elif isinstance(value, np.ndarray):
            out[at] = f"an array of shape {value.shape}"
        elif is_dataclass(value):
            out[at] = "an object"
            out.update(_layout(value, at))
    return out


def _check_member(member: Member, fresh: Member, where: str) -> None:
    """Refuse a member whose arrays and heads differ from those of `fresh`,
    a new model of the bundle's method and dims, or whose gaussian-process
    precision was never finalized, is not exactly symmetric or has no
    Cholesky factor; the factor is cached for inference."""
    got = _layout(member, where)
    for at, expected in _layout(fresh, where).items():
        if got[at] != expected:  # a head's entry comes before its arrays
            raise ValidationError(f"{at} is {got[at]}, expected {expected}")
    state = member.sngp
    if state is None:
        return
    if not state.covariance_valid:
        raise ValidationError(f"{where}.sngp precision was never finalized")
    if not np.array_equal(state.precision, state.precision.T):
        raise ValidationError(f"{where}.sngp.precision is not symmetric")
    try:
        factor_precision(state)
    except NumericalStateError as exc:
        raise ValidationError(f"{where}.sngp {exc}") from exc


def read_bundle(path, run_sha256: str) -> tuple[TrainedModel, ...]:
    """The members of the bundle at `path`, refused unless the run stamp it
    stores is `run_sha256`; every refusal is a ValidationError that names
    the file and the field path."""
    try:
        payload = parse_json(Path(path).read_bytes(), "bundle")
        # Older formats hold keys this one refuses, so the version comes first.
        if isinstance(payload, dict) and payload.get("format_version") != BUNDLE_FORMAT_VERSION:
            raise ValidationError(f"bundle has format_version {payload.get('format_version')!r}"
                                  f", expected {BUNDLE_FORMAT_VERSION}")
        bundle = from_json(BundleFile, payload, "bundle")
        if bundle.run_sha256 != run_sha256:
            raise ValidationError(f"bundle was trained in another run: its run_sha256 is "
                                  f"{bundle.run_sha256[:12]!r}, this run's {run_sha256[:12]!r}")
        fresh = _member_file(init_model(bundle.dims, bundle.method, 0))
        members = []
        for i, m in enumerate(bundle.members):
            _check_member(m, fresh, f"bundle.members[{i}]")
            members.append(TrainedModel(**vars(m), dims=bundle.dims, config=bundle.method))
        return check_members(members, "bundle")
    except (ConfigurationError, InputError, ValidationError) as exc:  # InputError: no members
        raise ValidationError(f"{path}: {exc}") from exc

