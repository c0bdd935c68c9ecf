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

Who trains what, and in which process: every member is one
`train_member` call, a pure function of its seed, and is one job of a
`JobPool`, the one fork routine of the train and infer stages.  The train
stage builds one `member_pool` of every member of every requested method,
the GP members first; one warm forked child per CPU trains member after
member (at one CPU, the stage process trains them all), and
`train_method` takes each method's members from the pool in method order.
So the bundles hold the same bits as when one process trains them all.

A bundle is one `BundleFile` of `model.Member` records, written with
`schema.to_json` and read with `schema.from_json`.  It stores the stamp
of the run that trained it, and `read_bundle` refuses it in any run with
another stamp; each member's arrays must have the shapes of a fresh
`init_model` of the stored method and dims.  Each array is stored as its
shape and the base64 of its raw float64 bytes (see `schema`), so floats
survive a round trip bit for bit and no weight becomes a Python float on
either side.  Format 5 introduced that encoding; a bundle of an earlier
format is refused by its version.
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
    spectral_normalize,
    trainable,
    update_precision,
    uses_gp,
)
from .rng import derive_seed, stream
from .schema import from_json, parse_json, to_json, write_text

BUNDLE_FORMAT_VERSION = 5

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
) -> TrainedModel:
    """Train one model from a fresh seeded initialization on the rows of
    the training split (`split_rows`).  Its `loss_history` holds each
    step's loss, measured on the step's batch before the update."""
    model = init_model(dims, config, seed)
    gp = uses_gp(config.method)
    if gp:
        model.w_h = spectral_normalize(model.w_h)
    order = stream(seed, "train", "order")
    history = []
    spans = np.asarray(structure.row_spans)
    n = len(spans)
    batch = min(hyper.batch_size, n)
    for step in range(hyper.steps):
        example_idx = order.choice(n, size=batch, replace=False)
        rows = _batch_rows(spans, example_idx)
        dropout_seed = None
        if dropout_active(config.method):
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
            model.w_h = spectral_normalize(model.w_h)
        history.append(loss)
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
    pool: JobPool | None = None,
) -> tuple[TrainedModel, ...]:
    """All members for one method: the configured seeds for a deep
    ensemble, otherwise a single model trained from `seed`.  They come
    from `pool`, a `member_pool` of the same rows, dims and
    hyperparameters that holds them, or else from a pool of their own."""
    if pool is None:
        with member_pool(structure, dims, hyper, [(config, seed)]) as own:
            return train_method(structure, dims, config, hyper, seed, own)
    return tuple(pool.take((config, s)) for s in config.member_seeds(seed))


def member_pool(structure: RowStructure, dims: ModelDims, hyper: TrainHyper,
                methods) -> JobPool:
    """A `JobPool` whose jobs are the members of the (config, seed)
    `methods`, one `train_member` call each, the GP methods' (the slowest)
    first; `train_method` takes a method's members from it."""
    jobs = [(config, s)
            for config, seed in sorted(methods, key=lambda m: not uses_gp(m[0].method))
            for s in config.member_seeds(seed)]
    return JobPool(lambda job: train_member(structure, dims, job[0], hyper, job[1]), jobs,
                   lambda job: f"{job[0].method} member seed {job[1]}")


class JobPool:
    """`run(job)` for every job in `jobs`, spread over the CPUs this process
    may use; `take(job)` hands back one job's result, or raises the
    exception the job raised.  Every job must be a pure function of its
    inputs, so the results do not depend on which process runs which job.

    The pool runs min(CPUs in the affinity mask, jobs) children and keeps
    each one for job after job, so a job pays for neither a fork nor the
    first touch of pages an earlier job faulted in.  A child reads one job
    index at a time from its command pipe and writes one frame per job to
    its result pipe, an 8-byte length and the pickled (ok, value); it
    leaves through `os._exit` at EOF.  Jobs start in list order, the next
    one going to a child as soon as `take` has read its frame.  A child
    that ends without a full frame leaves a TrainingError naming its job
    (`label(job)`) and how the child ended; while jobs are pending a fresh
    child replaces it, as it does a child found dead when handed a job.
    Each child closes the pipe ends it inherited from its siblings, so
    once this process is gone an idle child sees EOF and a busy one EPIPE.
    At one CPU, or with one job, nothing is forked: `take` runs the pending
    jobs in list order in this process.  `close` (also on leaving a `with`
    block) kills and reaps every child, busy or idle, so none outlives the
    stage, whether it succeeds or fails.  The stage runs no threads of its
    own, and OpenBLAS stops its thread pool around a fork itself
    (pthread_atfork), so a child starts sound.
    """

    def __init__(self, run, jobs, label):
        self._run, self._jobs, self._label = run, list(jobs), label
        self._index = {job: i for i, job in enumerate(self._jobs)}  # jobs not yet taken
        self._results = {}  # {job index: (True, result) or (False, exception)}
        self._children = {}  # {its result pipe: [pid, its command pipe, job index or None]}
        self._next = 0  # the first job neither run nor handed to a child
        width = min(len(os.sched_getaffinity(0)), len(self._jobs))
        self._width = width if width > 1 else 0  # children at most; 0: run jobs here
        # Freeing a 3 MB block raises glibc's mmap threshold to 3 MB and its
        # trim threshold to 6 MB, here and in every forked child, so a
        # training step's temporaries stay in the heap instead of being
        # unmapped and page-faulted again every step.  Other allocators
        # ignore it.
        np.empty(3 << 20, dtype=np.uint8)
        try:
            self._collect(0)
        except BaseException:
            self.close()
            raise

    def take(self, job):
        """`job`'s result, once this process or its child has it; drops it
        from the pool.  A job not in the pool, or already taken, is a
        KeyError."""
        i = self._index.pop(job)
        while i not in self._results:
            if self._width:
                self._collect(None)
            else:
                self._results[self._next] = self._call(self._next)
                self._next += 1
        self._collect(0)
        ok, value = self._results.pop(i)
        if not ok:
            raise value
        return value

    def close(self) -> None:
        for pipe, (pid, _, _) in list(self._children.items()):
            os.kill(pid, signal.SIGKILL)
            self._drop(pipe)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def _call(self, i):
        try:
            return True, self._run(self._jobs[i])
        except Exception as exc:
            return False, exc

    def _collect(self, timeout) -> None:
        """Read the frames that are ready within `timeout` seconds (None:
        until one is), handing each sender the next pending job, then fork
        children for pending jobs up to the pool's width."""
        if self._children:
            import select  # only a pool that forks needs it

            for pipe in select.select(list(self._children), [], [], timeout)[0]:
                self._receive(pipe)
        while len(self._children) < self._width and self._next < len(self._jobs):
            self._give(self._fork())

    def _fork(self):
        """A new idle child; its result pipe."""
        fds = os.pipe()  # commands: (read end, write end)
        try:
            fds += os.pipe()  # results
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        if pid == 0:
            code = 1
            try:
                for pipe, (_, commands, _) in self._children.items():
                    pipe.close()
                    os.close(commands)
                os.close(fds[1])
                os.close(fds[2])
                while head := os.read(fds[0], 4):
                    payload = pickle.dumps(self._call(int.from_bytes(head, "little")),
                                           pickle.HIGHEST_PROTOCOL)
                    for part in (len(payload).to_bytes(8, "little"), payload):
                        part = memoryview(part)
                        while part:
                            part = part[os.write(fds[3], part):]
                code = 0
            finally:
                os._exit(code)
        os.close(fds[0])
        os.close(fds[3])
        pipe = open(fds[2], "rb")
        self._children[pipe] = [pid, fds[1], None]
        return pipe

    def _give(self, pipe) -> None:
        """Hand the next pending job to the idle child of `pipe`; one that
        died idle is reaped instead, and the job stays pending."""
        child = self._children[pipe]
        try:
            os.write(child[1], self._next.to_bytes(4, "little"))
        except BrokenPipeError:
            self._drop(pipe)
            return
        child[2] = self._next
        self._next += 1

    def _receive(self, pipe) -> None:
        i, head = self._children[pipe][2], pipe.read(8)
        size = int.from_bytes(head, "little")
        if len(head) == 8 and len(payload := pipe.read(size)) == size:
            self._children[pipe][2] = None
            try:
                self._results[i] = pickle.loads(payload)
            except Exception as exc:  # a result this process cannot rebuild
                self._results[i] = (False, TrainingError(
                    f"the result of {self._label(self._jobs[i])} could not be read: {exc}"))
            if self._next < len(self._jobs):
                self._give(pipe)
            return
        code = self._drop(pipe)
        if i is not None:
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            self._results[i] = (False, TrainingError(
                f"the worker running {self._label(self._jobs[i])} {how} "
                "before sending its result"))

    def _drop(self, pipe) -> int:
        """Reap the child of `pipe`, ended or killed; its exit code."""
        pid, commands, _ = self._children.pop(pipe)
        pipe.close()
        os.close(commands)
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def evaluate_loss(model: TrainedModel, structure: RowStructure) -> float:
    """Mean next-token cross-entropy over every row of a split
    (`split_rows`), with dropout off (first batch-ensemble member for that
    method): the row-weighted mean of the losses of `LOSS_CHUNK_ROWS`-row
    chunks, so no temporary is sized by the split.  A chunk's logits die
    with its loss, before the next chunk's forward pass."""
    n_rows = len(structure.targets)
    total = 0.0
    for rows in _row_chunks(n_rows, LOSS_CHUNK_ROWS):
        logits = _forward_rows(model, structure, rows, be_member=None,
                               dropout_seed=None)["logits"]
        total += _cross_entropy(logits, structure.targets[rows])[0] * len(rows)
        del logits
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
    member at a time, so only one member's encoded arrays exist at once.
    The head's empty member list loses its closing "]}"."""
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

