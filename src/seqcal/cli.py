"""Command-line pipeline: gen-data, train, infer, eval.

One JSON run-config drives all four stages against one output directory:

    seqcal gen-data --config run.json --out runs/demo
    seqcal train    --config run.json --out runs/demo --method mcd
    seqcal infer    --config run.json --out runs/demo --method mcd
    seqcal eval     --config run.json --out runs/demo

Layout under --out:

    manifest.json            resolved config echo plus derived values
    vocab.json               the vocabulary of the config's vocab_size
    train.jsonl dev.jsonl test.jsonl
    models/<method>.json     trained member bundle, stamped with the run
    preds/<method>.jsonl     decoded test predictions, the ones eval scores
    reports/*.csv            calibration, correlation, selection reports

Each file replaces its old version only once it is complete, so a stage
that fails leaves the previous file or none.  A run directory belongs to
the config gen-data wrote it for: a later stage refuses it unless
manifest.json records that config and vocab.json is
`corpus.make_vocabulary(vocab_size)`.

`train` and `infer` spread their independent jobs, every member of every
method in `train` and every method's decode in `infer`, over the CPUs the
stage may use with one `training.JobPool`, one warm forked child per CPU
running job after job; the stage process takes the results back in method
order and writes every file and prints every line itself, so the outputs
do not depend on the CPU count.

`evaluate` is the one routine from joined test records to every report;
`eval` feeds it one method's records at a time and writes what it gives.

Every stochastic choice derives from the single top-level seed, so a
rerun of any stage writes byte-identical files.  Model-intrinsic knobs
(sample count, ensemble sizes, the sngp block) travel inside the bundle;
the config's decode section only controls the search.

Exit codes: 0 on success, 1 for configuration or file-validation
problems, 2 for runtime numerical failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from .calib import (
    ALPHAS,
    ECE_BINS,
    QUALITY_KEYS,
    THRESHOLDS,
    _centred_ranks,
    abstention_curve,
    bootstrap_std,
    check_resamples,
    ece,
    roc_auc,
    sequence_pairs,
    token_pairs,
    write_csv,
)
from .corpus import (
    TaskSpec,
    check_corpus_size,
    generate_corpus,
    make_vocabulary,
    read_records,
    read_vocabulary,
    split_corpus,
    write_records,
    write_vocabulary,
)
from .errors import (
    ConfigurationError,
    InputError,
    MetricError,
    NumericalStateError,
    TrainingError,
    ValidationError,
)
from .inference import (
    PosteriorConfig,
    decode_corpus,
    join_with_references,
    read_predictions,
    write_predictions,
)
from .model import METHODS, MethodConfig, ModelDims, SngpConfig, is_deep_ensemble, uses_gp
from .rng import derive_seed
from .schema import from_json, parse_json, to_json, write_text
from .training import (
    JobPool,
    TrainHyper,
    evaluate_loss,
    member_pool,
    read_bundle,
    split_rows,
    train_method,
    write_bundle,
)


# ---------------------------------------------------------------------------
# Run configuration: a JSON file with strict keys and full defaults.  Each
# section is a frozen dataclass read by `schema.from_json`; a default owned
# by a model or decode type is taken from that type.  The task section is
# `corpus.TaskSpec` itself.


@dataclass(frozen=True)
class ModelSection:
    embed_dim: int = ModelDims.embed_dim
    hidden_dim: int = ModelDims.hidden_dim


# Ceilings on the config values that `load_config` builds one object per
# unit of (a symbol, a member seed), so an absurd value fails at once
# instead of stalling every stage.
MAX_VOCAB_SIZE = 100_000
MAX_DE_SIZE = 1_000

# Ceiling for seeds serialized into configs and file names.
MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class MethodsSection:
    samples: int = MethodConfig.samples
    be_size: int = MethodConfig.be_size
    de_size: int = 10
    sngp: SngpConfig = field(default_factory=SngpConfig)

    def __post_init__(self):
        if not 2 <= self.de_size <= MAX_DE_SIZE:
            raise ConfigurationError(
                f"methods.de_size must lie in [2, {MAX_DE_SIZE}], got {self.de_size}"
            )


@dataclass(frozen=True)
class DecodeSection:
    beam_size: int = PosteriorConfig.beam_size


@dataclass(frozen=True)
class EvalSection:
    """The bootstrap size of the rho standard deviation; the other report
    settings are calib's constants (ECE_BINS, THRESHOLDS, ALPHAS)."""

    bootstrap_resamples: int = 200

    def __post_init__(self):
        check_resamples(self.bootstrap_resamples)


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    vocab_size: int = 20
    n_examples: int = 2000
    task: TaskSpec = field(default_factory=TaskSpec)
    model: ModelSection = field(default_factory=ModelSection)
    train: TrainHyper = field(default_factory=TrainHyper)
    methods: MethodsSection = field(default_factory=MethodsSection)
    decode: DecodeSection = field(default_factory=DecodeSection)
    eval: EvalSection = field(default_factory=EvalSection)

    def __post_init__(self):
        if not 0 <= self.seed <= MAX_SEED:
            raise ConfigurationError(f"config.seed must lie in [0, {MAX_SEED}], got {self.seed}")
        if self.vocab_size > MAX_VOCAB_SIZE:
            raise ConfigurationError(
                f"config.vocab_size must be <= {MAX_VOCAB_SIZE}, got {self.vocab_size}"
            )
        check_corpus_size(self.n_examples, "config.n_examples")

    def dims(self) -> ModelDims:
        return ModelDims(vocab_size=self.vocab_size, embed_dim=self.model.embed_dim,
                         hidden_dim=self.model.hidden_dim)

    def method_config(self, method: str) -> MethodConfig:
        m = self.methods
        seeds = ()
        if is_deep_ensemble(method):
            seeds = tuple(
                derive_seed(self.seed, "train", method, i) for i in range(m.de_size)
            )
        return MethodConfig(
            method=method,
            samples=m.samples,
            be_size=m.be_size,
            sngp=m.sngp,
            seeds=seeds,
        )

    def posterior_config(self) -> PosteriorConfig:
        return PosteriorConfig(beam_size=self.decode.beam_size,
                               max_len=self.task.output_len)

    def task_seed(self) -> int:
        return derive_seed(self.seed, "task")

    def train_seed(self, method: str) -> int:
        return derive_seed(self.seed, "train", method)

    def run_seed(self, method: str) -> int:
        return derive_seed(self.seed, "infer", method)

    def bootstrap_seed(self, method: str, metric: str) -> int:
        return derive_seed(self.seed, "bootstrap", method, metric)


def load_config(path) -> RunConfig:
    payload = parse_json(Path(path).read_bytes(), f"config {path}")
    config = from_json(RunConfig, payload, "config")
    # The decode, methods and model sections are checked by the objects the
    # later stages build from them, and the keyword count needs vocab_size;
    # build those here so a bad value fails every stage, gen-data included,
    # instead of only the stage that first uses it.
    config.posterior_config()
    for method in METHODS:
        config.method_config(method)
    config.dims()
    config.task.keyword_ids(config.vocab_size)
    return config


# ---------------------------------------------------------------------------
# Output directory layout.


@dataclass(frozen=True)
class SplitSizes:
    train: int
    dev: int
    test: int


@dataclass(frozen=True)
class Derived:
    task_seed: int
    keyword_ids: tuple[int, ...]
    splits: SplitSizes


@dataclass(frozen=True)
class Manifest:
    """manifest.json: the config a run directory belongs to, and what
    gen-data derived from it."""

    config: RunConfig
    derived: Derived


class OutDir:
    def __init__(self, root):
        self.root = str(root)

    def path(self, *parts) -> str:
        return os.path.join(self.root, *parts)

    @property
    def vocab(self):
        return self.path("vocab.json")

    @property
    def manifest(self):
        return self.path("manifest.json")

    def split(self, name: str):
        return self.path(f"{name}.jsonl")

    def model_bundle(self, method: str):
        return self.path("models", f"{method}.json")

    def predictions(self, method: str):
        return self.path("preds", f"{method}.jsonl")

    def report(self, name: str):
        return self.path("reports", name)

    def ensure(self, *parts) -> None:
        os.makedirs(self.path(*parts) if parts else self.root, exist_ok=True)


def check_manifest(config: RunConfig, out: OutDir) -> bytes:
    """manifest.json's bytes, refused when they record another config."""
    blob = Path(out.manifest).read_bytes()
    try:
        manifest = from_json(Manifest, parse_json(blob, out.manifest), "manifest")
    except ConfigurationError as exc:
        raise ConfigurationError(f"{out.manifest}: {exc}") from exc
    differ = [f.name for f in fields(RunConfig)
              if getattr(manifest.config, f.name) != getattr(config, f.name)]
    if differ:
        raise ConfigurationError(
            f"{out.root} belongs to another config (it differs in {', '.join(differ)}); "
            "use that config or another --out"
        )
    return blob


def open_run(config: RunConfig, out: OutDir) -> str:
    """The run stamp of a run directory that belongs to `config`: the
    SHA-256 of manifest.json's bytes followed by train.jsonl's.  The
    manifest records the config, and vocab.json must be the vocabulary of
    its vocab_size, so the stamp names the config, the vocabulary and the
    train split; a bundle stores the stamp of the run that trained it."""
    stamp = hashlib.sha256(check_manifest(config, out))
    if read_vocabulary(out.vocab) != make_vocabulary(config.vocab_size):
        raise ValidationError(
            f"{out.vocab} is not the vocabulary of vocab_size {config.vocab_size}")
    stamp.update(Path(out.split("train")).read_bytes())
    return stamp.hexdigest()


def _resolve_methods(arg: str) -> list[str]:
    if arg == "all":
        return list(METHODS)
    out = []
    for name in arg.split(","):
        name = name.strip()
        if name not in METHODS:
            raise ConfigurationError(
                f"unknown method {name!r}; choose from {', '.join(METHODS)} or 'all'"
            )
        if name in out:
            raise ConfigurationError(f"method {name!r} is named more than once in {arg!r}")
        out.append(name)
    return out


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_gen_data(config: RunConfig, out: OutDir) -> None:
    if os.path.exists(out.manifest):
        check_manifest(config, out)
    records = generate_corpus(config.task, config.n_examples, config.vocab_size,
                              config.task_seed())
    train, dev, test = split_corpus(records, seed=config.seed)
    out.ensure()
    write_vocabulary(make_vocabulary(config.vocab_size), out.vocab)
    for name, part in (("train", train), ("dev", dev), ("test", test)):
        write_records(part, out.split(name))
    manifest = Manifest(config, Derived(
        task_seed=config.task_seed(), keyword_ids=config.task.keyword_ids(config.vocab_size),
        splits=SplitSizes(train=len(train), dev=len(dev), test=len(test))))
    write_text(out.manifest, (json.dumps(to_json(manifest), indent=2, sort_keys=True), "\n"))
    print(f"wrote {len(records)} {config.task.kind} examples to {out.root} "
          f"(train {len(train)}, dev {len(dev)}, test {len(test)})")


def cmd_train(config: RunConfig, out: OutDir, method_arg: str) -> None:
    methods = _resolve_methods(method_arg)
    stamp = open_run(config, out)
    dims = config.dims()
    train_rows = split_rows(read_records(out.split("train"), config.vocab_size), dims)
    dev_rows = split_rows(read_records(out.split("dev"), config.vocab_size), dims)
    out.ensure("models")
    configs = {method: config.method_config(method) for method in methods}
    with member_pool(train_rows, dims, config.train,
                     [(configs[m], config.train_seed(m)) for m in methods]) as pool:
        for method in methods:
            members = train_method(train_rows, dims, configs[method], config.train,
                                   seed=config.train_seed(method), pool=pool)
            write_bundle(members, out.model_bundle(method), stamp)
            train_ce = evaluate_loss(members[0], train_rows)
            dev_ce = evaluate_loss(members[0], dev_rows)
            print(f"trained {method}: {len(members)} member(s), "
                  f"train CE {train_ce:.4f}, dev CE {dev_ce:.4f}")
            del members  # at one CPU the pool runs the next method's jobs here


def cmd_infer(config: RunConfig, out: OutDir, method_arg: str) -> None:
    methods = _resolve_methods(method_arg)
    stamp = open_run(config, out)
    examples = read_records(out.split("test"), config.vocab_size)

    def decode(method):
        bundle_path = out.model_bundle(method)
        if not os.path.exists(bundle_path):
            raise ConfigurationError(
                f"no trained model for {method!r} at {bundle_path}; run train first"
            )
        members = read_bundle(bundle_path, stamp)
        if members[0].config.method != method:
            raise ValidationError(
                f"bundle at {bundle_path} holds method "
                f"{members[0].config.method!r}, expected {method!r}"
            )
        return decode_corpus(
            members, examples, config.posterior_config(),
            run_seed=config.run_seed(method),
        )

    # Each method is one job; the ones with the most member passes per
    # decode step go first, the GP methods first among equals.
    jobs = sorted(methods,
                  key=lambda m: (-len(config.method_config(m).decode_units), not uses_gp(m)))
    with JobPool(decode, jobs, lambda method: f"{method} decoding") as pool:
        for method in methods:
            preds = pool.take(method)
            path = out.predictions(method)
            out.ensure("preds")
            write_predictions(preds, path)
            print(f"decoded {len(preds)} examples with {method} -> {path}")


# Each summary headline is one report row's value: (report, row key, the
# report column holding the headline, its summary.csv value and rank
# columns, sign that makes lower better).
SUMMARY_COLUMNS = (("ece", "sequence", "ece", "ece_sequence", "rank_ece", 1.0),
                   ("corr", "rougeL", "rho", "spearman_rougeL", "rank_spearman", -1.0),
                   ("roc", "rougeL", "auc", "auc_rougeL", "rank_auc", -1.0))

# {report: CSV header}; reports/<report>.csv holds the rows `evaluate`
# gives under that key.
REPORTS = {
    "ece": "method,level,K,ece",
    "corr": "method,metric,rho,boot_std,B,seed",
    "roc": "method,metric,theta,auc",
    "abstention": "method,metric,alpha,mean_quality",
    "summary": ",".join(("method", *(column[3] for column in SUMMARY_COLUMNS),
                         *(column[4] for column in SUMMARY_COLUMNS), "mean_rank")),
    "gaps": "method,report,metric,reason",
}


def evaluate(joined, config: RunConfig) -> tuple[dict, dict]:
    """({report: rows} for every report, {method: {headline: value}}) of
    `joined`, (method, joined test records) pairs taken one at a time, so a
    generator holds one method's records at once.  A metric undefined on a
    method's records adds one gaps row instead of its rows and headline;
    summary and the `all` gaps rows depend on the set of methods, the
    other rows on each method alone."""
    rows = {report: [] for report in REPORTS}
    gaps, headlines = [], {}
    resamples = config.eval.bootstrap_resamples
    for method, records in joined:
        def add(report, key, tails):
            try:
                rows[report].extend((method, key, *tail) for tail in tails())
            except MetricError as exc:
                gaps.append((method, report, key, str(exc)))

        for level, pairs in (("sequence", sequence_pairs(records)),
                             ("token", token_pairs(records))):
            add("ece", level, lambda: [(ECE_BINS, ece(pairs))])
        u = [r.uncertainty for r in records]
        for metric in QUALITY_KEYS:
            q = [r.quality[metric] for r in records]
            seed, theta = config.bootstrap_seed(method, metric), THRESHOLDS[metric]
            add("corr", metric, lambda: [(boot.rho, boot.std, resamples, seed)
                                         for boot in [bootstrap_std(u, q, resamples, seed)]])
            add("roc", metric, lambda: [(theta, roc_auc(u, q, theta))])
            add("abstention", metric, lambda: zip(ALPHAS, abstention_curve(records, metric)))
        headlines[method] = {name: row[REPORTS[report].split(",").index(name)]
                             for report, key, name, *_ in SUMMARY_COLUMNS
                             for row in rows[report] if row[:2] == (method, key)}
    rows["summary"] = _summary_rows(headlines, gaps)
    rows["gaps"] = [(m, report, metric, '"' + reason.replace('"', "'") + '"')
                    for m, report, metric, reason in gaps]
    return rows, headlines


def _summary_rows(headlines: dict, gaps: list) -> list[tuple]:
    """Per-method headline values plus ranks, lower better on every column.
    A column is ranked only when every method has a value for it, so each
    mean_rank averages the same columns; an unranked column adds one gaps
    entry, and absent values leave empty cells."""
    methods = list(headlines)
    ranks = {m: {} for m in methods}
    for _, _, name, _, rank_name, sign in SUMMARY_COLUMNS:
        missing = [m for m in methods if name not in headlines[m]]
        if missing:
            gaps.append(("all", "summary", rank_name, f"{name} is undefined for "
                         f"{' '.join(missing)}, so no method is ranked on it"))
            continue
        centred = _centred_ranks([sign * headlines[m][name] for m in methods])
        for m, rank in zip(methods, centred + (len(methods) + 1) / 2.0):
            ranks[m][name] = float(rank)
    rows = []
    for m in methods:
        mean_rank = sum(ranks[m].values()) / len(ranks[m]) if ranks[m] else None
        rows.append((m, *(headlines[m].get(column[2]) for column in SUMMARY_COLUMNS),
                     *(ranks[m].get(column[2]) for column in SUMMARY_COLUMNS), mean_rank))
    rows.sort(key=lambda r: (r[-1] is None, r[-1] or 0.0, r[0]))
    return rows


def cmd_eval(config: RunConfig, out: OutDir) -> None:
    open_run(config, out)
    test = read_records(out.split("test"), config.vocab_size)
    max_len = config.posterior_config().max_len
    methods = [m for m in METHODS if os.path.exists(out.predictions(m))]
    if not methods:
        raise ConfigurationError(f"no prediction files under {out.path('preds')}; run infer first")
    out.ensure("reports")
    rows, headlines = evaluate(
        ((m, join_with_references(read_predictions(out.predictions(m), config.vocab_size,
                                                   max_len), test)) for m in methods),
        config)
    for method, headline in headlines.items():
        print(f"eval {method}: " + (", ".join(f"{k} {v:.4f}" for k, v in headline.items())
                                    or "no headline metrics"))
    for report, header in REPORTS.items():
        write_csv(out.report(f"{report}.csv"), header, rows[report])
    note = f", {len(rows['gaps'])} metric gap(s) listed in gaps.csv" if rows["gaps"] else ""
    print(f"wrote reports for {len(methods)} method(s) to {out.path('reports')}{note}")


# ---------------------------------------------------------------------------
# Argument parsing and exit-code mapping.


class UsageParser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors (a missing or unknown option, a
    bad choice, an unknown subcommand) print the usage line and raise
    ConfigurationError, so they exit 1 like every configuration error
    instead of argparse's exit 2, the runtime-failure code here.  --help
    still exits 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigurationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = UsageParser(
        prog="seqcal",
        description="Sequence uncertainty pipeline: synthetic data, "
                    "probabilistic seq2seq training, posterior-mean decoding, "
                    "calibration reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, method=False):
        p.add_argument("--config", required=True, help="run-config JSON file")
        p.add_argument("--out", required=True, help="output directory")
        if method:
            p.add_argument("--method", required=True,
                           help=f"one of {', '.join(METHODS)}, a comma list, or 'all'")

    g = sub.add_parser("gen-data", help="generate vocabulary, corpus, and splits")
    common(g)
    t = sub.add_parser("train", help="train model members for a method")
    common(t, method=True)
    i = sub.add_parser("infer", help="decode the test split with a trained method")
    common(i, method=True)
    e = sub.add_parser("eval", help="score every method's test predictions and write reports")
    common(e)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = load_config(args.config)
        out = OutDir(args.out)
        if args.command == "gen-data":
            cmd_gen_data(config, out)
        elif args.command == "train":
            cmd_train(config, out, args.method)
        elif args.command == "infer":
            cmd_infer(config, out, args.method)
        elif args.command == "eval":
            cmd_eval(config, out)
        return 0
    except (ConfigurationError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InputError, TrainingError, NumericalStateError, MetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
