"""Multi-seed method comparison on one task.

Repeats the full train/decode/score loop for each global seed and method,
then prints a per-seed table and seed-averaged summary of test ROUGE-1,
sequence ECE, Spearman rho, and the abstention curve endpoints.  This is
the experiment behind the ensemble-trend acceptance gate, exposed so the
comparison can be rerun with different methods, seed sets, or budgets.

Example:
    python3 scripts/trend_experiment.py --config configs/trend.json \
        --methods base,de --seeds 0,1,2
"""

import argparse
import dataclasses
import math
import sys
import time

from seqcal.calib import EceConfig, abstention_curve, ece, sequence_pairs, spearman
from seqcal.cli import _resolve_methods, load_config
from seqcal.corpus import generate_corpus, make_vocabulary, split_corpus, vocabulary_sha256
from seqcal.errors import MetricError
from seqcal.inference import decode_corpus, join_with_references
from seqcal.training import split_rows, train_method


def run_one(cfg, method):
    vocab = make_vocabulary(cfg.vocab_size)
    records = generate_corpus(cfg.task_spec(vocab), cfg.n_examples, vocab)
    train, _, test = split_corpus(records, seed=cfg.seed)
    members = train_method(split_rows(train, cfg.dims(vocab)), cfg.dims(vocab),
                           cfg.method_config(method),
                           cfg.train, seed=cfg.train_seed(method),
                           vocab_sha256=vocabulary_sha256(vocab))
    preds = decode_corpus(members, test, cfg.posterior_config(),
                          run_seed=cfg.run_seed(method))
    joined = join_with_references(preds, test)
    u = [r.uncertainty for r in joined]
    q = [r.quality["rougeL"] for r in joined]
    try:
        rho = spearman(u, q)
    except MetricError:
        rho = float("nan")
    curve = abstention_curve(joined, "rougeL", (0.0, 0.5))
    return {
        "rouge1": math.fsum(r.quality["rouge1"] for r in joined) / len(joined),
        "ece": ece(sequence_pairs(joined), EceConfig(bins=15)),
        "rho": rho,
        "keep_all": curve.values[0],
        "keep_half": curve.values[1],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="run config JSON")
    parser.add_argument("--methods", default="base,de",
                        help="comma list or 'all' (default: base,de)")
    parser.add_argument("--seeds", default="0,1,2",
                        help="comma list of global seeds (default: 0,1,2)")
    args = parser.parse_args(argv)

    base_cfg = load_config(args.config)
    methods = _resolve_methods(args.methods)
    seeds = [int(s) for s in args.seeds.split(",")]

    start = time.time()
    results = {}
    print(f"{'seed':>4} {'method':>8} {'rouge1':>8} {'ece':>7} {'rho':>7} "
          f"{'keep-all':>9} {'keep-half':>10}")
    for seed in seeds:
        cfg = dataclasses.replace(base_cfg, seed=seed)
        for method in methods:
            row = run_one(cfg, method)
            results[(seed, method)] = row
            print(f"{seed:>4} {method:>8} {row['rouge1']:8.2f} {row['ece']:7.4f} "
                  f"{row['rho']:+7.3f} {row['keep_all']:9.2f} {row['keep_half']:10.2f}")

    print()
    print(f"{'mean':>4} {'method':>8} {'rouge1':>8} {'ece':>7}")
    for method in methods:
        r1 = sum(results[(s, method)]["rouge1"] for s in seeds) / len(seeds)
        e = sum(results[(s, method)]["ece"] for s in seeds) / len(seeds)
        print(f"{'':>4} {method:>8} {r1:8.2f} {e:7.4f}")
    print(f"\nelapsed {time.time() - start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
