"""Acceptance gates for the whole package, one test per criterion.

Each test prints a single pass/fail line on the unredirected stdout so
the verdicts stay visible in captured pytest runs.  Criterion 7 is the
desk-scale trend study; it reads its numbers from the report rows
`cli.evaluate` gives, its soft sub-checks print effect sizes and only
the quality-tolerance breach (and the wall-clock budget) hard-fails.
"""

import dataclasses
import hashlib
import json
import os
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import (
    abstention_oracle,
    auc_oracle,
    backprop_gradients,
    batch_loss,
    ece_oracle,
    exhaustive_oracle,
    finite_difference_gradient,
    greedy_oracle,
    lcs_oracle,
    package_dist,
    rouge_l_oracle,
    rouge_n_oracle,
    spearman_oracle,
)
from seqcal.calib import (
    ALPHAS,
    ECE_BINS,
    abstention_curve,
    ece,
    roc_auc,
    spearman,
)
from seqcal.cli import (
    MethodsSection,
    ModelSection,
    RunConfig,
    evaluate,
    load_config,
    main,
)
from seqcal.corpus import (
    BOS_ID,
    ExampleRecord,
    TaskSpec,
    generate_corpus,
    split_corpus,
)
from seqcal import inference
from seqcal.inference import (
    PosteriorConfig,
    beam_decode,
    decode_corpus,
    join_with_references,
    step_distributions,
)
from seqcal.model import (
    SPEC_NORM_BOUND,
    BatchEnsembleState,
    MethodConfig,
    ModelDims,
    SngpConfig,
    forward,
    gp_features,
    init_model,
    mean_field_logits,
    sum_embeddings,
    update_precision,
)
from seqcal.rouge import lcs_length, rouge_l, rouge_n
from seqcal import training
from seqcal.training import TrainHyper, split_rows, train_member, train_method


@pytest.fixture
def announce(capsys):
    def _announce(num, name, ok, detail=""):
        line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line, flush=True)

    return _announce


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_metric_oracles(announce):
    """Every reported metric matches a brute-force second route."""
    rng = np.random.default_rng(20260801)
    n_inst = 220
    start = time.perf_counter()
    worst = 0.0

    # A third of the confidences sit on a bin edge k/K, so that every edge
    # is drawn and the boundary comparisons are tested against the scan.
    edges = np.arange(1, ECE_BINS + 1) / ECE_BINS
    edges_drawn = set()
    for _ in range(n_inst):
        size = int(rng.integers(1, 41))
        drawn = [(float(rng.choice(edges) if rng.random() < 1 / 3 else rng.uniform(1e-6, 1.0)),
                  bool(rng.random() < 0.5)) for _ in range(size)]
        pairs = (np.array([c for c, _ in drawn]), np.array([f for _, f in drawn]))
        edges_drawn.update(set(pairs[0]) & set(edges))
        worst = max(worst, abs(ece(pairs) - ece_oracle(pairs, ECE_BINS)))

    for _ in range(n_inst):
        while True:
            size = int(rng.integers(3, 51))
            u = rng.integers(0, 6, size).astype(float)
            q = rng.integers(0, 6, size).astype(float)
            if len(set(u)) > 1 and len(set(q)) > 1:
                break
        worst = max(worst, abs(spearman(u, q) - spearman_oracle(u, q)))

    for _ in range(n_inst):
        while True:
            size = int(rng.integers(2, 41))
            u = rng.choice(np.linspace(-3.0, 0.0, 7), size)
            q = rng.choice([0.0, 20.0, 40.0, 60.0, 80.0, 100.0], size)
            theta = float(rng.choice([15.0, 30.0, 45.0, 75.0]))
            if (q > theta).any() and (~(q > theta)).any():
                break
        worst = max(worst, abs(roc_auc(u, q, theta) - auc_oracle(u, q, theta)))

    for i in range(n_inst):
        size = int(rng.integers(1, 31))
        records = [
            SimpleNamespace(
                id=f"r{i:03d}-{j:03d}",
                uncertainty=float(rng.choice([-2.0, -1.5, -1.0, -0.5, 0.0])),
                quality={
                    "rouge1": float(rng.choice([0.0, 25.0, 50.0, 100.0])),
                    "rouge2": float(rng.choice([0.0, 50.0, 100.0])),
                    "rougeL": float(rng.uniform(0.0, 100.0)),
                },
            )
            for j in range(size)
        ]
        key = str(rng.choice(["rouge1", "rouge2", "rougeL"]))
        got = abstention_curve(records, key)
        want = abstention_oracle(records, key, ALPHAS)
        worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))

    exact_ok = True
    for i in range(n_inst):
        hyp = tuple(int(t) for t in rng.integers(3, 8, int(rng.integers(0, 9))))
        ref = tuple(int(t) for t in rng.integers(3, 8, int(rng.integers(0, 9))))
        order = 1 + i % 2
        worst = max(worst, abs(rouge_n(hyp, ref, order) - rouge_n_oracle(hyp, ref, order)))
        exact_ok &= lcs_length(hyp, ref) == lcs_oracle(hyp, ref)
        worst = max(worst, abs(rouge_l(hyp, ref) - rouge_l_oracle(hyp, ref)))

    elapsed = time.perf_counter() - start
    edges_ok = len(edges_drawn) == ECE_BINS
    ok = worst <= 1e-12 and exact_ok and edges_ok and elapsed < 30.0
    announce(1, "metric oracle agreement", ok,
             f"{6 * n_inst} float + {n_inst} lcs instances, "
             f"{len(edges_drawn)}/{ECE_BINS} bin edges drawn, "
             f"max dev {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert exact_ok
    assert edges_ok
    assert elapsed < 30.0


# ---------------------------------------------------------------- criterion 2


def _gradient_batch(rng, vocab):
    out = []
    for i in range(3):
        inp = tuple(int(t) for t in rng.integers(3, vocab, 3))
        ref = tuple(int(t) for t in rng.integers(3, vocab, int(rng.integers(1, 4))))
        out.append(ExampleRecord(id=f"g{i}", input=inp, reference=ref))
    return out


def test_criterion_2_gradient_checks(announce):
    """Central differences agree with the hand-written backward pass."""
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    dims = ModelDims(vocab_size=9, embed_dim=4, hidden_dim=6)
    heads = (
        ("base", MethodConfig(method="base"), 0),
        ("be", MethodConfig(method="be", be_size=3), 1),
        ("sngp", MethodConfig(method="sngp", sngp=SngpConfig(rff_dim=12)), 0),
    )
    for seed in range(5):
        rng = np.random.default_rng(3000 + seed)
        batch = _gradient_batch(rng, dims.vocab_size)
        for name, config, member in heads:
            model = init_model(dims, config, seed=seed)
            grads = backprop_gradients(model, batch, be_member=member)
            arrays = [
                ("embed", model.embed, grads["embed"]),
                ("w_h", model.w_h, grads["w_h"]),
                ("b_h", model.b_h, grads["b_h"]),
                ("w_o", model.w_o, grads["w_o"]),
            ]
            if model.b_o is not None:  # the GP head has none
                arrays.append(("b_o", model.b_o, grads["b_o"]))
            if name == "be":
                arrays.append(("be_r", model.be.r, grads["be.r"]))
                arrays.append(("be_s", model.be.s, grads["be.s"]))

            def loss_fn():
                return batch_loss(model, batch, be_member=member)

            for label, array, analytic in arrays:
                coords = rng.choice(array.size, size=min(20, array.size),
                                    replace=False)
                fd = finite_difference_gradient(loss_fn, array, coords, step=1e-4)
                flat = analytic.reshape(-1)
                for c in coords:
                    denom = max(abs(float(flat[c])), abs(fd[c]), 1e-6)
                    rel = abs(float(flat[c]) - fd[c]) / denom
                    worst = max(worst, rel)
                    checked += 1

    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 30.0
    announce(2, "finite-difference gradients", ok,
             f"base/be/sngp heads, 5 seeds, {checked} coordinates, "
             f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 30.0


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_collapse_cases(announce, monkeypatch):
    """Degenerate settings reduce every method to its simpler twin."""
    dims = ModelDims(vocab_size=8, embed_dim=5, hidden_dim=6)
    rng = np.random.default_rng(42)
    prefixes = ((), (3,), (3, 5), (4, 4, 4))
    inp = (3, 6, 7)

    base = init_model(dims, MethodConfig(method="base"), seed=11)
    mcd0 = init_model(dims, MethodConfig(method="mcd", samples=4), seed=11)
    mcd_dev = 0.0
    with monkeypatch.context() as patch:
        # at rate 0 every mask keeps every unit: each sample is the base pass
        patch.setattr("seqcal.model.DROPOUT_RATE", 0.0)
        for step, prefix in enumerate(prefixes):
            want = package_dist([base], inp, prefix, run_seed=9,
                                example_id="c3", step=step)
            got = package_dist([mcd0], inp, prefix, run_seed=9,
                               example_id="c3", step=step)
            mcd_dev = max(mcd_dev, float(np.max(np.abs(got - want))))

    be = init_model(dims, MethodConfig(method="be", be_size=4), seed=11)
    be.be = BatchEnsembleState(np.ones_like(be.be.r),
                                     np.ones_like(be.be.s))
    embed = base.embed
    z = np.stack([
        np.concatenate([sum_embeddings(embed, inp),
                        sum_embeddings(embed, (BOS_ID, *prefix))])
        for prefix in prefixes
    ])
    want = forward(base, z)["logits"]
    be_dev = 0.0
    for k in range(4):
        got = forward(be, z, be_member=k)["logits"]
        be_dev = max(be_dev, float(np.max(np.abs(got - want))))

    logits = rng.standard_normal((3, dims.vocab_size))
    variances = rng.uniform(0.1, 2.0, (3, 1))
    with monkeypatch.context() as patch:
        patch.setattr("seqcal.model.MEAN_FIELD_FACTOR", 0.0)
        mf_exact = bool(np.array_equal(mean_field_logits(logits, variances), logits))

    sngp = init_model(dims, MethodConfig(method="sngp"), seed=11)
    precision = np.eye(sngp.config.sngp.rff_dim)
    for _ in range(3):
        phi = gp_features(np.tanh(rng.standard_normal((6, dims.hidden_dim))), sngp.sngp)[1]
        precision = update_precision(precision, phi)
    frozen = update_precision(precision, np.zeros((5, precision.shape[0])))
    prec_exact = bool(np.array_equal(frozen, precision))

    ok = mcd_dev <= 1e-12 and be_dev <= 1e-10 and mf_exact and prec_exact
    announce(3, "collapse and degeneracy", ok,
             f"mcd rate-0 dev {mcd_dev:.2e}, unit-BE dev {be_dev:.2e}, "
             f"factor-0 mean-field exact={mf_exact}, "
             f"zero-feature precision exact={prec_exact}")
    assert mcd_dev <= 1e-12
    assert be_dev <= 1e-10
    assert mf_exact
    assert prec_exact


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_structural_invariants(announce, monkeypatch):
    """Spectral bound, precision definiteness, normalized posteriors."""
    cfg = RunConfig(
        seed=5, vocab_size=10, n_examples=200,
        task=TaskSpec(kind="copy", input_len=3, output_len=3),
        model=ModelSection(embed_dim=8, hidden_dim=16),
        train=TrainHyper(steps=120, batch_size=16, learning_rate=0.5),
        methods=MethodsSection(samples=3, sngp=SngpConfig(rff_dim=32)),
    )
    records = generate_corpus(cfg.task, cfg.n_examples, cfg.vocab_size, cfg.task_seed())
    train, _, test = split_corpus(records, seed=cfg.seed)

    bound = SPEC_NORM_BOUND
    sigmas = []
    real_normalize = training.spectral_normalize

    def watch(w):
        # W_h as training holds it: the initial weights, then after each update
        out = real_normalize(w)
        sigmas.append(float(np.linalg.svd(out, compute_uv=False)[0]))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(training, "spectral_normalize", watch)
        train_member(split_rows(train, cfg.dims()), cfg.dims(),
                     cfg.method_config("sngp"), cfg.train, seed=cfg.train_seed("sngp"))
    spectral_ok = len(sigmas) == cfg.train.steps + 1 and max(sigmas) <= bound * 1.001

    rng = np.random.default_rng(77)
    state = init_model(cfg.dims(), cfg.method_config("sngp"), seed=3).sngp
    precision = np.eye(state.w_r.shape[0])
    for _ in range(100):
        h = np.tanh(rng.standard_normal((8, cfg.model.hidden_dim)))
        precision = update_precision(precision, gp_features(h, state)[1])
    eigmin = float(np.linalg.eigvalsh(precision).min())
    # the exact pass adds positive semidefinite terms to the identity prior
    spd_ok = eigmin >= 1.0 and bool(np.array_equal(precision, precision.T))

    members = train_method(split_rows(train, cfg.dims()), cfg.dims(),
                           cfg.method_config("sngp_mcd"),
                           TrainHyper(steps=100, batch_size=16, learning_rate=0.5),
                           seed=cfg.train_seed("sngp_mcd"))
    rows_seen = 0
    worst_sum = 0.0

    def watched(*args, **kwargs):
        nonlocal rows_seen, worst_sum
        dists = step_distributions(*args, **kwargs)
        for row in dists.reshape(-1, dists.shape[-1]):
            rows_seen += 1
            worst_sum = max(worst_sum, abs(float(np.sum(row)) - 1.0))
        return dists

    pcfg = cfg.posterior_config()
    monkeypatch.setattr(inference, "step_distributions", watched)
    for example in test:
        beam_decode(members, example.input, pcfg,
                    run_seed=cfg.run_seed("sngp_mcd"), example_id=example.id)
    sums_ok = rows_seen > 0 and worst_sum <= 1e-9

    ok = spectral_ok and spd_ok and sums_ok
    announce(4, "structural invariants", ok,
             f"max sigma {max(sigmas):.6f} over {len(sigmas)} steps, "
             f"precision eigmin {eigmin:.3e}, "
             f"{rows_seen} posterior rows, max |sum-1| {worst_sum:.2e}")
    assert spectral_ok
    assert spd_ok
    assert sums_ok


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_beam_oracle(announce):
    """Wide beams recover the exhaustive argmax; beam one is greedy.  A
    record's u is, to the last bit, the score the oracle picked it by."""
    dims4 = ModelDims(vocab_size=4, embed_dim=4, hidden_dim=5)
    exhaustive_matches = 0
    for seed in range(50):
        model = init_model(dims4, MethodConfig(method="base"), seed=seed)
        config = PosteriorConfig(beam_size=64, max_len=3)
        rec = beam_decode([model], (3, 1, 0), config, run_seed=2,
                          example_id=f"x{seed}")
        tokens, logps, eos_lp, score = exhaustive_oracle([model], (3, 1, 0), config, 2,
                                                         f"x{seed}")
        if (rec.hypothesis == tokens
                and np.allclose(rec.token_logp, logps, atol=1e-12)
                and abs(rec.eos_logp - eos_lp) <= 1e-12
                and rec.uncertainty == score):
            exhaustive_matches += 1

    dims6 = ModelDims(vocab_size=6, embed_dim=4, hidden_dim=5)
    greedy_matches = 0
    for seed in range(50):
        model = init_model(dims6, MethodConfig(method="base"), seed=seed)
        config = PosteriorConfig(beam_size=1, max_len=4)
        rec = beam_decode([model], (3, 4, 5), config, run_seed=2,
                          example_id=f"g{seed}")
        tokens, logps, eos_lp, score = greedy_oracle([model], (3, 4, 5), config, 2,
                                                     f"g{seed}")
        if (rec.hypothesis == tokens
                and np.allclose(rec.token_logp, logps, atol=1e-12)
                and abs(rec.eos_logp - eos_lp) <= 1e-12
                and rec.uncertainty == score):
            greedy_matches += 1

    ok = exhaustive_matches == 50 and greedy_matches == 50
    announce(5, "beam search oracle", ok,
             f"exhaustive {exhaustive_matches}/50, greedy {greedy_matches}/50")
    assert exhaustive_matches == 50
    assert greedy_matches == 50


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_calibrated_population(announce):
    """ECE is near zero when correctness is drawn at the stated confidence."""
    rng = np.random.default_rng(123)
    n = 100_000
    conf = rng.uniform(1e-9, 1.0, n)
    correct = rng.random(n) < conf
    value = ece((conf, correct))
    ok = value < 0.01
    announce(6, "calibrated population", ok, f"n={n}, K={ECE_BINS}, ece {value:.5f}")
    assert value < 0.01


# ---------------------------------------------------------------- criterion 7


TREND_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "trend.json"


def _trend_config(global_seed):
    return dataclasses.replace(load_config(TREND_CONFIG), seed=global_seed)


def _trend_one_seed(global_seed):
    """base's and de's numbers at one seed, read from the report rows
    `cli.evaluate` gives: mean rouge1 is the abstention row at alpha 0,
    and a metric's curve counts only where its corr row, rho, exists."""
    cfg = _trend_config(global_seed)
    records = generate_corpus(cfg.task, cfg.n_examples, cfg.vocab_size, cfg.task_seed())
    train, _, test = split_corpus(records, seed=cfg.seed)

    def joined(method):
        members = train_method(split_rows(train, cfg.dims()), cfg.dims(),
                               cfg.method_config(method),
                               cfg.train, seed=cfg.train_seed(method))
        preds = decode_corpus(members, test, cfg.posterior_config(),
                              run_seed=cfg.run_seed(method))
        return method, join_with_references(preds, test)

    rows, _ = evaluate(map(joined, ("base", "de")), cfg)
    curve = {row[:3]: row[3] for row in rows["abstention"]}
    ece_of = {row[:2]: row[3] for row in rows["ece"]}
    # ALPHAS runs from 0 to 0.5: the curve's first and last values
    return {method: {"r1": curve[method, "rouge1", 0.0],
                     "ece": ece_of[method, "sequence"],
                     "curves": [(rho, curve[m, metric, 0.0], curve[m, metric, 0.5])
                                for m, metric, rho, *_ in rows["corr"] if m == method]}
            for method in ("base", "de")}


def test_criterion_7_ensemble_trend(announce):
    """Deep ensembles beat the single model on quality at matched budgets."""
    assert (ALPHAS[0], ALPHAS[-1]) == (0.0, 0.5)  # the curve ends _trend_one_seed reads
    start = time.perf_counter()
    seeds = (0, 1, 2)
    results = {s: _trend_one_seed(s) for s in seeds}
    elapsed = time.perf_counter() - start

    margins = [results[s]["de"]["r1"] - results[s]["base"]["r1"] for s in seeds]
    tol_ok = all(m >= -0.5 for m in margins)
    strict_wins = sum(1 for m in margins if m > 0.0)
    strict_ok = strict_wins >= 2
    ece_wins = sum(
        1 for s in seeds if results[s]["de"]["ece"] <= results[s]["base"]["ece"]
    )
    ece_ok = ece_wins >= 2

    applicable = 0
    rising = 0
    for s in seeds:
        for method in ("base", "de"):
            for rho, at0, at5 in results[s][method]["curves"]:
                if rho > 0.1:
                    applicable += 1
                    if at5 >= at0:
                        rising += 1
    curve_ok = rising == applicable
    budget_ok = elapsed < 600.0

    ok = tol_ok and strict_ok and ece_ok and curve_ok and budget_ok
    announce(7, "ensemble trend study", ok,
             f"rouge1 margins de-base {'/'.join(f'{m:+.2f}' for m in margins)} pts, "
             f"strict wins {strict_wins}/3, ece wins {ece_wins}/3, "
             f"abstention rises {rising}/{applicable}, {elapsed:.1f}s")
    # Only the quality tolerance and the time budget hard-fail; the
    # calibration and abstention sub-checks report effect sizes above.
    assert tol_ok, f"ensemble fell more than 0.5 rouge1 points behind: {margins}"
    assert budget_ok


# ---------------------------------------------------------------- criterion 8


# SHA-256 of every file criterion 8 compares, pinned once the model
# inputs became plain sums of embeddings (bos first in a prefix state), the
# references canonical and the sequence confidence exp(log P(tokens, eos)).
# The mcd prediction digest and those of the reports with mcd rows (and
# summary.csv's ranks) were re-pinned when a decode's dropout masks became
# one stream per example instead of one per (example, step, sample).
# The de prediction digest, ece.csv and summary.csv were re-pinned when a
# prediction's u and its sequence confidence became the search's own
# left-to-right total instead of a math.fsum: two de records' u moved in
# the last bit, and with them de's sequence ECE.
# A speedup must leave every one of them unchanged, so a last-bit drift in
# any stage fails here even though both runs of one tree would agree.
PIPELINE_SHA256 = {
    "preds/mcd.jsonl": "6fca1411e99d63071a72f2ca6fdf05be0d8c3d460b0b0729b5434d681afa01c2",
    "preds/sngp.jsonl": "90122ffa36878acf2f784cda201fbf331e3c750c4cab5fe4eebf5047adebff0c",
    "preds/de.jsonl": "4a7d61298ba5a0d607d3bd661a4172bc89c67c1f3d3b6336ba67644cdadabe3c",
    "reports/ece.csv": "4dc515a38f74aaa3e3e16f00ebfa369e67ec96a5e00cd6566f5dd5beafdb7a56",
    "reports/corr.csv": "2a34251dfcc133820042828eab0573f4dfc487058c06d965cdfc18512776a351",
    "reports/roc.csv": "5c8918d3fdf2f4601e2f8bf1816c399a39b7b75e7da11a6429c8d500b3e646a5",
    "reports/abstention.csv": "0cc20bc9535272ec18abab978e6fbefefe90e401517a3dd8f956feeb4e56f76e",
    "reports/summary.csv": "bc1407fb9700990af086d3d35452a9507d77defbc59a4a6ac349bb57a6b844d3",
    "reports/gaps.csv": "643a8b2c3e786188b8973848661109d4a4955360b9555c100b1cdfb96d996702",
}


def test_criterion_8_pipeline_determinism(announce, tmp_path):
    """Two runs of the full pipeline agree byte for byte, and with the
    pinned digests."""
    payload = {
        "seed": 19,
        "vocab_size": 10,
        "n_examples": 80,
        "task": {"kind": "copy", "input_len": 3, "output_len": 3},
        "model": {"embed_dim": 6, "hidden_dim": 8},
        "train": {"steps": 60, "batch_size": 16, "learning_rate": 0.5},
        "methods": {"samples": 3, "de_size": 2, "sngp": {"rff_dim": 16}},
        "decode": {"beam_size": 2},
        "eval": {"bootstrap_resamples": 30},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(payload))
    methods = "mcd,sngp,de"
    outs = []
    for name in ("runA", "runB"):
        out = str(tmp_path / name)
        assert main(["gen-data", "--config", str(cfg_path), "--out", out]) == 0
        assert main(["train", "--config", str(cfg_path), "--out", out,
                     "--method", methods]) == 0
        assert main(["infer", "--config", str(cfg_path), "--out", out,
                     "--method", methods]) == 0
        assert main(["eval", "--config", str(cfg_path), "--out", out]) == 0
        outs.append(out)

    compared = []
    identical = True
    drifted = []
    for rel in (
        [f"preds/{m}.jsonl" for m in methods.split(",")]
        + [f"reports/{name}" for name in
           ("ece.csv", "corr.csv", "roc.csv", "abstention.csv",
            "summary.csv", "gaps.csv")]
    ):
        a = open(os.path.join(outs[0], *rel.split("/")), "rb").read()
        b = open(os.path.join(outs[1], *rel.split("/")), "rb").read()
        compared.append(rel)
        identical &= a == b
        if hashlib.sha256(a).hexdigest() != PIPELINE_SHA256[rel]:
            drifted.append(rel)

    ok = identical and len(compared) == 9 and not drifted
    announce(8, "pipeline determinism", ok,
             f"{len(compared)} prediction/report files byte-identical, "
             f"{len(compared) - len(drifted)} match the pinned SHA-256")
    assert identical
    assert len(compared) == 9
    assert not drifted, f"output drifted from the pinned digests: {drifted}"
