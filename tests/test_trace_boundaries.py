"""The layers perfbench traces still exist in the package, and its hooks
still read what the traced calls carry.

perfbench/tracing.py wraps `(module, attr)` names from outside the package
and reports a boundary it cannot find as missing, so a refactor that
renames or removes a traced name silently drops a layer from the
benchmark; one that changes what a traced call takes or returns makes its
counter hook fail, which the tracer counts instead of raising, so the
counter silently reads zero.  The first test reads the boundary table
without importing perfbench; the second loads tracing.py by path (it
imports nothing from seqcal at import time) and traces a tiny pipeline.
"""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

from seqcal.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

TINY = {
    "seed": 5,
    "vocab_size": 10,
    "n_examples": 40,
    "task": {"kind": "copy", "input_len": 3, "output_len": 3},
    "model": {"embed_dim": 4, "hidden_dim": 6},
    "train": {"steps": 10, "batch_size": 8},
    "methods": {"samples": 2, "be_size": 2, "de_size": 2, "sngp": {"rff_dim": 8}},
    "decode": {"beam_size": 2},
    "eval": {"bootstrap_resamples": 20},
}


def traced_names():
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "BOUNDARIES" for t in node.targets):
            return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError(f"{TRACING} defines no BOUNDARIES")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves():
    names = traced_names()
    assert names
    missing = [f"{module}.{attr}" for module, attr in names
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_traced_pipeline_fills_every_boundary_and_counter(tmp_path):
    tracing = load_tracing()
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(TINY))
    out = str(tmp_path / "run")
    tracer = tracing.Tracer("t", "pipeline", tracing.now())
    tracer.install()
    try:
        for argv in (["gen-data"], ["train", "--method", "all"],
                     ["infer", "--method", "all"], ["eval"]):
            assert main(argv + ["--config", str(cfg), "--out", out]) == 0, argv[0]
    finally:
        tracer.restore()
    assert tracer.missing == []
    assert tracer.hook_errors == 0
    names = {span[3] for span in tracer.spans}
    silent = [key for _, _, key, _, _ in tracing.BOUNDARIES
              if not any(n == key or n.startswith(key + ".") for n in names)]
    assert silent == []
    counters = tracer.counters
    assert set(counters) == {
        "model.loss_and_grads.rows", "model.build_rows.dense_mb",
        "model.predictive_variance.rows", "inference.step_distributions.rows",
        "training.bundle.mb", "calib.bootstrap.used", "calib.bootstrap.attempted",
    }
    assert all(value > 0 for value in counters.values()), counters
    # the dense-rows hook reads the (rows, vocab) weight pair of the
    # largest split: train, one row per reference token plus eos
    with open(tmp_path / "run" / "train.jsonl", encoding="utf-8") as fh:
        train_rows = sum(len(json.loads(line)["reference"]) + 1 for line in fh)
    want_mb = 2 * train_rows * TINY["vocab_size"] * 8 / tracing.MiB
    assert counters["model.build_rows.dense_mb"] == want_mb
    # every training step of the stage process's own models is counted:
    # steps x batch examples of 4 rows each for the 5 single-model methods
    # (de and sngp_de train their members in forked workers, whose spans
    # stay in those processes)
    assert counters["model.loss_and_grads.rows"] > 10 * TINY["train"]["steps"] * 8
    _, missing = tracing.layer_values([tracer.report()])
    assert missing == []
