"""Smoke tests of the scripts under scripts/ on a tiny config."""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TINY = {
    "seed": 3,
    "vocab_size": 10,
    "n_examples": 60,
    "task": {"kind": "copy", "input_len": 3, "output_len": 3},
    "model": {"embed_dim": 4, "hidden_dim": 6},
    "train": {"steps": 10, "batch_size": 8},
    "methods": {"samples": 2, "de_size": 2, "sngp": {"rff_dim": 8}},
    "decode": {"beam_size": 2},
    "eval": {"bootstrap_resamples": 10},
}


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "scripts", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tiny(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def test_run_pipeline_script(tmp_path, capsys):
    out = tmp_path / "run"
    code = load_script("run_pipeline").main(
        ["--config", write_tiny(tmp_path), "--out", str(out), "--method", "base,sngp"])
    assert code == 0
    summary = (out / "reports" / "summary.csv").read_text().splitlines()
    assert sorted(line.split(",")[0] for line in summary[1:]) == ["base", "sngp"]



def test_run_pipeline_usage_error_is_one(tmp_path, capsys):
    script = load_script("run_pipeline")
    assert script.main(["--out", str(tmp_path / "run")]) == 1
    assert script.main(["--config", "c.json", "--out", "x", "--frob"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()
