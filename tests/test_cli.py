"""Run-config loading, derivations, subcommands, and exit codes."""

import argparse
import csv
import hashlib
import importlib.util
import itertools
import json
import os
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from oracles import as_format_7, as_format_8, decode_array, edit_array, encode_array
from seqcal.calib import ALPHAS, THRESHOLDS, write_csv
from seqcal.cli import (
    MAX_DE_SIZE,
    MAX_VOCAB_SIZE,
    REPORTS,
    OutDir,
    _resolve_methods,
    _summary_rows,
    evaluate,
    load_config,
    main,
)
import seqcal.cli as cli
import seqcal.training as training
from seqcal.corpus import content_ids, read_records
from seqcal.errors import ConfigurationError, NumericalStateError, TrainingError
from seqcal.inference import (
    decode_corpus,
    join_with_references,
    read_predictions,
    write_predictions,
)
from seqcal.model import METHODS
from seqcal.training import read_bundle, split_rows, train_member, write_bundle


def write_config(tmp_path, payload, name="run.json"):
    # an infinite value is written as 1e400, the plain-JSON number that
    # parses to it, rather than json's nonstandard Infinity
    path = tmp_path / name
    path.write_text(json.dumps(payload).replace("Infinity", "1e400"))
    return str(path)


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH, for
    running the package in a fresh interpreter."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


SMALL = {
    "seed": 11,
    "vocab_size": 10,
    "n_examples": 60,
    "task": {"kind": "copy", "input_len": 3, "output_len": 3},
    "model": {"embed_dim": 6, "hidden_dim": 8},
    "train": {"steps": 40, "batch_size": 16, "learning_rate": 0.5},
    "methods": {"samples": 3, "de_size": 2, "sngp": {"rff_dim": 16}},
    "decode": {"beam_size": 2},
    "eval": {"bootstrap_resamples": 30},
}


class TestLoadConfig:
    def test_empty_object_gives_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {}))
        assert cfg.seed == 0
        assert cfg.vocab_size == 20
        assert cfg.task.kind == "copy"
        assert cfg.methods.samples == 10
        assert cfg.methods.be_size == 5
        assert cfg.methods.de_size == 10
        assert asdict(cfg.methods.sngp) == {"rff_dim": 128}
        assert cfg.decode.beam_size == 3
        assert asdict(cfg.eval) == {"bootstrap_resamples": 200}

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown keys.*extra"):
            load_config(write_config(tmp_path, {"extra": 1}))

    def test_unknown_nested_key(self, tmp_path):
        with pytest.raises(ConfigurationError, match="task has unknown keys"):
            load_config(write_config(tmp_path, {"task": {"n_tokens": 4}}))
        with pytest.raises(ConfigurationError, match=r"config.eval has unknown keys \['bleu'\]"):
            load_config(write_config(tmp_path, {"eval": {"bleu": 1.0}}))

    def test_type_errors_name_the_field(self, tmp_path):
        with pytest.raises(ConfigurationError, match="config.seed"):
            load_config(write_config(tmp_path, {"seed": "zero"}))
        with pytest.raises(ConfigurationError, match="decode.beam_size"):
            load_config(write_config(tmp_path, {"decode": {"beam_size": True}}))

    def test_threshold_range(self):
        # the ROC cutoffs are calib's constants (a config naming them is
        # refused, see the eval-removed cases below): ROUGE scores in points
        assert all(0.0 <= theta <= 100.0 for theta in THRESHOLDS.values())

    def test_alpha_types(self):
        # the abstention fractions are calib's constants: floats, ascending,
        # each a share of records in [0, 1) that the curve may drop
        assert all(type(a) is float and 0.0 <= a < 1.0 for a in ALPHAS)
        assert list(ALPHAS) == sorted(set(ALPHAS))

    @pytest.mark.parametrize("section, values, message", [
        ("decode", {"beam_size": 0}, "beam_size"),
        # The id predates the message naming the field the user wrote.
        pytest.param("task", {"output_len": 0}, "task.output_len must be >= 1",
                     id="task-values1-max_len"),
        ("train", {"batch_size": 0}, "batch_size"),
        ("train", {"learning_rate": 0.0}, "learning_rate"),
        ("methods", {"samples": 0}, "samples"),
        # the method settings that left the config are unknown keys
        pytest.param("methods", {"dropout_rate": 0.1},
                     r"config.methods has unknown keys \['dropout_rate'\]",
                     id="methods-removed-dropout_rate"),
        ("methods", {"be_size": 0}, "be_size"),
        ("methods", {"de_size": 1}, "de_size"),
        # the report settings that left the config are unknown keys
        pytest.param("eval", {"ece_bins": 15}, r"config.eval has unknown keys \['ece_bins'\]",
                     id="eval-removed-ece_bins"),
        pytest.param("eval", {"thresholds": {}}, r"config.eval has unknown keys \['thresholds'\]",
                     id="eval-removed-thresholds"),
        pytest.param("eval", {"alphas": [0.0]}, r"config.eval has unknown keys \['alphas'\]",
                     id="eval-removed-alphas"),
        pytest.param("eval", {"alphas": [0.0], "ece_bins": 15, "thresholds": {},
                              "bootstrap_resamples": 9},
                     r"config.eval has unknown keys \['alphas', 'ece_bins', 'thresholds'\]",
                     id="eval-removed-all"),
        ("eval", {"bootstrap_resamples": 1}, ">= 2 resamples"),
        ("task", {"kind": "bogus"}, "task.kind"),
        ("task", {"kind": "noisy-paraphrase", "noise_rate": 2.0}, "noise_rate"),
        ("task", {"input_len": 3, "output_len": 4}, "exceeds input_len"),
        ("task", {"kind": "keyword-extract", "num_keywords": -1}, "num_keywords"),
        pytest.param("methods", {"sngp": {"mean_field_factor": 1e-4}},
                     r"config.methods.sngp has unknown keys \['mean_field_factor'\]",
                     id="methods-removed-mean_field_factor"),
        pytest.param("methods", {"sngp": {"kernel_scale": 1.0}},
                     r"config.methods.sngp has unknown keys \['kernel_scale'\]",
                     id="methods-removed-kernel_scale"),
        ("task", {"kind": "keyword-extract", "noise_rate": 0.5},
         "noise_rate must be 0 for the keyword-extract task"),
        (None, {"n_examples": 9}, "config.n_examples must be >= 10"),
        pytest.param("methods", {"sngp": {"spec_norm_bound": 1.0}},
                     r"config.methods.sngp has unknown keys \['spec_norm_bound'\]",
                     id="methods-removed-spec_norm_bound"),
    ])
    def test_bad_values_fail_at_load(self, tmp_path, section, values, message):
        with pytest.raises(ConfigurationError, match=message):
            load_config(write_config(tmp_path, {section: values} if section else values))

    def test_size_ceilings_are_accepted_and_one_past_refused(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path, {"vocab_size": MAX_VOCAB_SIZE, "methods": {"de_size": MAX_DE_SIZE}}))
        assert cfg.vocab_size == MAX_VOCAB_SIZE
        assert len(cfg.method_config("sngp_de").seeds) == MAX_DE_SIZE
        with pytest.raises(ConfigurationError, match="vocab_size"):
            load_config(write_config(tmp_path, {"vocab_size": MAX_VOCAB_SIZE + 1}))
        with pytest.raises(ConfigurationError, match="de_size"):
            load_config(write_config(tmp_path, {"methods": {"de_size": MAX_DE_SIZE + 1}}))

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_config(str(path))

    def test_int_accepted_for_float_field(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"train": {"learning_rate": 1}}))
        assert cfg.train.learning_rate == 1.0


class TestDerivations:
    def test_deep_ensemble_seeds_derived_and_distinct(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"seed": 5, "methods": {"de_size": 4}}))
        a = cfg.method_config("de")
        b = cfg.method_config("de")
        assert a.seeds == b.seeds
        assert len(set(a.seeds)) == 4
        assert cfg.method_config("sngp_de").seeds != a.seeds

    def test_single_methods_have_no_seed_list(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {}))
        assert cfg.method_config("base").seeds == ()
        assert cfg.method_config("mcd").samples == 10

    def test_keyword_ids_are_first_content_ids(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {
            "vocab_size": 10,
            "task": {"kind": "keyword-extract", "input_len": 4, "output_len": 3,
                     "num_keywords": 3},
        }))
        assert cfg.task.keyword_ids(10) == tuple(content_ids(10))[:3]

    def test_too_many_keywords(self, tmp_path):
        path = write_config(tmp_path, {
            "vocab_size": 6,
            "task": {"kind": "keyword-extract", "input_len": 4, "output_len": 3,
                     "num_keywords": 5},
        })
        with pytest.raises(ConfigurationError, match="num_keywords"):
            load_config(path)

    def test_decode_cap_tracks_output_len(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {
            "task": {"input_len": 7, "output_len": 6}}))
        assert cfg.posterior_config().max_len == 6

    def test_stage_seeds_differ(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"seed": 3}))
        assert cfg.train_seed("mcd") != cfg.run_seed("mcd")
        assert cfg.train_seed("mcd") != cfg.train_seed("base")
        assert cfg.bootstrap_seed("mcd", "rouge1") != cfg.bootstrap_seed("mcd", "rouge2")


class TestResolveMethods:
    def test_all_and_lists(self):
        assert _resolve_methods("all") == list(METHODS)
        assert _resolve_methods("base,sngp") == ["base", "sngp"]

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError, match="unknown method"):
            _resolve_methods("dropout")

    def test_repeated_method(self):
        with pytest.raises(ConfigurationError,
                           match="method 'base' is named more than once in 'base,mcd, base'"):
            _resolve_methods("base,mcd, base")


def run_stamp(out):
    """The run stamp of the run directory `out`: the SHA-256 of
    manifest.json's bytes followed by train.jsonl's."""
    blob = b""
    for name in ("manifest.json", "train.jsonl"):
        with open(os.path.join(out, name), "rb") as fh:
            blob += fh.read()
    return hashlib.sha256(blob).hexdigest()


def run_pipeline(tmp_path, methods="base,mcd"):
    cfg_path = write_config(tmp_path, SMALL)
    out = str(tmp_path / "run")
    assert main(["gen-data", "--config", cfg_path, "--out", out]) == 0
    assert main(["train", "--config", cfg_path, "--out", out, "--method", methods]) == 0
    assert main(["infer", "--config", cfg_path, "--out", out, "--method", methods]) == 0
    assert main(["eval", "--config", cfg_path, "--out", out]) == 0
    return cfg_path, out


class TestPipeline:
    def test_gen_data_layout_and_manifest(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL)
        out = str(tmp_path / "run")
        assert main(["gen-data", "--config", cfg_path, "--out", out]) == 0
        for name in ("vocab.json", "train.jsonl", "dev.jsonl", "test.jsonl",
                     "manifest.json"):
            assert os.path.exists(os.path.join(out, name))
        manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
        splits = manifest["derived"]["splits"]
        assert splits["train"] + splits["dev"] + splits["test"] == 60
        assert manifest["config"]["seed"] == 11
        records = read_records(os.path.join(out, "train.jsonl"), SMALL["vocab_size"])
        assert len(records) == splits["train"]

    def test_gen_data_rerun_is_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL)
        out = str(tmp_path / "run")
        assert main(["gen-data", "--config", cfg_path, "--out", out]) == 0
        first = {
            name: open(os.path.join(out, name), "rb").read()
            for name in ("vocab.json", "train.jsonl", "dev.jsonl", "test.jsonl",
                         "manifest.json")
        }
        assert main(["gen-data", "--config", cfg_path, "--out", out]) == 0
        for name, blob in first.items():
            assert open(os.path.join(out, name), "rb").read() == blob, name

    def test_full_pipeline_writes_everything(self, tmp_path, capsys):
        cfg_path, out = run_pipeline(tmp_path)
        for method in ("base", "mcd"):
            assert os.path.exists(os.path.join(out, "models", f"{method}.json"))
            assert os.path.exists(os.path.join(out, "preds", f"{method}.jsonl"))
        for report in ("ece.csv", "corr.csv", "roc.csv", "abstention.csv",
                       "summary.csv", "gaps.csv"):
            path = os.path.join(out, "reports", report)
            assert os.path.exists(path)
        header = open(os.path.join(out, "reports", "summary.csv")).readline()
        assert header.startswith("method,ece_sequence,")
        ece_lines = open(os.path.join(out, "reports", "ece.csv")).read().splitlines()
        assert ece_lines[0] == "method,level,K,ece"
        assert any(line.startswith("mcd,sequence,15,") for line in ece_lines)
        # eval prints one line per method, in method order, of its
        # summary.csv values at .4f
        with open(os.path.join(out, "reports", "summary.csv"), newline="") as fh:
            summary = {row["method"]: row for row in csv.DictReader(fh)}
        expected = []
        for method in ("base", "mcd"):
            cells = [f"{name} {float(summary[method][column]):.4f}"
                     for name, column in (("ece", "ece_sequence"), ("rho", "spearman_rougeL"),
                                          ("auc", "auc_rougeL"))
                     if summary[method][column]]
            expected.append(f"eval {method}: " + (", ".join(cells) or "no headline metrics"))
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("eval ")]
        assert printed == expected

    def test_infer_and_eval_reruns_are_byte_identical(self, tmp_path):
        cfg_path, out = run_pipeline(tmp_path)
        watched = [os.path.join(out, "preds", "base.jsonl"),
                   os.path.join(out, "preds", "mcd.jsonl"),
                   os.path.join(out, "reports", "corr.csv"),
                   os.path.join(out, "reports", "summary.csv")]
        first = {p: open(p, "rb").read() for p in watched}
        assert main(["infer", "--config", cfg_path, "--out", out,
                     "--method", "base,mcd"]) == 0
        assert main(["eval", "--config", cfg_path, "--out", out]) == 0
        for p, blob in first.items():
            assert open(p, "rb").read() == blob, p

    def test_bundle_carries_method_config(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL)
        out = str(tmp_path / "run")
        assert main(["gen-data", "--config", cfg_path, "--out", out]) == 0
        assert main(["train", "--config", cfg_path, "--out", out,
                     "--method", "de"]) == 0
        bundle_path = os.path.join(out, "models", "de.json")
        members = read_bundle(bundle_path, run_stamp(out))
        assert len(members) == 2
        assert members[0].config.method == "de"
        assert json.loads(open(bundle_path).read())["run_sha256"] == run_stamp(out)


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["train", "--out", "x"],
        ["infer", "--config", "c.json", "--out", "x", "--method", "base", "--split", "dev"],
        ["eval", "--config", "c.json", "--out", "x", "--method", "base"],
        ["eval", "--config", "c.json", "--out", "x", "--method", "base,base"],
        ["frob", "--config", "c.json", "--out", "x"],
        ["gen-data", "--config", "c.json", "--out", "x", "--frob"],
    ], ids=["missing-options", "infer-split", "eval-method", "eval-repeated-method",
            "unknown-subcommand", "unknown-option"])
    def test_usage_error_is_one(self, argv, capsys):
        # argparse's own exit 2 would read as a runtime failure
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: seqcal") and "error:" in err and "Traceback" not in err

    def test_help_is_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: seqcal" in capsys.readouterr().out

    def test_bad_config_is_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        out = str(tmp_path / "run")
        assert main(["gen-data", "--config", str(path), "--out", out]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("blob", [b"[" * 100000 + b"]" * 100000, b"{\"seed\": \xff}"],
                             ids=["too-deep", "not-utf8"])
    def test_unreadable_config_and_bundle_are_one(self, tmp_path, capsys, blob):
        bad = tmp_path / "bad.json"
        bad.write_bytes(blob)
        assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
        assert "not valid JSON" in capsys.readouterr().err
        cfg_path, out = run_pipeline(tmp_path, methods="base")
        # every file a later stage reads back, with the stages that read it
        for name, stages in [("models/base.json", ["infer"]), ("vocab.json", ["infer"]),
                             ("test.jsonl", ["infer", "eval"]),
                             ("preds/base.jsonl", ["eval"])]:
            path = os.path.join(out, *name.split("/"))
            good = open(path, "rb").read()
            with open(path, "wb") as fh:
                fh.write(blob)
            for stage in stages:
                method = ["--method", "base"] if stage == "infer" else []
                capsys.readouterr()
                assert main([stage, "--config", cfg_path, "--out", out] + method) == 1, name
                err = capsys.readouterr().err
                assert "not valid JSON" in err and "Traceback" not in err, (name, stage)
            with open(path, "wb") as fh:
                fh.write(good)

    def _edited_split_is_one(self, tmp_path, capsys, stage, split, earlier, output, line, edit):
        """Run gen-data and the `earlier` stages, apply `edit` to record
        `line` (0-based) of `split`.jsonl, and return `stage`'s stderr after
        checking that it exits 1 with no traceback and writes no `output`."""
        cfg_path = write_config(tmp_path, SMALL)
        out = str(tmp_path / "run")
        method = ["--method", "base"]
        assert main(["gen-data", "--config", cfg_path, "--out", out]) == 0
        for before in earlier:
            assert main([before, "--config", cfg_path, "--out", out] + method) == 0
        path = os.path.join(out, f"{split}.jsonl")
        lines = open(path).read().splitlines()
        row = json.loads(lines[line])
        edit(row)
        lines[line] = json.dumps(row)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        capsys.readouterr()
        args = [stage, "--config", cfg_path, "--out", out]
        assert main(args + (method if stage != "eval" else [])) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert not os.path.exists(os.path.join(out, output))
        return path, err

    @pytest.mark.parametrize("stage, split, earlier, output", [
        ("train", "train", [], "models/base.json"),
        ("infer", "test", ["train"], "preds/base.jsonl"),
        ("eval", "test", ["train", "infer"], "reports"),
    ])
    def test_token_outside_the_vocabulary_is_one(self, tmp_path, capsys, stage, split,
                                                 earlier, output):
        def edit(row):
            row["input" if stage != "eval" else "reference"][-1] = 99

        path, err = self._edited_split_is_one(tmp_path, capsys, stage, split, earlier, output,
                                              1, edit)
        assert f"line 2: {path}:" in err and "token id 99 outside the content ids 3..9" in err

    @pytest.mark.parametrize("stage, split, earlier, output, edit, message", [
        # pad, eos and bos in a training example
        ("train", "train", [], "models/base.json", {"input": [0, 8, 3], "reference": [3, 2, 1]},
         "input token id 0 outside the content ids 3..9"),
        ("infer", "test", ["train"], "preds/base.jsonl", {"reference": [1, 2]},
         "reference token id 1 outside the content ids 3..9"),
        ("eval", "test", ["train", "infer"], "reports", {"reference": [1, 2]},
         "reference token id 1 outside the content ids 3..9"),
    ], ids=["train", "infer", "eval"])
    def test_special_id_in_a_split_file_is_one(self, tmp_path, capsys, stage, split, earlier,
                                               output, edit, message):
        # gen-data writes content ids only, so no stage reads a split file
        # that holds pad, bos or eos
        path, err = self._edited_split_is_one(tmp_path, capsys, stage, split, earlier, output,
                                              0, lambda row: row.update(edit))
        assert f"line 1: {path}: {message}" in err

    @pytest.mark.parametrize("payload", [{"vocab_size": 10**9},
                                         {"methods": {"de_size": 10**9}}],
                             ids=["vocab_size", "de_size"])
    def test_huge_size_is_one_at_once(self, tmp_path, payload):
        # without a ceiling this would build 10**9 symbols or member seeds
        # before failing; the timeout stands in for "at once"
        cfg_path = write_config(tmp_path, payload)
        done = subprocess.run(
            [sys.executable, "-m", "seqcal.cli", "gen-data", "--config", cfg_path,
             "--out", str(tmp_path / "run")],
            env=src_env(), capture_output=True, text=True, timeout=20)
        assert done.returncode == 1
        assert done.stderr.startswith("error:") and "Traceback" not in done.stderr
        assert not os.path.exists(tmp_path / "run")

    def test_unwritable_predictions_is_one(self, tmp_path):
        # preds/ is a regular file, so infer cannot put a prediction file
        # under it (a path conflict, which a chmod cannot give a root user)
        cfg_path = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        assert main(["gen-data", "--config", cfg_path, "--out", str(out)]) == 0
        assert main(["train", "--config", cfg_path, "--out", str(out),
                     "--method", "base"]) == 0
        (out / "preds").write_bytes(b"not a directory\n")
        done = subprocess.run(
            [sys.executable, "-m", "seqcal.cli", "infer", "--config", cfg_path,
             "--out", str(out), "--method", "base"],
            env=src_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        assert done.stderr.startswith("error:") and "Traceback" not in done.stderr
        assert (out / "preds").read_bytes() == b"not a directory\n"
        assert list(out.rglob("*.tmp")) == []

    @pytest.mark.parametrize("stage, name", [
        ("infer", "models/base.json"),
        ("train", "dev.jsonl"),
        ("infer", "test.jsonl"),
        ("eval", "test.jsonl"),
    ], ids=["truncated-bundle-infer", "missing-dev-train", "missing-test-infer",
            "missing-test-eval"])
    def test_damaged_run_directory_is_one(self, tmp_path, capsys, stage, name):
        # a bundle is cut in half; a split file is removed
        cfg_path = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        method = ["--method", "base"]
        assert main(["gen-data", "--config", cfg_path, "--out", str(out)]) == 0
        for earlier in {"train": [], "infer": ["train"], "eval": ["train", "infer"]}[stage]:
            assert main([earlier, "--config", cfg_path, "--out", str(out)] + method) == 0
        path = out / name
        if name.startswith("models/"):
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        else:
            path.unlink()

        def tree():
            return {p.relative_to(out): p.read_bytes() if p.is_file() else None
                    for p in out.rglob("*")}

        before = tree()
        capsys.readouterr()
        code = main([stage, "--config", cfg_path, "--out", str(out)]
                    + (method if stage != "eval" else []))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert tree() == before

    @pytest.mark.parametrize("stage, name", [
        ("train", "dev.jsonl"),
        ("infer", "test.jsonl"),
        ("eval", "test.jsonl"),
    ], ids=["empty-dev-train", "empty-test-infer", "empty-test-eval"])
    def test_empty_split_file_is_one(self, tmp_path, capsys, stage, name):
        # a split file with no records is malformed, not a zero-example run
        cfg_path = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        method = ["--method", "base"]
        assert main(["gen-data", "--config", cfg_path, "--out", str(out)]) == 0
        for earlier in {"train": [], "infer": ["train"], "eval": ["train", "infer"]}[stage]:
            assert main([earlier, "--config", cfg_path, "--out", str(out)] + method) == 0
        (out / name).write_bytes(b"")
        capsys.readouterr()
        code = main([stage, "--config", cfg_path, "--out", str(out)]
                    + (method if stage != "eval" else []))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "needs at least one record" in err
        assert list(out.rglob("*.tmp")) == []

    def test_bad_task_kind_is_one(self, tmp_path):
        cfg_path = write_config(tmp_path, {"task": {"kind": "sort"}})
        assert main(["gen-data", "--config", cfg_path, "--out",
                     str(tmp_path / "run")]) == 1

    def test_missing_model_is_one(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, SMALL)
        out = str(tmp_path / "run")
        assert main(["gen-data", "--config", cfg_path, "--out", out]) == 0
        assert main(["infer", "--config", cfg_path, "--out", out,
                     "--method", "base"]) == 1
        assert "run train first" in capsys.readouterr().err

    def test_eval_without_predictions_is_one(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL)
        out = str(tmp_path / "run")
        assert main(["gen-data", "--config", cfg_path, "--out", out]) == 0
        assert main(["eval", "--config", cfg_path, "--out", out]) == 1

    def test_divergent_training_is_two(self, tmp_path, capsys):
        payload = dict(SMALL)
        payload["train"] = {"steps": 30, "batch_size": 16, "learning_rate": 1e300}
        cfg_path = write_config(tmp_path, payload)
        out = str(tmp_path / "run")
        assert main(["gen-data", "--config", cfg_path, "--out", out]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["train", "--config", cfg_path, "--out", out,
                         "--method", "base"])
        assert code == 2
        assert "diverged" in capsys.readouterr().err

    def test_overflowing_bundle_infer_is_two(self, tmp_path, capsys):
        # every stored value is finite, so the bundle loads; the logits
        # overflow, and infer must fail instead of writing NaN scores
        cfg_path = write_config(tmp_path, SMALL)
        out = str(tmp_path / "run")
        assert main(["gen-data", "--config", cfg_path, "--out", out]) == 0
        assert main(["train", "--config", cfg_path, "--out", out, "--method", "base"]) == 0
        bundle_path = os.path.join(out, "models", "base.json")
        bundle = json.loads(open(bundle_path).read())
        member = bundle["members"][0]
        edit_array(member, "b_h", lambda b_h: b_h.fill(10.0))
        edit_array(member, "w_o", lambda w_o: w_o[0].fill(1e308))
        with open(bundle_path, "w") as fh:
            json.dump(bundle, fh)
        assert len(read_bundle(bundle_path, run_stamp(out))) == 1
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["infer", "--config", cfg_path, "--out", out, "--method", "base"])
        err = capsys.readouterr().err
        assert code == 2
        assert "non-finite" in err and "Traceback" not in err
        assert not os.path.exists(os.path.join(out, "preds", "base.jsonl"))

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_prediction_eval_is_one(self, tmp_path, capsys, value):
        cfg_path, out = run_pipeline(tmp_path, methods="base")
        preds = os.path.join(out, "preds", "base.jsonl")
        lines = open(preds).read().splitlines()
        record = json.loads(lines[1])
        record["uncertainty"] = float(value)
        lines[1] = json.dumps(record)
        with open(preds, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["eval", "--config", cfg_path, "--out", out]) == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("token_logp", 800.0, "log-probability 800.0 is above 0"),
        ("token_logp", 0.5, "log-probability 0.5 is above 0"),
        ("uncertainty", -50.0, "uncertainty -50.0 is not "),
        ("hypothesis", [], "hypothesis must hold at least one token"),
        ("hypothesis", [-7, 99999, 0, 1], "hypothesis token id -7 outside the content ids 3..9"),
        # the search stops at output_len 3 tokens
        ("hypothesis", [3, 4, 5, 6, 7, 8, 9], "hypothesis of 7 tokens is longer than max_len 3"),
    ])
    def test_prediction_the_search_cannot_write_is_one(self, tmp_path, capsys, field, value,
                                                       message):
        cfg_path, out = run_pipeline(tmp_path, methods="base")
        preds = os.path.join(out, "preds", "base.jsonl")
        reports = {name: open(os.path.join(out, "reports", name), "rb").read()
                   for name in os.listdir(os.path.join(out, "reports"))}
        lines = open(preds).read().splitlines()
        record = json.loads(lines[1])
        if field == "token_logp":
            record["token_logp"][0] = value
        elif field == "hypothesis":
            record.update(hypothesis=value, token_logp=[-1.0] * len(value))
        else:
            record[field] = value
        lines[1] = json.dumps(record)
        with open(preds, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["eval", "--config", cfg_path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert f"line 2: {preds}: " in err and message in err and "Traceback" not in err
        for name, blob in reports.items():
            assert open(os.path.join(out, "reports", name), "rb").read() == blob, name

    @pytest.mark.parametrize("section, values", [
        ("decode", {"beam_size": 0}),
        ("eval", {"alphas": [0.0, 0.5]}),
        ("eval", {"bootstrap_resamples": 1}),
        ("task", {"kind": "bogus"}),
        ("task", {"kind": "noisy-paraphrase", "noise_rate": 2.0}),
        ("task", {"output_len": 4}),
        ("task", {"kind": "keyword-extract", "num_keywords": -1}),
        # a retired method setting is an unknown key
        ("methods", {"sngp": {"rff_dim": 16, "mean_field_factor": 1e-4}}),
        ("methods", {"sngp": {"rff_dim": 16, "kernel_scale": 1.0}}),
        ("task", {"kind": "keyword-extract", "noise_rate": 0.5}),
        (None, {"n_examples": 9}),
        ("methods", {"dropout_rate": 0.1}),
        ("methods", {"sngp": {"rff_dim": 16, "spec_norm_bound": 1.0}}),
    ])
    def test_bad_value_fails_every_stage(self, tmp_path, capsys, section, values):
        cfg_path, out = run_pipeline(tmp_path, methods="base")
        payload = dict(SMALL)
        if section is None:
            payload.update(values)
        else:
            payload[section] = dict(payload.get(section, {}), **values)
        bad_path = write_config(tmp_path, payload, name="bad.json")
        fresh = str(tmp_path / "fresh")
        for argv in (["gen-data", "--out", fresh],
                     ["train", "--out", out, "--method", "base"],
                     ["infer", "--out", out, "--method", "base"],
                     ["eval", "--out", out]):
            capsys.readouterr()
            assert main(argv + ["--config", bad_path]) == 1, argv[0]
            err = capsys.readouterr().err
            assert err.startswith("error:") and "Traceback" not in err, argv[0]
        assert not os.path.exists(fresh)

    def test_version_one_bundle_is_one(self, tmp_path, capsys):
        # versions 1 to 8 stored the mean-field factor in the method card;
        # 1 to 7 each GP head's output weights as sngp.beta
        # with a null w_o; 1 to 6 its precision and validity flag in place
        # of its factor; 1 to 5 the bos and eos ids in the dims
        # card; 1 to 4 every array as nested lists; 1 to 3 the dropout
        # rate, kernel scale and spectral bound; 1 and 2 a vocabulary hash;
        # 1 also the retired knobs
        cfg_path = write_config(tmp_path, SMALL)
        out = str(tmp_path / "run")
        assert main(["gen-data", "--config", cfg_path, "--out", out]) == 0
        assert main(["train", "--config", cfg_path, "--out", out, "--method", "sngp"]) == 0
        bundle_path = os.path.join(out, "models", "sngp.json")
        current = open(bundle_path).read()

        def as_lists(obj):
            if isinstance(obj, dict) and obj.keys() == {"shape", "f8"}:
                return decode_array(obj).tolist()
            if isinstance(obj, dict):
                return {k: as_lists(v) for k, v in obj.items()}
            return [as_lists(v) for v in obj] if isinstance(obj, list) else obj

        def with_precision(sngp):
            chol = np.linalg.inv(decode_array(sngp.pop("chol_inv")))
            sngp.update(precision=encode_array(chol @ chol.T), covariance_valid=True)

        for version in (1, 2, 3, 4, 5, 6, 7, 8):
            bundle = json.loads(current)
            bundle = as_format_8(bundle) if version == 8 else as_format_7(bundle)
            if version < 7:
                with_precision(bundle["members"][0]["sngp"])
            bundle = bundle if version >= 5 else as_lists(bundle)
            bundle["format_version"] = version
            if version < 6:
                bundle["dims"].update(bos_id=1, eos_id=2)
            if version < 4:
                bundle["method"]["dropout_rate"] = 0.1
                bundle["method"]["sngp"].update(kernel_scale=1.0, spec_norm_bound=1.0)
            if version < 3:
                bundle["vocab_sha256"] = hashlib.sha256(b"vocab").hexdigest()
                del bundle["run_sha256"]
            if version == 1:
                bundle["method"]["sngp"].update(cov_momentum=0.999, power_iters=100)
            with open(bundle_path, "w") as fh:
                json.dump(bundle, fh)
            capsys.readouterr()
            assert main(["infer", "--config", cfg_path, "--out", out,
                         "--method", "sngp"]) == 1, version
            err = capsys.readouterr().err
            assert f"{bundle_path}: bundle has format_version {version}, expected 9" in err, \
                version
            assert "Traceback" not in err, version
            assert not os.path.exists(os.path.join(out, "preds", "sngp.jsonl")), version

    @pytest.mark.parametrize("member, edit, message", [
        (0, lambda sp: edit_array(sp, "chol_inv", lambda l: l.__setitem__((0, 1), 1e-3)),
         ".chol_inv is not lower triangular"),
        (1, lambda sp: edit_array(sp, "chol_inv", lambda l: l.__setitem__((2, 2), 0.0)),
         ".chol_inv has a diagonal entry <= 0"),
        (1, lambda sp: sp.update(precision=sp.pop("chol_inv"), covariance_valid=True),
         " has unknown keys ['covariance_valid', 'precision']"),
    ], ids=["upper-triangle", "zero-diagonal", "format-6-head"])
    def test_unusable_gp_bundle_infer_is_one(self, tmp_path, capsys, member, edit, message):
        cfg_path = write_config(tmp_path, SMALL)
        out = str(tmp_path / "run")
        assert main(["gen-data", "--config", cfg_path, "--out", out]) == 0
        assert main(["train", "--config", cfg_path, "--out", out, "--method", "sngp_de"]) == 0
        bundle_path = os.path.join(out, "models", "sngp_de.json")
        bundle = json.loads(open(bundle_path).read())
        edit(bundle["members"][member]["sngp"])
        with open(bundle_path, "w") as fh:
            json.dump(bundle, fh)
        capsys.readouterr()
        assert main(["infer", "--config", cfg_path, "--out", out, "--method", "sngp_de"]) == 1
        err = capsys.readouterr().err
        assert f"bundle.members[{member}].sngp{message}" in err
        assert err.startswith(f"error: {bundle_path}: ") and "Traceback" not in err
        assert not os.path.exists(os.path.join(out, "preds", "sngp_de.jsonl"))

    @pytest.mark.parametrize("method", ["de", "sngp_de"])
    def test_ensemble_seeds_off_their_card_infer_is_one(self, tmp_path, capsys, method):
        cfg_path = write_config(tmp_path, SMALL)
        out = str(tmp_path / "run")
        assert main(["gen-data", "--config", cfg_path, "--out", out]) == 0
        assert main(["train", "--config", cfg_path, "--out", out, "--method", method]) == 0
        bundle_path = os.path.join(out, "models", f"{method}.json")
        bundle = json.loads(open(bundle_path).read())
        first, second = bundle["method"]["seeds"]
        for stored, at in (((second, first), 0), ((first, 12345), 1)):
            for member, seed in zip(bundle["members"], stored):
                member["seed"] = seed
            with open(bundle_path, "w") as fh:
                json.dump(bundle, fh)
            capsys.readouterr()
            assert main(["infer", "--config", cfg_path, "--out", out, "--method", method]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bundle_path}: bundle.members[{at}].seed is "
                                  f"{stored[at]}, but method.seeds[{at}] is "
                                  f"{(first, second)[at]}") and "Traceback" not in err
            assert not os.path.exists(os.path.join(out, "preds", f"{method}.jsonl"))

    @pytest.mark.parametrize("edit, message", [
        (lambda b: b["method"].update(samples=2.5), "bundle.method.samples must be int, got float"),
        (lambda b: b["method"].update(be_size=5.0), "bundle.method.be_size must be int, got float"),
        (lambda b: b["dims"].update(embed_dim=6.0), "bundle.dims.embed_dim must be int, got float"),
        (lambda b: b["method"].update(seeds=5), "bundle.method.seeds must be a list, got int"),
        (lambda b: b["members"][0].update(be=5), "bundle.members[0].be must be a JSON object"),
        (lambda b: b["members"][0]["be"]["r"].update(f8="not base64"),
         "bundle.members[0].be.r.f8 is not valid base64"),
        (lambda b: b["members"][0].update(loss_history=["x"]),
         "bundle.members[0].loss_history[0] must be float, got str"),
        (lambda b: b["members"][0].update(embed={"a": 1}),
         "bundle.members[0].embed has unknown keys ['a']"),
        (lambda b: b["members"][0].update(seed=True), "bundle.members[0].seed must be int, got bool"),
        (lambda b: b["method"].update(seeds=[7]),
         "single-model method be takes no member seeds, got 1"),
    ], ids=["samples-float", "be_size-float", "embed_dim-float", "seeds-number", "be-number",
            "r-strings", "loss-history-strings", "embed-object", "seed-bool", "one-seed"])
    def test_malformed_bundle_infer_is_one(self, tmp_path, capsys, edit, message):
        cfg_path = write_config(tmp_path, SMALL)
        out = str(tmp_path / "run")
        assert main(["gen-data", "--config", cfg_path, "--out", out]) == 0
        assert main(["train", "--config", cfg_path, "--out", out, "--method", "be"]) == 0
        bundle_path = os.path.join(out, "models", "be.json")
        bundle = json.loads(open(bundle_path).read())
        edit(bundle)
        with open(bundle_path, "w") as fh:
            json.dump(bundle, fh)
        capsys.readouterr()
        assert main(["infer", "--config", cfg_path, "--out", out, "--method", "be"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bundle_path}: ") and message in err
        assert "Traceback" not in err
        assert not os.path.exists(os.path.join(out, "preds", "be.jsonl"))

    @pytest.mark.parametrize("knob", ["cov_momentum", "power_iters", "kernel_scale",
                                      "spec_norm_bound", "mean_field_factor"])
    def test_retired_sngp_knob_is_one(self, tmp_path, capsys, knob):
        payload = dict(SMALL, methods=dict(SMALL["methods"], sngp={"rff_dim": 16, knob: 1}))
        bad_path = write_config(tmp_path, payload, name="bad.json")
        assert main(["gen-data", "--config", bad_path, "--out", str(tmp_path / "x")]) == 1
        assert f"config.methods.sngp has unknown keys ['{knob}']" in capsys.readouterr().err
        cfg_path = write_config(tmp_path, SMALL)
        out = str(tmp_path / "run")
        assert main(["gen-data", "--config", cfg_path, "--out", out]) == 0
        assert main(["train", "--config", cfg_path, "--out", out, "--method", "sngp"]) == 0
        bundle_path = os.path.join(out, "models", "sngp.json")
        bundle = json.loads(open(bundle_path).read())
        bundle["method"]["sngp"][knob] = 1
        with open(bundle_path, "w") as fh:
            json.dump(bundle, fh)
        capsys.readouterr()
        assert main(["infer", "--config", cfg_path, "--out", out, "--method", "sngp"]) == 1
        err = capsys.readouterr().err
        assert f"bundle.method.sngp has unknown keys ['{knob}']" in err

    def test_underflowing_posterior_infer_is_two(self, tmp_path, capsys):
        # finite logits whose spread makes every other probability exactly 0:
        # no finite log score exists, so infer must fail instead of writing
        # -Infinity
        cfg_path = write_config(tmp_path, SMALL)
        out = str(tmp_path / "run")
        assert main(["gen-data", "--config", cfg_path, "--out", out]) == 0
        assert main(["train", "--config", cfg_path, "--out", out, "--method", "base"]) == 0
        bundle_path = os.path.join(out, "models", "base.json")
        bundle = json.loads(open(bundle_path).read())
        edit_array(bundle["members"][0], "b_o", lambda b_o: b_o.__setitem__(3, 800.0))
        with open(bundle_path, "w") as fh:
            json.dump(bundle, fh)
        capsys.readouterr()
        assert main(["infer", "--config", cfg_path, "--out", out, "--method", "base"]) == 2
        err = capsys.readouterr().err
        assert "underflowed" in err and "Traceback" not in err
        assert not os.path.exists(os.path.join(out, "preds", "base.jsonl"))

    def test_unknown_method_is_one(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL)
        out = str(tmp_path / "run")
        assert main(["gen-data", "--config", cfg_path, "--out", out]) == 0
        assert main(["train", "--config", cfg_path, "--out", out,
                     "--method", "bogus"]) == 1


def run_tree(out):
    """{path: bytes, or None for a directory} for everything under `out`."""
    return {p.relative_to(out): p.read_bytes() if p.is_file() else None
            for p in out.rglob("*")}


class TestRunDirectoryBelongsToOneConfig:
    """A run directory belongs to the config gen-data made it with: a stage
    run with another config, or against a vocab.json other than the
    vocabulary of the config's vocab_size, exits 1 with the directory
    byte-for-byte unchanged."""

    def _refused(self, capsys, argv, out, message):
        before = run_tree(out)
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert message in err
        assert run_tree(out) == before

    def test_gen_data_for_another_config_is_refused(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, SMALL)
        other = write_config(tmp_path, dict(SMALL, seed=12), name="other.json")
        out = tmp_path / "run"
        base = ["--out", str(out), "--method", "base"]
        assert main(["gen-data", "--config", cfg_path, "--out", str(out)]) == 0
        assert main(["train", "--config", cfg_path] + base) == 0
        self._refused(capsys, ["gen-data", "--config", other, "--out", str(out)], out,
                      "belongs to another config (it differs in seed)")
        # the directory still serves its own config, gen-data included
        assert main(["gen-data", "--config", cfg_path, "--out", str(out)]) == 0
        assert main(["infer", "--config", cfg_path] + base) == 0
        assert main(["eval", "--config", cfg_path, "--out", str(out)]) == 0

    @pytest.mark.parametrize("stage", ["train", "infer", "eval"])
    def test_stage_with_another_config_is_refused(self, tmp_path, capsys, stage):
        cfg_path, out = run_pipeline(tmp_path, methods="base")
        other = write_config(tmp_path, dict(SMALL, train=dict(SMALL["train"], steps=41)),
                             name="other.json")
        method = ["--method", "base"] if stage != "eval" else []
        self._refused(capsys, [stage, "--config", other, "--out", out] + method,
                      tmp_path / "run", "differs in train")

    def test_train_after_vocab_edit_is_refused(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        assert main(["gen-data", "--config", cfg_path, "--out", str(out)]) == 0
        vocab = json.loads((out / "vocab.json").read_text())
        vocab["symbols"][-1] = "edited"
        (out / "vocab.json").write_text(json.dumps(vocab))
        self._refused(capsys, ["train", "--config", cfg_path, "--out", str(out),
                               "--method", "base"], out, "is not the vocabulary")

    def test_vocab_storing_the_special_ids_is_refused(self, tmp_path, capsys):
        # vocab.json stored pad, bos and eos until they became constants
        cfg_path, out = run_pipeline(tmp_path, methods="base")
        path = tmp_path / "run" / "vocab.json"
        path.write_text(path.read_text()[:-2] + ',"pad":0,"bos":1,"eos":2}\n')
        self._refused(capsys, ["infer", "--config", cfg_path, "--out", out,
                               "--method", "base"], tmp_path / "run",
                      f"vocabulary file {path} has unknown keys ['bos', 'eos', 'pad']")

    @pytest.mark.parametrize("stage", ["gen-data", "train", "eval"])
    def test_manifest_storing_a_vocabulary_digest_is_refused(self, tmp_path, capsys, stage):
        # manifests recorded vocab.json's SHA-256 until the vocabulary
        # became a function of vocab_size
        cfg_path, out = run_pipeline(tmp_path, methods="base")
        path = tmp_path / "run" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["derived"]["vocab_sha256"] = "0" * 64
        path.write_text(json.dumps(manifest))
        method = ["--method", "base"] if stage == "train" else []
        self._refused(capsys, [stage, "--config", cfg_path, "--out", out] + method,
                      tmp_path / "run",
                      f"{path}: manifest.derived has unknown keys ['vocab_sha256']")

    def test_bundle_from_another_run_is_refused(self, tmp_path, capsys):
        # two runs whose configs differ only in seed share one vocabulary,
        # so only the run stamp tells their bundles apart
        runs = {}
        for seed in (11, 12):
            cfg_path = write_config(tmp_path, dict(SMALL, seed=seed), name=f"run{seed}.json")
            out = tmp_path / f"run{seed}"
            assert main(["gen-data", "--config", cfg_path, "--out", str(out)]) == 0
            assert main(["train", "--config", cfg_path, "--out", str(out),
                         "--method", "base"]) == 0
            runs[seed] = cfg_path, out
        vocab = {seed: (out / "vocab.json").read_bytes() for seed, (_, out) in runs.items()}
        assert vocab[11] == vocab[12]
        cfg_path, out = runs[12]
        bundle = out / "models" / "base.json"
        bundle.write_bytes((runs[11][1] / "models" / "base.json").read_bytes())
        self._refused(capsys, ["infer", "--config", cfg_path, "--out", str(out),
                               "--method", "base"], out,
                      f"{bundle}: bundle was trained in another run: its run_sha256 is "
                      f"{run_stamp(runs[11][1])[:12]!r}, this run's {run_stamp(out)[:12]!r}")
        self._refused(capsys, ["eval", "--config", cfg_path, "--out", str(out)], out,
                      "run infer first")

    def test_bundle_without_a_run_stamp_is_refused(self, tmp_path, capsys):
        cfg_path, out = run_pipeline(tmp_path, methods="base")
        bundle = tmp_path / "run" / "models" / "base.json"
        payload = json.loads(bundle.read_text())
        payload["run_sha256"] = ""
        bundle.write_text(json.dumps(payload))
        self._refused(capsys, ["infer", "--config", cfg_path, "--out", out,
                               "--method", "base"], tmp_path / "run",
                      f"{bundle}: bundle was trained in another run: its run_sha256 is ''")

    def test_predictions_of_another_split_are_refused(self, tmp_path, capsys):
        # ids are unique across the corpus, so dev predictions join no test
        # reference; eval leaves the reports of the last good run as they were
        cfg_path, out = run_pipeline(tmp_path, methods="base")
        config = load_config(cfg_path)
        members = read_bundle(os.path.join(out, "models", "base.json"), run_stamp(out))
        dev = decode_corpus(members, read_records(os.path.join(out, "dev.jsonl"),
                                                  config.vocab_size),
                            config.posterior_config(), run_seed=config.run_seed("base"))
        write_predictions(dev, os.path.join(out, "preds", "base.jsonl"))
        self._refused(capsys, ["eval", "--config", cfg_path, "--out", out],
                      tmp_path / "run", f"prediction {dev[0].id!r} has no reference example")

    def test_missing_manifest_is_refused(self, tmp_path, capsys):
        cfg_path, out = run_pipeline(tmp_path, methods="base")
        os.remove(os.path.join(out, "manifest.json"))
        self._refused(capsys, ["infer", "--config", cfg_path, "--out", out,
                               "--method", "base"], tmp_path / "run", "manifest.json")

    @pytest.mark.parametrize("key, value", [("ece_bins", 15), ("alphas", [0.0, 0.5]),
                                            ("thresholds", {"rouge1": 40.0})])
    def test_manifest_naming_a_removed_eval_key_is_refused(self, tmp_path, capsys, key, value):
        # manifests written while the report settings were config keys
        cfg_path, out = run_pipeline(tmp_path, methods="base")
        path = tmp_path / "run" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["eval"][key] = value
        path.write_text(json.dumps(manifest))
        self._refused(capsys, ["eval", "--config", cfg_path, "--out", out], tmp_path / "run",
                      f"manifest.config.eval has unknown keys ['{key}']")

    @pytest.mark.parametrize("stage", ["train", "infer"])
    def test_repeated_method_touches_nothing(self, tmp_path, capsys, stage):
        cfg_path, out = run_pipeline(tmp_path, methods="base")
        self._refused(capsys, [stage, "--config", cfg_path, "--out", out,
                               "--method", "base,base"], tmp_path / "run",
                      "method 'base' is named more than once in 'base,base'")


class TestSummaryRanking:
    """summary.csv ranks a headline column only when every method has a
    value for it, so every mean_rank averages the same columns."""

    def test_all_defined_columns_are_ranked(self):
        gaps = []
        rows = _summary_rows({"a": {"ece": 0.1, "rho": 0.2, "auc": 0.6},
                              "c": {"ece": 0.3, "rho": 0.2, "auc": 0.6},
                              "b": {"ece": 0.2, "rho": 0.5, "auc": 0.7}}, gaps)
        assert rows == [("b", 0.2, 0.5, 0.7, 2.0, 1.0, 1.0, 4 / 3),
                        ("a", 0.1, 0.2, 0.6, 1.0, 2.5, 2.5, 2.0),
                        ("c", 0.3, 0.2, 0.6, 3.0, 2.5, 2.5, 8 / 3)]
        assert gaps == []

    def test_a_column_undefined_for_one_method_is_ranked_for_none(self):
        # an all-correct method has no rho and no AUC; ranked on the other
        # methods' columns alone it came last on its ECE, though it was
        # the best generator, and b beat a on the columns a had
        headlines = {"a": {"ece": 0.1, "rho": 0.2, "auc": 0.6},
                     "perfect": {"ece": 0.3},
                     "b": {"ece": 0.2, "rho": 0.5, "auc": 0.7}}
        gaps = [("a", "roc", "rouge1", "earlier entry")]
        rows = _summary_rows(headlines, gaps)
        assert rows == [("a", 0.1, 0.2, 0.6, 1.0, None, None, 1.0),
                        ("b", 0.2, 0.5, 0.7, 2.0, None, None, 2.0),
                        ("perfect", 0.3, None, None, 3.0, None, None, 3.0)]
        assert gaps[1:] == [
            ("all", "summary", "rank_spearman",
             "rho is undefined for perfect, so no method is ranked on it"),
            ("all", "summary", "rank_auc",
             "auc is undefined for perfect, so no method is ranked on it"),
        ]

    def test_every_mean_rank_averages_the_same_columns(self):
        # a method with no rho or AUC was ranked on its ECE alone while the
        # others averaged three columns; now both average the ECE rank only
        gaps = []
        rows = _summary_rows({"gp": {"ece": 0.01},
                              "a": {"ece": 0.2, "rho": 0.9, "auc": 0.9}}, gaps)
        assert rows == [("gp", 0.01, None, None, 1.0, None, None, 1.0),
                        ("a", 0.2, 0.9, 0.9, 2.0, None, None, 2.0)]
        assert [gap[2] for gap in gaps] == ["rank_spearman", "rank_auc"]

    def test_no_ranked_column_leaves_mean_rank_empty(self):
        gaps = []
        rows = _summary_rows({"a": {}, "b": {"ece": 0.1}}, gaps)
        assert rows == [("a", None, None, None, None, None, None, None),
                        ("b", 0.1, None, None, None, None, None, None)]
        assert len(gaps) == 3


class TestSummaryAgreesWithReports:
    # (summary.csv column, report, the report row's level or metric, the
    # report column holding the value)
    HEADLINES = (("ece_sequence", "ece", "sequence", "ece"),
                 ("spearman_rougeL", "corr", "rougeL", "rho"),
                 ("auc_rougeL", "roc", "rougeL", "auc"))

    def test_every_value_cell_is_its_report_row_or_a_gap(self, tmp_path):
        # on this run base is exact on every output, so its rho and AUC are
        # gaps, while sngp's are defined
        _, out = run_pipeline(tmp_path, methods="base,sngp")

        def table(name):
            with open(os.path.join(out, "reports", f"{name}.csv"), newline="") as fh:
                return list(csv.DictReader(fh))

        summary = table("summary")
        gaps = {(g["method"], g["report"], g["metric"]) for g in table("gaps")}
        seen = set()
        for row in summary:
            for column, report, key, value in self.HEADLINES:
                cells = [r[value] for r in table(report) if r["method"] == row["method"]
                         and r["level" if report == "ece" else "metric"] == key]
                gap = (row["method"], report, key) in gaps
                if cells:
                    assert cells == [row[column]] and not gap, (row["method"], column)
                else:
                    assert row[column] == "" and gap, (row["method"], column)
                seen.add((column, bool(cells)))
        assert sorted(row["method"] for row in summary) == ["base", "sngp"]
        # both branches ran: a defined rho and AUC, and missing ones
        assert {(column, defined) for column, *_ in self.HEADLINES[1:]
                for defined in (True, False)} <= seen


class TestEvaluate:
    """`cli.evaluate` is the one routine from each method's joined records
    to every report; eval feeds it one method at a time."""

    METHODS = ("base", "mcd", "sngp")
    OWN = ("ece", "corr", "roc", "abstention", "gaps")

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        cfg_path, out = run_pipeline(tmp_path_factory.mktemp("evaluate"),
                                     methods=",".join(self.METHODS))
        return load_config(cfg_path), OutDir(out)

    def joined(self, run, method):
        config, out = run
        preds = read_predictions(out.predictions(method), config.vocab_size,
                                 config.task.output_len)
        return method, join_with_references(
            preds, read_records(out.split("test"), config.vocab_size))

    def own_rows(self, rows, method):
        return {report: [row for row in rows[report] if row[0] == method]
                for report in self.OWN}

    def test_a_methods_rows_do_not_depend_on_the_others(self, run):
        config, _ = run
        joined = dict(self.joined(run, m) for m in self.METHODS)
        alone = {}
        for m in self.METHODS:
            rows, headlines = evaluate([(m, joined[m])], config)
            alone[m] = self.own_rows(rows, m), headlines[m]
        # base and mcd are exact on every output of this run, so they have
        # gap rows and no rho, while sngp has a rho of its own
        assert alone["base"][0]["gaps"] and alone["sngp"][0]["corr"]
        for size in (2, 3):
            for order in itertools.permutations(self.METHODS, size):
                rows, headlines = evaluate([(m, joined[m]) for m in order], config)
                assert list(headlines) == list(order)
                for m in order:
                    assert (self.own_rows(rows, m), headlines[m]) == alone[m], (order, m)
                # the rest depends on the set: summary, and its `all` gaps rows
                for report in self.OWN[:-1]:
                    assert len(rows[report]) == sum(len(alone[m][0][report]) for m in order)
                assert sorted(row[0] for row in rows["summary"]) == sorted(order)
                assert {row[:2] for row in rows["gaps"] if row[0] not in order} == {
                    ("all", "summary")}

    def test_rows_from_a_generator_are_the_written_reports(self, run, tmp_path):
        config, out = run
        rows, _ = evaluate((self.joined(run, m) for m in self.METHODS), config)
        for report, header in REPORTS.items():
            path = tmp_path / f"{report}.csv"
            write_csv(path, header, rows[report])
            with open(out.report(f"{report}.csv"), "rb") as fh:
                assert path.read_bytes() == fh.read(), report


@pytest.mark.usefixtures("watchdog")
class TestEnsembleWorkers:
    """train's members and infer's methods are the jobs of one forked pool,
    run by one warm child per CPU, job after job (at one CPU, in the stage
    process); the stage process writes every file and prints every line in
    method order, and no child outlives the stage (`no_children_left`).  A
    test that kills or hangs a child keys on its job."""

    def gen_data(self, tmp_path, capsys, payload=SMALL):
        cfg_path = write_config(tmp_path, payload)
        out = str(tmp_path / "run")
        assert main(["gen-data", "--config", cfg_path, "--out", out]) == 0
        capsys.readouterr()
        return cfg_path, out

    def run(self, stage, cfg_path, out, method="all"):
        return main([stage, "--config", cfg_path, "--out", out, "--method", method])

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_de_alone_writes_the_bundle_of_serial_training(self, tmp_path, monkeypatch,
                                                           capsys, cpus):
        cfg_path, out = self.gen_data(tmp_path, capsys)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert self.run("train", cfg_path, out, "de") == 0
        assert capsys.readouterr().out.startswith("trained de: 2 member(s), train CE ")
        config = load_config(cfg_path)
        dims = config.dims()
        rows = split_rows(read_records(os.path.join(out, "train.jsonl"), config.vocab_size), dims)
        mcfg = config.method_config("de")
        serial = [train_member(rows, dims, mcfg, config.train, s) for s in mcfg.seeds]
        write_bundle(serial, tmp_path / "serial.json", run_stamp(out))
        assert (tmp_path / "serial.json").read_bytes() == \
            (tmp_path / "run" / "models" / "de.json").read_bytes()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_bundles_and_predictions_equal_serial_calls(self, tmp_path, monkeypatch, capsys,
                                                        cpus):
        cfg_path, out = self.gen_data(tmp_path, capsys)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert self.run("train", cfg_path, out) == 0
        assert self.run("infer", cfg_path, out) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:7]] == [f"trained {m}" for m in METHODS]
        assert [line.split()[4] for line in lines[7:]] == list(METHODS)
        config = load_config(cfg_path)
        dims = config.dims()
        rows = split_rows(read_records(os.path.join(out, "train.jsonl"), config.vocab_size), dims)
        test = read_records(os.path.join(out, "test.jsonl"), config.vocab_size)
        for method in METHODS:
            mcfg = config.method_config(method)
            members = [train_member(rows, dims, mcfg, config.train, s)
                       for s in mcfg.member_seeds(config.train_seed(method))]
            write_bundle(members, tmp_path / "serial.json", run_stamp(out))
            assert (tmp_path / "serial.json").read_bytes() == \
                (tmp_path / "run" / "models" / f"{method}.json").read_bytes(), method
            preds = decode_corpus(members, test, config.posterior_config(),
                                  run_seed=config.run_seed(method))
            write_predictions(preds, tmp_path / "serial.jsonl")
            assert (tmp_path / "serial.jsonl").read_bytes() == \
                (tmp_path / "run" / "preds" / f"{method}.jsonl").read_bytes(), method

    def test_a_killed_worker_is_two_and_names_its_members(self, tmp_path, monkeypatch, capsys):
        cfg_path, out = self.gen_data(tmp_path, capsys)
        victim = load_config(cfg_path).method_config("de").seeds[0]
        stage = os.getpid()
        real = training.train_member

        def kill_in_worker(structure, dims, config, hyper, seed):
            if seed == victim and os.getpid() != stage:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(structure, dims, config, hyper, seed)

        monkeypatch.setattr(training, "train_member", kill_in_worker)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert self.run("train", cfg_path, out, "de") == 2
        err = capsys.readouterr().err
        assert f"de member seed {victim} was killed by signal 9" in err
        assert not os.path.exists(os.path.join(out, "models", "de.json"))

    def test_a_diverging_single_model_kills_the_running_workers(self, tmp_path, monkeypatch,
                                                                  capsys):
        """The child training sngp's member hangs while the stage process
        finds that base diverges."""
        payload = dict(SMALL, train={"steps": 30, "batch_size": 16, "learning_rate": 1e300})
        cfg_path, out = self.gen_data(tmp_path, capsys, payload)
        stage = os.getpid()
        real = training.train_member

        def hang_in_worker(structure, dims, config, hyper, seed):
            if config.method == "sngp" and os.getpid() != stage:
                time.sleep(60)
            return real(structure, dims, config, hyper, seed)

        monkeypatch.setattr(training, "train_member", hang_in_worker)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        begin = time.monotonic()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = self.run("train", cfg_path, out)
        assert code == 2
        assert "diverged" in capsys.readouterr().err
        assert time.monotonic() - begin < 30

    def test_a_failing_member_fails_its_own_method_in_order(self, tmp_path, monkeypatch,
                                                            capsys):
        """As in one process: every method before sngp_de keeps its bundle."""
        cfg_path, out = self.gen_data(tmp_path, capsys)
        victim = load_config(cfg_path).method_config("sngp_de").seeds[0]
        real = training.train_member

        def fail_victim(structure, dims, config, hyper, seed):
            if seed == victim:
                raise TrainingError("loss diverged (inf)", step=3)
            return real(structure, dims, config, hyper, seed)

        monkeypatch.setattr(training, "train_member", fail_victim)
        code = self.run("train", cfg_path, out)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: step 3: loss diverged (inf)\n"
        assert [line.split(":")[0] for line in captured.out.splitlines()] == [
            f"trained {m}" for m in METHODS[:-1]]
        assert sorted(os.listdir(os.path.join(out, "models"))) == sorted(
            f"{m}.json" for m in METHODS[:-1])

    def trained(self, tmp_path, monkeypatch, capsys):
        cfg_path, out = self.gen_data(tmp_path, capsys)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert self.run("train", cfg_path, out) == 0
        capsys.readouterr()
        return cfg_path, out

    def test_infer_queues_the_most_member_passes_first(self, tmp_path, monkeypatch, capsys):
        """SMALL: be_size 5, samples 3, de_size 2; GP first among equals."""
        cfg_path, out = self.trained(tmp_path, monkeypatch, capsys)
        order = []

        def record(members, *args, **kwargs):
            order.append(members[0].config.method)
            return decode_corpus(members, *args, **kwargs)

        monkeypatch.setattr(cli, "decode_corpus", record)
        assert self.run("infer", cfg_path, out) == 0
        assert order == ["be", "sngp_mcd", "mcd", "sngp_de", "de", "sngp", "base"]

    def test_a_killed_decode_worker_is_two_and_names_its_method(self, tmp_path, monkeypatch,
                                                                capsys):
        """The child decoding be dies; base and mcd, before be in method
        order, keep their predictions."""
        cfg_path, out = self.trained(tmp_path, monkeypatch, capsys)
        stage = os.getpid()

        def kill_in_worker(members, *args, **kwargs):
            if members[0].config.method == "be" and os.getpid() != stage:
                os.kill(os.getpid(), signal.SIGKILL)
            return decode_corpus(members, *args, **kwargs)

        monkeypatch.setattr(cli, "decode_corpus", kill_in_worker)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert self.run("infer", cfg_path, out) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: the worker running be decoding was killed by signal 9 "
                                "before sending its result\n")
        assert sorted(os.listdir(os.path.join(out, "preds"))) == ["base.jsonl", "mcd.jsonl"]

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_a_failing_method_fails_at_its_turn(self, tmp_path, monkeypatch, capsys, cpus):
        cfg_path, out = self.trained(tmp_path, monkeypatch, capsys)

        def fail_sngp(members, *args, **kwargs):
            if members[0].config.method == "sngp":
                raise NumericalStateError("non-finite logits")
            return decode_corpus(members, *args, **kwargs)

        monkeypatch.setattr(cli, "decode_corpus", fail_sngp)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert self.run("infer", cfg_path, out) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: non-finite logits\n"
        assert [line.split()[4] for line in captured.out.splitlines()] == ["base", "mcd", "be"]
        assert sorted(os.listdir(os.path.join(out, "preds"))) == [
            "base.jsonl", "be.jsonl", "mcd.jsonl"]


class TestOutDir:
    def test_paths(self, tmp_path):
        out = OutDir(str(tmp_path / "x"))
        assert out.model_bundle("mcd").endswith(os.path.join("models", "mcd.json"))
        assert out.predictions("de").endswith(os.path.join("preds", "de.jsonl"))
        assert out.report("ece.csv").endswith(os.path.join("reports", "ece.csv"))
        out.ensure("models")
        assert os.path.isdir(out.path("models"))


def test_cli_import_leaves_scipy_out():
    code = "import sys, seqcal.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"


def test_cli_import_leaves_process_pools_out():
    """The job pool's workers are plain forks: a process-pool module would
    add import time and memory to every stage."""
    code = ("import sys, seqcal.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_decode_imports_no_module():
    # every infer job decodes in a freshly forked child, which pays for any
    # module the decode imports lazily; a fresh interpreter shows it, since
    # this process may hold the module already
    code = """
import sys
import seqcal.cli
from seqcal.corpus import TaskSpec, generate_corpus
from seqcal.inference import PosteriorConfig, decode_corpus
from seqcal.model import METHODS, MethodConfig, ModelDims, init_model, is_deep_ensemble
dims = ModelDims(vocab_size=10, embed_dim=4, hidden_dim=6)
test = generate_corpus(TaskSpec(kind="copy", input_len=3, output_len=3), 5, 10, seed=1)
models = {}
for method in METHODS:
    config = MethodConfig(method=method, samples=2, be_size=2,
                          seeds=(1, 2) if is_deep_ensemble(method) else ())
    models[method] = tuple(init_model(dims, config, s) for s in config.seeds or (0,))
before = set(sys.modules)
for members in models.values():
    decode_corpus(members, test, PosteriorConfig(beam_size=2, max_len=3), 0)
print(sorted(set(sys.modules) - before))
"""
    done = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_option_is_one_the_benchmark_passes(tmp_path, monkeypatch):
    # An option no caller passes is a setting no workload varies; the
    # benchmark's stage command lines are the callers that set the
    # pipeline's options, so each subcommand defines exactly those.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being built
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)
    bench = run.Bench("demo", 0, tmp_path, run.now())
    subcommands = next(action.choices for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    defined = {name: {option for action in parser._actions
                      for option in action.option_strings} - {"-h", "--help"}
               for name, parser in subcommands.items()}
    passed = {name: {arg for arg in bench.stage_argv(name, tmp_path / "run")
                     if arg.startswith("--")}
              for name in run.STAGES}
    assert defined == passed


def test_benchmark_verifier_passes_a_real_run(tmp_path, monkeypatch):
    # the benchmark refuses a run whose outputs its own reader rejects; a
    # format change it cannot read shows here, not first in a bench run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_verify", PERFBENCH / "verify.py")
    verify = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(verify)
    _, out = run_pipeline(tmp_path, methods="all")
    assert verify.verify_run(out) == []
