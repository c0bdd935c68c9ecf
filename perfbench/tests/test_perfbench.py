"""Tests for the benchmark's own logic.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import re
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Layers, Tracer, import_seconds, layer_values, self_times  # noqa: E402
from verify import REPORTS, output_digest, verify_run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def span(span_id, parent, name, start, end):
    return ["r", span_id, parent, name, start, end]


def test_self_time_of_a_synthetic_span_tree():
    spans = [
        span(0, None, "root", 0.0, 10.0),
        span(1, 0, "a", 1.0, 4.0),
        span(2, 1, "a.child", 2.0, 3.0),
        span(3, 0, "b", 5.0, 9.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        span(0, None, "root", 0.0, 10.0),
        span(1, 0, "a", 1.0, 5.0),
        span(2, 0, "b", 3.0, 7.0),
    ]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_layers_sum_calls_total_and_self_over_reports():
    report = {
        "spans": [span(0, None, "stage.infer", 0.0, 10.0),
                  span(1, 0, "inference.decode_corpus.base", 1.0, 9.0),
                  span(2, 1, "inference.step_distributions", 2.0, 3.0),
                  span(3, 1, "inference.step_distributions", 4.0, 6.0)],
        "counters": {"inference.step_distributions.rows": 6.0},
        "missing": [],
    }
    layers = Layers([report, report])
    assert layers.calls("inference.step_distributions") == 4
    assert layers.total("inference.step_distributions") == pytest.approx(6.0)
    assert layers.self_s("inference.decode_corpus.base") == pytest.approx(10.0)
    values, missing = layer_values([report])
    assert missing == []
    assert values["inference.beam.self_s"] == pytest.approx(5.0)
    assert values["inference.step_distributions.rows_per_call"] == pytest.approx(3.0)


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("fake_layer")

    def work(x):
        return x + 1

    def fail():
        raise ValueError("boom")

    module.work = work
    module.fail = fail
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    return module


def test_wrappers_record_spans_and_are_restored(fake_module):
    originals = (fake_module.work, fake_module.fail)
    boundaries = (("fake_layer", "work", "layer.work", None, None),
                  ("fake_layer", "fail", "layer.fail", None, None))
    tracer = Tracer("run-1", "stage.test", 0.0, boundaries)
    tracer.install()
    try:
        assert fake_module.work is not originals[0]
        assert fake_module.work(1) == 2
        with pytest.raises(ValueError):
            fake_module.fail()
    finally:
        tracer.restore()
    assert (fake_module.work, fake_module.fail) == originals
    assert [s[3] for s in tracer.spans] == ["layer.work", "layer.fail"]
    assert all(s[0] == "run-1" and s[2] == 0 for s in tracer.spans)


def test_missing_boundaries_are_listed_not_raised(fake_module):
    boundaries = (("fake_layer", "gone", "layer.gone", None, None),
                  ("no_such_module_here", "work", "layer.x", None, None),
                  ("fake_layer", "work", "layer.work", None, None))
    tracer = Tracer("run-1", "stage.test", 0.0, boundaries)
    tracer.install()
    tracer.restore()
    assert tracer.missing == ["fake_layer.gone", "no_such_module_here.work"]


def test_a_missing_layer_drops_only_its_metrics():
    report = {"spans": [], "counters": {}, "missing": ["seqcal.training._loss_and_grads"]}
    values, missing = layer_values([report])
    assert set(missing) == {"model.loss_and_grads.calls", "model.loss_and_grads.s",
                            "model.loss_and_grads.rows"}
    assert "model.spectral_normalize.s" in values


def test_failing_hook_is_counted_not_raised(fake_module):
    def bad_hook(counters, args, kwargs, result, error):
        raise AttributeError("signature changed")

    tracer = Tracer("r", "stage.test", 0.0, (("fake_layer", "work", "w", None, bad_hook),))
    tracer.install()
    try:
        assert fake_module.work(2) == 3
    finally:
        tracer.restore()
    assert tracer.hook_errors == 1


def test_metric_names_are_well_formed_and_unique():
    names = list(tracing.per_layer_units()) + list(run.END_TO_END)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.per_layer_units())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_import_seconds_sums_own_modules_only():
    lines = [
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |        350 | scipy.linalg",
        "import time:        10 |         10 | seqcal",
        "some other stderr line",
    ]
    assert import_seconds(lines, "numpy") == pytest.approx(300e-6)
    assert import_seconds(lines, "scipy") == pytest.approx(50e-6)
    assert import_seconds(lines, "seqcal") == pytest.approx(10e-6)


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert run.tail([1.0, 3.0, 2.0]) == ("max", 3.0)
    label, value = run.tail([float(i) for i in range(1, 101)])
    assert label == "p90"
    assert 89.0 <= value <= 91.0


def test_times_are_scaled_to_nominal_speed_and_memory_is_not():
    scale = run.speed_scale([0.5, 0.8, 0.6])
    assert scale == pytest.approx(run.NOMINAL_REFERENCE_S / 0.6)
    summary = run.summarize({"train_s": [1.0, 3.0, 2.0], "peak_rss_mb": [60.0]}, scale)
    assert summary["train_s"]["median"] == pytest.approx(2.0 * scale)
    assert summary["train_s"]["raw_median"] == pytest.approx(2.0)
    assert summary["train_s"]["tail"] == "max"
    assert summary["peak_rss_mb"]["median"] == pytest.approx(60.0)
    assert run.speed_scale([]) == 1.0


def make_run_dir(root: Path) -> Path:
    ids = ["t-1", "t-2", "t-3"]
    (root / "test.jsonl").write_text(
        "".join(json.dumps({"id": i, "input": [3], "reference": [3]}) + "\n" for i in ids))
    (root / "preds").mkdir()
    for method in tracing.METHODS:
        (root / "preds" / f"{method}.jsonl").write_text("".join(
            json.dumps({"id": i, "hypothesis": [3], "token_logp": [-0.5],
                        "eos_logp": -0.1, "uncertainty": -0.3}) + "\n" for i in ids))
    (root / "reports").mkdir()
    for name in REPORTS:
        (root / "reports" / name).write_text("a,b\n1,2\n")
    return root


def test_verify_accepts_a_complete_run(tmp_path):
    assert verify_run(make_run_dir(tmp_path)) == []


def test_verify_rejects_a_truncated_prediction_file(tmp_path):
    run_dir = make_run_dir(tmp_path)
    path = run_dir / "preds" / "sngp.jsonl"
    text = path.read_text()
    path.write_text(text[: len(text) - 30])
    problems = verify_run(run_dir)
    assert problems and all("sngp.jsonl" in p for p in problems)


def test_verify_rejects_non_finite_numbers_and_missing_reports(tmp_path):
    run_dir = make_run_dir(tmp_path)
    path = run_dir / "preds" / "de.jsonl"
    path.write_text(path.read_text().replace("-0.1", "NaN", 1))
    (run_dir / "reports" / "roc.csv").unlink()
    (run_dir / "reports" / "ece.csv").write_text("a,b\n1\n")
    problems = verify_run(run_dir)
    assert any("de.jsonl" in p for p in problems)
    assert any("roc.csv" in p for p in problems)
    assert any("ece.csv" in p for p in problems)


def test_digest_moves_with_any_output_byte(tmp_path):
    run_dir = make_run_dir(tmp_path)
    before = output_digest(run_dir)
    assert output_digest(run_dir) == before
    (run_dir / "reports" / "gaps.csv").write_text("a,b\n1,3\n")
    assert output_digest(run_dir) != before
