"""Benchmark of the seqcal pipeline: the four CLI stages, end to end and by layer.

    python3 perfbench/run.py --workload demo --seed 0 --seconds 30 --trace 0

Run from a checkout of the repository.  Each pipeline run starts gen-data,
train --method all, infer --method all and eval, each in a fresh
interpreter, one after another (a closed loop with one client), in a fresh
run directory, against a copy of the workload config with `seed` replaced.
The outputs are verified and digested (verify.py).

--trace 0 makes two pipeline runs, then re-runs infer and eval on the last
run's directory until --seconds have passed, so the short stages get more
samples, and reports the end-to-end metrics as medians, with times scaled to
a nominal machine speed measured by reference processes (see REFERENCE).  --trace 1 makes one
untraced and one traced pipeline run and reports the per-layer metrics
(tracing.py).  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
every metric with its unit, median, tail and sample count, and the full
result, with the environment, is written under .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import (
    IMPORT_METRICS,
    STAGE_CHECKS,
    STAGES,
    import_seconds,
    layer_values,
    now,
    per_layer_units,
    self_times,
)
from verify import output_digest, verify_run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

# name -> (config path relative to the checkout, default seed)
WORKLOADS = {
    "demo": ("configs/demo.json", 0),
    "trend": ("configs/trend.json", 0),
    "wide": ("perfbench/workloads/wide.json", 0),
}
# Kept out of the seeds a change is written against; re-check claims on it.
HELD_OUT_SEED = 1009
BLAS_THREADS = 1
MIN_RUNS = 2
SETUP_PROBES = 1
# The whole invocation must finish within 180 s.
DEADLINE_S = 170.0
# Machine speed on small shared hosts drifts by up to ±30% over minutes and
# moves every timing of a run together, so timings are reported at a nominal
# speed.  Just before each timed stage process, a reference process runs
# this fixed import of the environment's libraries (no seqcal code); every
# time metric is scaled by NOMINAL_REFERENCE_S over the median reference time
# of the invocation.  Raw wall times are kept alongside.
REFERENCE = "import numpy, scipy.linalg"
NOMINAL_REFERENCE_S = 0.4

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "infer_s": "s",
    "eval_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Stage:
    name: str
    code: int
    wall_s: float
    setup_s: float | None
    rss_mb: float
    cpu_s: float
    report: dict
    stderr: str


@dataclass
class Pipeline:
    """A pipeline run, or a re-run of some of its stages in its directory."""

    stages: list
    problems: list = field(default_factory=list)
    digest: str | None = None

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def full(self) -> bool:
        return [s.name for s in self.stages] == list(STAGES)

    @property
    def duration_s(self) -> float:
        """Summed wall time of the stage processes, launch to exit; for a full
        run, `pipeline_s`.  It leaves out the reference processes between
        stages and nothing else but the parent's few milliseconds between an
        exit and the next launch."""
        return sum(s.wall_s for s in self.stages)

    def stage(self, name) -> Stage:
        return next(s for s in self.stages if s.name == name)


class Bench:
    """One invocation: the per-run config, the stage environment, the
    deadline, and the stage and pipeline runs made under them."""

    def __init__(self, workload: str, seed: int, run_dir: Path, started: float):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.started = started
        self.nproc = len(os.sched_getaffinity(0))
        self.blas_threads = min(BLAS_THREADS, self.nproc)
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(self.blas_threads)
        payload = json.loads((ROOT / WORKLOADS[workload][0]).read_text(encoding="utf-8"))
        payload["seed"] = seed
        self.config = run_dir / "config.json"
        self.config.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        self._count = 0
        self.references = []

    def remaining(self) -> float:
        return DEADLINE_S - (now() - self.started)

    def fresh(self, prefix: str) -> Path:
        self._count += 1
        return self.run_dir / f"{prefix}{self._count}"

    def stage(self, argv, *, trace_id=None, setup_only=False) -> Stage:
        scratch = self.fresh("stage")
        report_path, err_path = f"{scratch}.json", f"{scratch}.err"
        launch = now()
        cmd = [sys.executable]
        if trace_id is not None:
            cmd += ["-X", "importtime"]
        cmd += [str(HERE / "stage.py"), "--report", report_path, "--launch", repr(launch)]
        if trace_id is not None:
            cmd += ["--trace", trace_id]
        if setup_only:
            cmd.append("--setup-only")
        cmd += ["--", *argv]
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            status, usage, end = _wait(proc, max(self.remaining(), 1.0))
        code = os.waitstatus_to_exitcode(status)
        stderr = Path(err_path).read_text(encoding="utf-8", errors="replace")
        try:
            report = json.loads(Path(report_path).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            report = {}
        loaded = report.get("loaded")
        return Stage(
            name=argv[0], code=code, wall_s=end - launch,
            setup_s=None if loaded is None else loaded - launch,
            rss_mb=usage.ru_maxrss / 1024.0, cpu_s=usage.ru_utime + usage.ru_stime,
            report=report, stderr=stderr,
        )

    def stage_argv(self, name, out) -> list:
        argv = [name, "--config", str(self.config), "--out", str(out)]
        if name in ("train", "infer"):
            argv += ["--method", "all"]
        return argv

    def reference(self) -> None:
        """Time one reference process, launch to exit."""
        launch = now()
        proc = subprocess.Popen([sys.executable, "-c", REFERENCE], cwd=ROOT, env=self.env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        status, _, end = _wait(proc, max(self.remaining(), 1.0))
        if status == 0:
            self.references.append(end - launch)

    def warm_up(self) -> None:
        """One stage process stopped after set-up, so bytecode and file
        caches are filled before anything is timed."""
        self.stage(self.stage_argv("gen-data", self.run_dir / "unused"), setup_only=True)

    def setup_probe(self) -> float | None:
        """Summed set-up time of four stage processes stopped once their
        config is loaded: the set-up one pipeline run pays."""
        total = 0.0
        for name in STAGES:
            s = self.stage(self.stage_argv(name, self.run_dir / "unused"), setup_only=True)
            if s.code != 0 or s.setup_s is None:
                _complain(s)
                return None
            total += s.setup_s
        return total

    def pipeline(self, out, stages=STAGES, trace_id=None, reference=False) -> Pipeline:
        run = Pipeline(stages=[])
        for name in stages:
            if reference:
                self.reference()
            s = self.stage(self.stage_argv(name, out), trace_id=trace_id)
            run.stages.append(s)
            if s.code != 0:
                _complain(s)
                run.problems.append(f"stage {name} exited {s.code}")
                return run
        run.problems = verify_run(out)
        if run.ok:
            run.digest = output_digest(out)
        return run


def _wait(proc, timeout):
    """Wait for a child with a time limit, keeping its resource usage."""
    box = {}

    def waiter():
        _, box["status"], box["usage"] = os.wait4(proc.pid, 0)
        box["end"] = now()

    thread = threading.Thread(target=waiter, daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        proc.kill()
        thread.join()
    proc.returncode = os.waitstatus_to_exitcode(box["status"])
    return box["status"], box["usage"], box["end"]


def _complain(stage: Stage) -> None:
    tail = "\n".join(l for l in stage.stderr.splitlines()
                     if not l.startswith("import time:"))[-2000:]
    print(f"stage {stage.name} exited {stage.code}\n{tail}", file=sys.stderr)


def check_digests(runs) -> None:
    """All runs of one invocation share a seed, so they must agree."""
    first = next((r.digest for r in runs if r.digest), None)
    for r in runs:
        if r.ok and r.digest != first:
            r.problems.append(f"digest {r.digest} differs from {first}")


# ---------------------------------------------------------------------------
# The two kinds of invocation.


def timed(bench: Bench, seconds: float) -> tuple[list, dict]:
    """Untraced pipeline runs for `seconds`; samples of every end-to-end metric."""
    setups = []
    bench.warm_up()
    for _ in range(SETUP_PROBES):
        probe = bench.setup_probe()
        if probe is not None:
            setups.append(probe)
    runs = []
    start = now()
    while len(runs) < MIN_RUNS:
        out = bench.fresh("run")
        runs.append(bench.pipeline(out, reference=True))
        if not runs[-1].ok or runs[-1].duration_s * 1.25 > bench.remaining():
            break
    while (runs[-1].ok and now() - start < seconds
           and runs[-1].duration_s * 1.25 < bench.remaining()):
        runs.append(bench.pipeline(out, stages=("infer", "eval"), reference=True))
    check_digests(runs)
    samples = {name: [] for name in END_TO_END}
    samples["setup_s"] = setups
    for run in runs:
        if not run.ok:
            continue
        samples["infer_s"].append(run.stage("infer").wall_s)
        samples["eval_s"].append(run.stage("eval").wall_s)
        if run.full:
            samples["setup_s"].append(sum(s.setup_s for s in run.stages))
            samples["train_s"].append(run.stage("train").wall_s)
            samples["pipeline_s"].append(run.duration_s)
            samples["peak_rss_mb"].append(max(s.rss_mb for s in run.stages))
    return runs, samples


def traced(bench: Bench) -> tuple[list, dict, list]:
    """One untraced and one traced pipeline run; per-layer metric values
    and the names of metrics whose layer boundary no longer exists."""
    bench.warm_up()
    plain = bench.pipeline(bench.fresh("run"))
    runs = [plain]
    if not plain.ok or plain.duration_s * 1.5 > bench.remaining():
        return runs, {}, []
    run_id = f"{bench.workload}-{bench.seed}-{os.getpid()}"
    run = bench.pipeline(bench.fresh("run"), trace_id=run_id)
    runs.append(run)
    check_digests(runs)
    if not run.ok:
        return runs, {}, []
    reports = [s.report for s in run.stages]
    values, missing = layer_values(reports)
    for metric, package in IMPORT_METRICS:
        values[metric] = sum(import_seconds(s.stderr.splitlines(), package)
                             for s in run.stages)
    values["trace_overhead_s"] = run.duration_s - plain.duration_s
    for name in STAGE_CHECKS:
        s = run.stage(name)
        attributed = sum(self_times(s.report.get("spans", [])).values())
        values[f"stage.{name}.unattributed_s"] = s.wall_s - attributed
    return runs, values, missing


# ---------------------------------------------------------------------------
# Environment and reporting.


PROBE = """
import json, platform
import numpy, scipy
blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version")}))
"""


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text(encoding="ascii").strip()
    except OSError:
        return None


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(bench: Bench) -> dict:
    record = {
        "nproc": bench.nproc,
        "blas_threads": bench.blas_threads,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "loadavg_start": _loadavg(),
    }
    try:
        probe = subprocess.run([sys.executable, "-c", PROBE], env=bench.env, cwd=ROOT,
                               capture_output=True, text=True, timeout=60)
        record.update(json.loads(probe.stdout))
    except (subprocess.TimeoutExpired, ValueError) as exc:
        record["probe_error"] = str(exc)
    return record


def tail(values) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, or the
    maximum when there are too few samples for one."""
    n = len(values)
    if n < 20:
        return "max", max(values)
    pct = math.floor(100 * (1 - 10 / n))
    return f"p{pct}", statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def speed_scale(references) -> float:
    """Factor that takes this invocation's wall times to nominal speed."""
    return NOMINAL_REFERENCE_S / statistics.median(references) if references else 1.0


def summarize(samples: dict, scale: float) -> dict:
    """Median, tail and count of each metric; times at nominal speed."""
    out = {}
    for name, raw in samples.items():
        if raw:
            unit = END_TO_END[name]
            values = [x * scale for x in raw] if unit == "s" else raw
            label, value = tail(values)
            out[name] = {"unit": unit, "median": statistics.median(values),
                         "tail": label, "tail_value": value, "n": len(values),
                         "raw_median": statistics.median(raw), "raw_samples": raw}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long untraced runs and re-runs go on")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = now()
    seed = WORKLOADS[args.workload][1] if args.seed is None else args.seed
    if not 0 <= seed < 2**64:
        parser.error("--seed must be a non-negative 64-bit integer")
    needed = (ROOT / "src" / "seqcal" / "cli.py", ROOT / WORKLOADS[args.workload][0])
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"error: not a seqcal checkout, missing {', '.join(absent)}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{args.workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        bench = Bench(args.workload, seed, run_dir, started)
        env = environment(bench)
        missing = []
        if args.trace:
            runs, values, missing = traced(bench)
            units = per_layer_units()
            metrics = {k: {"value": values[k], "unit": units[k]} for k in units if k in values}
            summary = {}
        else:
            runs, samples = timed(bench, args.seconds)
            summary = summarize(samples, speed_scale(bench.references))
            metrics = {k: {"value": v["median"], "unit": v["unit"]} for k, v in summary.items()}
        env["loadavg_end"] = _loadavg()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(not r.ok for r in runs)
    expected = per_layer_units().keys() - set(missing) if args.trace else END_TO_END.keys()
    correct = failed == 0 and expected <= metrics.keys()
    result = {
        "workload": args.workload, "seed": seed, "trace": args.trace,
        "config": WORKLOADS[args.workload][0], "default_seed": WORKLOADS[args.workload][1],
        "held_out_seed": HELD_OUT_SEED, "environment": env,
        "runs": [{"ok": r.ok, "problems": r.problems, "digest": r.digest,
                  "duration_s": r.duration_s,
                  "stages": {s.name: {"code": s.code, "wall_s": s.wall_s,
                                      "setup_s": s.setup_s, "cpu_s": s.cpu_s,
                                      "rss_mb": s.rss_mb}
                             for s in r.stages}} for r in runs],
        "summary": summary, "metrics": metrics, "missing": missing,
        "reference_s": bench.references, "speed_scale": speed_scale(bench.references),
        "failed_run_share": failed / len(runs),
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{args.workload}-seed{seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {seed} trace {args.trace}: nproc {env['nproc']}, "
          f"blas threads {env['blas_threads']}, numpy {env.get('numpy')}, "
          f"scipy {env.get('scipy')}, {env.get('blas')} {env.get('blas_version')}, "
          f"loadavg {env['loadavg_start']} -> {env['loadavg_end']}")
    for r in runs:
        state = "ok" if r.ok else "FAILED: " + "; ".join(r.problems)
        kind = "run  " if r.full else "rerun"
        print(f"  {kind} {'+'.join(s.name for s in r.stages):26s} {r.duration_s:8.3f} s  "
              f"sha256 {r.digest}  {state}")
    if summary:
        print(f"  reference median {statistics.median(bench.references):.4f} s over "
              f"{len(bench.references)}: times below are x{speed_scale(bench.references):.4f} "
              f"of wall time (nominal {NOMINAL_REFERENCE_S} s)")
    for name, s in summary.items():
        print(f"  {name:12s} [{s['unit']}] median {s['median']:.4f}  "
              f"{s['tail']} {s['tail_value']:.4f}  n={s['n']}  (raw median {s['raw_median']:.4f})")
    print(f"  failed_run_share [ratio] {failed}/{len(runs)} = {failed / len(runs):.4f}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:42s} {m['value']:14.6f} {m['unit']}")
        for name in missing:
            print(f"  {name:42s} missing: layer boundary not found")
    print(f"  result file {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
