"""Run one seqcal CLI stage in this interpreter, as `python -m seqcal.cli` does,
and write a small JSON report for the benchmark.

    python3 perfbench/stage.py --report R.json --launch T [--trace RUN_ID]
        [--setup-only] -- <seqcal cli arguments>

T is the parent's monotonic clock reading just before it started this
process.  The report holds `loaded`, the time `seqcal.cli` was imported and
the run config loaded, and `end`, the time the stage returned.  With
--trace, the layer boundaries are wrapped (see tracing.py) and the spans are
kept in memory and written with the report when the stage ends.  With
--setup-only, the process stops once the config is loaded.
"""

import argparse
import json
import sys

from tracing import Tracer, now


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--report", required=True)
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--trace", default=None, metavar="RUN_ID")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    import seqcal.cli as cli

    marks = {}
    original_load = cli.load_config

    def load_config(path):
        config = original_load(path)
        marks.setdefault("loaded", now())
        return config

    report = {}
    if args.setup_only:
        load_config(cli_args[cli_args.index("--config") + 1])
        code = 0
    else:
        tracer = None
        if args.trace is not None:
            tracer = Tracer(args.trace, f"stage.{cli_args[0]}", args.launch)
            tracer.install()
        cli.load_config = load_config
        try:
            code = cli.main(cli_args)
        finally:
            cli.load_config = original_load
            end = now()
            if tracer is not None:
                tracer.restore()
        report["end"] = end
        if tracer is not None:
            if "loaded" in marks:
                tracer.record("setup", args.launch, marks["loaded"])
            tracer.close(end)
            report.update(tracer.report())
    report["loaded"] = marks.get("loaded")
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
