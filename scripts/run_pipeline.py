"""Run the four pipeline stages back to back for one run config.

Equivalent to calling gen-data, train, infer, and eval by hand; stops at
the first stage that fails and propagates its exit code.
"""

import sys

from seqcal.cli import UsageParser
from seqcal.cli import main as cli_main
from seqcal.errors import ConfigurationError


def main(argv=None):
    parser = UsageParser(
        description="generate data, train, decode, and evaluate in one go"
    )
    parser.add_argument("--config", required=True, help="run config JSON")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--method", default="all",
                        help="methods to train and decode (default: all)")
    try:
        args = parser.parse_args(argv)
    except ConfigurationError as exc:  # a usage error exits 1, as in seqcal
        print(f"error: {exc}", file=sys.stderr)
        return 1

    stages = (
        ["gen-data"],
        ["train", "--method", args.method],
        ["infer", "--method", args.method],
        ["eval"],
    )
    for stage in stages:
        code = cli_main(stage + ["--config", args.config, "--out", args.out])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
