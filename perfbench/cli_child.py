"""One CLI command with the benchmark's spans installed (traced run only).

Usage: python3 -X importtime perfbench/cli_child.py SPANS_FILE COMMAND [ARGS...]

The program is imported before anything of the benchmark, so -X importtime
times its import as a plain ``python -m monogamy.cli`` would.  The spans are
written to SPANS_FILE when the command returns; the exit code is the CLI's.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import monogamy  # noqa: E402
import monogamy.cli  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    tracer = spans.Tracer()
    tracer.install({name: getattr(monogamy, name) for name in spans.MODULES})
    tracer.enabled = True
    try:
        return monogamy.cli.main(sys.argv[2:])
    finally:
        tracer.enabled = False
        spans.dump(tracer.spans, sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
