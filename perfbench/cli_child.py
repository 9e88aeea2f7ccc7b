"""Run one ``grothq`` command with every layer traced.

Usage: python perfbench/cli_child.py SPANS_FILE -- <grothq arguments>

The command's stdout and exit code are those of ``python -m grothq.cli``;
the spans go to SPANS_FILE as one JSON list, written once when the command
ends.  ``grothq`` must be importable (``PYTHONPATH=src``).
"""

import json
import sys

from tracer import Tracer


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: cli_child.py SPANS_FILE -- <grothq arguments>", file=sys.stderr)
        return 2
    spans_path, args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    from grothq import cli
    tracer.recording = True
    try:
        return cli.dispatch(args)
    finally:
        tracer.recording = False
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
