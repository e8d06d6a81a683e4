"""Run one mpsl CLI command under the tracer and save what it recorded.

Usage: python3 bench/cli_traced.py DATA.json OP_ID -- <mpsl arguments>

The traced twin of ``python -m mpsl <mpsl arguments>``: same process start
and imports, plus the wrappers.  The exit code is the CLI's.
"""

import sys

import tracer


def main() -> int:
    data_path, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_traced.py DATA.json OP_ID -- <mpsl arguments>")
    t = tracer.Tracer()
    t.install()
    from mpsl import cli

    t.op = int(op_id)
    t.paused = False
    try:
        return cli.main(argv)
    finally:
        t.paused = True
        t.dump(data_path)


if __name__ == "__main__":
    sys.exit(main())
