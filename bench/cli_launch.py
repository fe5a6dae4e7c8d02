"""Run one ghconvex CLI invocation with the benchmark's layer wrappers.

Usage: python bench/cli_launch.py SPANS_JSON CLI_ARGS...

Behaves like ``python -m ghconvex.cli CLI_ARGS...`` (same output and exit
code) and writes the recorded spans and counters to SPANS_JSON.
"""

import sys

import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    rec = spans.Recorder()
    rec.install()
    from ghconvex import cli

    try:
        return cli.run(argv)
    except SystemExit as exc:           # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        rec.dump(out)


if __name__ == "__main__":
    sys.exit(main())
