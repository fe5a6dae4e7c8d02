"""CLI output pinned byte for byte.

Each case in ``tests/golden/cases.json`` runs through ``cli.run`` in process,
from the repository root, and must reproduce its stored exit code, its
stderr and ``tests/golden/<name>.out``, the exact stdout.  The goldens change
only on purpose: after an intended output change, regenerate them from the
repository root with

    PYTHONPATH=src python tests/test_golden.py --regenerate [NAME...]

and review the diff.  Named cases are rewritten alone; with no name, every
case is.  New cases go into cases.json (name and argv; the regeneration
fills in exit code and stderr).
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from ghconvex.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def run_case(argv: list[str]) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_matches_golden(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    out, err, code = run_case(case["argv"])
    assert (code, err) == (case["exit"], case["stderr"])
    assert out.encode() == (GOLDEN / f"{case['name']}.out").read_bytes()


def regenerate(names: list[str]) -> None:
    """Rewrite the named cases, or every case when names is empty."""
    unknown = set(names) - {case["name"] for case in CASES}
    if unknown:
        sys.exit(f"no such golden case: {', '.join(sorted(unknown))}")
    os.chdir(ROOT)
    for case in CASES:
        if names and case["name"] not in names:
            continue
        out, case["stderr"], case["exit"] = run_case(case["argv"])
        (GOLDEN / f"{case['name']}.out").write_bytes(out.encode())
    (GOLDEN / "cases.json").write_text(json.dumps(CASES, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regenerate [NAME...]")
    regenerate(sys.argv[2:])
