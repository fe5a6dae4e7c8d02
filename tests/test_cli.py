"""Batch front-end: subcommands, exit codes, report formats, determinism."""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghconvex
from ghconvex.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "two.json"
    path.write_text(
        json.dumps({"m": 0.0, "points": [{"p": [0, 0, 1]}, {"p": [0, 0, -1]}]})
    )
    return str(path)


def run_json(capsys, argv):
    rc = run(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_constants_default_table(capsys):
    rc, doc = run_json(capsys, ["constants"])
    assert rc == 0
    assert 5.06 <= doc["C"] <= 5.08
    assert sorted(doc["R_k"]) == sorted(str(k) for k in range(2, 11))
    assert doc["runspec"]["command"] == "constants"


def test_constants_csv_layout(capsys):
    rc = run(["constants", "--kmax", "3", "--format", "csv"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0].startswith("# runspec: ")
    assert out[1] == "constant,k,value"
    assert out[2].startswith("C,,5.06")
    assert len(out) == 5  # two header lines, then C, R_2, R_3


def test_counterexample_exact_value(capsys):
    rc, doc = run_json(
        capsys, ["counterexample", "--a", "1", "--eps", "1/10", "--m", "0"]
    )
    assert rc == 0
    assert doc["value"] == "2988"
    assert doc["value_float"] == 2988.0
    assert doc["certifies_instability"] is True


def test_counterexample_expectation_exit_codes(capsys):
    args = ["counterexample", "--a", "1", "--eps", "1/10", "--m", "0"]
    assert run(args + ["--expect", "positive"]) == 0
    capsys.readouterr()
    assert run(args + ["--expect", "negative"]) == 1


def test_scan_json_and_expectations(cfg_file, capsys):
    base = [
        "scan",
        "--config",
        cfg_file,
        "--surface",
        "sphere",
        "--r",
        "3.0",
        "--k",
        "1",
        "--grid",
        "24",
        "--random",
        "300",
    ]
    rc, doc = run_json(capsys, base)
    assert rc == 0
    assert doc["verdict"] == "StrictlyConvex"
    assert doc["min_eigensum"] > 0
    assert doc["runspec"]["surface"] == {"family": "sphere", "r": 3.0}
    assert run(base + ["--expect", "positive"]) == 0
    capsys.readouterr()
    assert run(base + ["--expect", "negative"]) == 1
    capsys.readouterr()


def test_scan_surface_json_text_and_file(cfg_file, tmp_path, capsys):
    spec = {"family": "ellipsoid2", "a": 1.0, "r": 0.5}
    rc, doc = run_json(
        capsys,
        ["scan", "--config", cfg_file, "--surface", json.dumps(spec), "--k", "1",
         "--grid", "16", "--random", "100"],
    )
    assert rc == 0 and doc["verdict"] == "StrictlyConvex"
    sfile = tmp_path / "surf.json"
    sfile.write_text(json.dumps(spec))
    rc2, doc2 = run_json(
        capsys,
        ["scan", "--config", cfg_file, "--surface", f"@{sfile}", "--k", "1",
         "--grid", "16", "--random", "100"],
    )
    assert rc2 == 0 and doc2["min_eigensum"] == doc["min_eigensum"]
    # family flags belong in the spec: beside a JSON surface they would be ignored
    rc3 = run(["scan", "--config", cfg_file, "--surface", f"@{sfile}", "--a", "2",
               "--centre", "0,0,1", "--grid", "8", "--random", "20"])
    assert rc3 == 2
    assert "--a, --centre cannot be combined" in capsys.readouterr().err


def test_scan_seed_goes_to_stderr(cfg_file, capsys):
    rc = run(
        ["scan", "--config", cfg_file, "--surface", "sphere", "--r", "4.0",
         "--k", "1", "--grid", "8", "--random", "50", "--seed", "5"]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "seed: 5" in captured.err


def test_margins_report(cfg_file, capsys):
    rc, doc = run_json(
        capsys,
        ["margins", "--config", cfg_file, "--family", "sphere",
         "--pmin", "2", "--pmax", "6", "--steps", "5", "--dirs", "128"],
    )
    assert rc == 0
    assert doc["threshold"] == pytest.approx(4.0 / 3.0)
    assert len(doc["curve"]) == 5
    assert all(row["min_margin"] > 0 for row in doc["curve"])


def test_curvature_csv(cfg_file, capsys):
    rc = run(
        ["curvature", "--config", cfg_file, "--i", "0", "--j", "1",
         "--samples", "7", "--format", "csv"]
    )
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[1] == "t,K,M,N,I,II,III,IV"
    assert len(out) == 2 + 7
    K = [float(line.split(",")[1]) for line in out[2:]]
    np.testing.assert_allclose(K, 1.0, atol=1e-9)


def test_stability_report_and_expectation(cfg_file, capsys):
    rc, doc = run_json(
        capsys,
        ["stability", "--config", cfg_file, "--i", "0", "--j", "1",
         "--samples", "150"],
    )
    assert rc == 0
    assert doc["strongly_stable"] is True
    assert doc["min_K"] == pytest.approx(1.0, abs=1e-9)
    assert doc["sufficient_condition"]["holds"] is True
    assert run(
        ["stability", "--config", cfg_file, "--i", "0", "--j", "1",
         "--samples", "150", "--expect", "negative"]
    ) == 1
    capsys.readouterr()


def test_geodesics_report(cfg_file, capsys):
    rc, doc = run_json(
        capsys, ["geodesics", "--config", cfg_file, "--random", "100"]
    )
    assert rc == 0
    assert len(doc["critical_points"]) == 1
    cp = doc["critical_points"][0]
    assert cp["hessian_signature"] == [2, 0, 1]
    assert cp["length"] == pytest.approx(2 * np.pi)


def test_csv_output_is_deterministic(cfg_file, tmp_path, capsys):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    argv = ["scan", "--config", cfg_file, "--surface", "sphere", "--r", "3.0",
            "--k", "2", "--grid", "16", "--random", "200", "--format", "csv",
            "--seed", "7"]
    assert run(argv + ["--out", out1]) == 0
    assert run(argv + ["--out", out2]) == 0
    capsys.readouterr()
    b1, b2 = open(out1, "rb").read(), open(out2, "rb").read()
    assert b1 == b2
    assert b1.decode().startswith("# runspec: ")


def test_out_file_leaves_stdout_empty(cfg_file, tmp_path, capsys):
    out = str(tmp_path / "r.json")
    assert run(["constants", "--out", out]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.load(open(out))["runspec"]["command"] == "constants"


def test_usage_and_validation_errors(cfg_file, tmp_path, capsys):
    assert run(["scan", "--config", "does-not-exist.json", "--surface", "sphere",
                "--r", "1.0"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["geodesics", "--config", str(bad)]) == 2
    capsys.readouterr()
    assert run(["scan", "--config", cfg_file, "--surface", "torus", "--r", "1.0"]) == 2
    capsys.readouterr()
    # plane through the centres cannot separate them
    assert run(["scan", "--config", cfg_file, "--surface",
                json.dumps({"family": "plane", "normal": [1, 0, 0], "offset": 0.0})]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["margins", "--family", "sphere", "--steps", "-1"],
        ["margins", "--family", "sphere", "--dirs", "0"],
        ["margins", "--family", "cylinder", "--dirs", "0"],
        ["margins", "--family", "plane", "--steps", "0"],
        ["margins", "--family", "codim2", "--dirs", "two"],
        ["curvature", "--i", "0", "--j", "1", "--samples", "-3"],
        ["scan", "--surface", "sphere", "--r", "3", "--seed", "-1"],
        ["margins", "--family", "sphere", "--seed", "-1"],
        ["geodesics", "--seed", "-1"],
    ],
)
def test_non_positive_counts_are_usage_errors(cfg_file, argv, capsys):
    """Counts must be >= 1 and seeds >= 0; argparse rejects the rest."""
    extra = ["--pmin", "2", "--pmax", "3"] if argv[0] == "margins" else []
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--config", cfg_file] + extra)
    assert exc.value.code == 2
    wanted = "a non-negative" if "--seed" in argv else "a positive"
    assert f"expected {wanted} integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["scan", "--config", "CFG", "--surface", "sphere", "--r", "3", "--grid", "4", "--random", "-5"],
         "random sample count must be >= 0, got -5"),
        (["geodesics", "--config", "CFG", "--random", "-3"], "random seed count must be >= 0, got -3"),
        (["constants", "--kmax", "1"], "--kmax must be >= 2, got 1"),
        (["margins", "--config", "CFG", "--family", "cylinder", "--direction", "1,0,0",
          "--pmin", "2", "--pmax", "3"], "--direction applies only to --family plane, not cylinder"),
        (["margins", "--config", "CFG", "--family", "sphere", "--pmin", "0", "--pmax", "1", "--steps", "2"],
         "points must be nonzero: the sphere through x has centre 0 and radius |x|"),
        # |x|^2 would overflow
        (["margins", "--config", "CFG", "--family", "cylinder", "--pmin", "2", "--pmax", "1e308", "--steps", "2"],
         "point coordinates must be finite and below 7.74e+153 in magnitude"),
    ],
)
def test_counts_and_flags_the_cli_cannot_honour(cfg_file, argv, message, capsys):
    rc = run([cfg_file if a == "CFG" else a for a in argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"error: {message}" in captured.err


def test_zero_plane_direction_is_named(cfg_file, capsys):
    rc = run(["margins", "--config", cfg_file, "--family", "plane", "--direction", "0,0,0",
              "--pmin", "2", "--pmax", "3", "--steps", "2", "--dirs", "8"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error: plane direction must be nonzero" in err


# runs each argv of sys.argv[1] through cli.run, then reports the exit codes
# and the scipy modules loaded
_SCIPY_PROBE = """
import contextlib, io, json, sys
from ghconvex.cli import run
exits = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        exits.append(run(argv))
print(json.dumps({"exits": exits, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_console_entry_point():
    """The CLI runs as a fresh process, and only hull tests load scipy: the
    golden runs of every other command leave it unloaded, and a fresh
    geodesics run, whose hull tests import it, reproduces its golden."""
    # the child imports the same ghconvex package as this test, installed or not
    src = str(Path(ghconvex.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "ghconvex.cli", "constants", "--kmax", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert "C" in doc and "2" in doc["R_k"]

    others = [case for case in CASES if case["argv"][0] != "geodesics"]
    assert {case["argv"][0] for case in others} == {
        "constants", "counterexample", "stability", "curvature", "margins", "scan"
    }
    probe = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps([case["argv"] for case in others])],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    assert json.loads(probe.stdout) == {"exits": [case["exit"] for case in others], "scipy": []}

    geodesics = next(case for case in CASES if case["name"] == "geodesics-json")
    proc = subprocess.run(
        [sys.executable, "-m", "ghconvex.cli", *geodesics["argv"]],
        capture_output=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "geodesics-json.out").read_bytes()


# stand-ins for one value of a golden argv: signs, zeros, the ends of the
# float range, non-numbers, JSON objects and strings, a missing @file
HOSTILE = [
    "-1", "0", "-0", "1e308", "-1e308", "1e-308", "-1e-308", "nan", "inf", "-inf", "", "abc",
    "{}", "[]", '"abc"', '{"family": "sphere"}', '{"family": "sphere", "r": {}}',
    '{"family": "sphere", "r": 1, "centre": "ab"}', "@missing",
]
# (golden argv with its files made absolute, index of a flag's value)
VALUE_SLOTS = [
    ([str(ROOT / a) if a.startswith("tests/golden/") else a for a in case["argv"]], i)
    for case in CASES
    for i in range(1, len(case["argv"]))
    if case["argv"][i - 1].startswith("--") and not case["argv"][i].startswith("--")
]


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(slot=st.sampled_from(VALUE_SLOTS), token=st.sampled_from(HOSTILE))
def test_hostile_values_end_in_an_exit_code(slot, token):
    """One value of a golden argv replaced by a hostile token: no exception
    escapes cli.run, the exit code is 0, 1 or 2, exit 2 ends stderr with an
    error or usage line, and exit 1 means an --expect failed."""
    argv, i = slot
    argv = argv[:i] + [token] + argv[i + 1:]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:   # argparse's usage errors
            code = exc.code
    last = err.getvalue().rstrip("\n").rsplit("\n", 1)[-1]
    assert code in (0, 1, 2)
    if code == 2:
        assert last.startswith(("error: ", "usage: ")) or ": error: " in last
    if code == 1:
        assert "--expect" in argv


# (key path into tests/golden/three.json, hostile value): the mass, any
# coordinate or any multiplicity replaced by a value at the ends of the float
# range, 2**63, zero, a negative, or JSON's NaN and infinities
THREE = json.loads((GOLDEN / "three.json").read_text(encoding="utf-8"))
CONFIG_SLOTS = [("m",)] + [
    ("points", i, *key) for i in range(3) for key in (("p", 0), ("p", 1), ("p", 2), ("c",))
]
HOSTILE_NUMBERS = [1e308, -1e308, 1e-308, -1e-308, 1e154, 2 ** 63, 0, -1, math.nan, math.inf, -math.inf]
CONFIG_COMMANDS = [
    ["scan", "--surface", "sphere", "--r", "3", "--grid", "4", "--random", "0"],
    ["geodesics", "--random", "5", "--seed", "2"],
    ["stability", "--i", "0", "--j", "1", "--samples", "150"],
    ["curvature", "--i", "0", "--j", "1", "--samples", "7"],
    ["margins", "--family", "sphere", "--pmin", "2", "--pmax", "6", "--steps", "3", "--dirs", "16"],
]


def _no_constant(name):
    raise AssertionError(f"a report printed {name} as a number")


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(slot=st.sampled_from(CONFIG_SLOTS), value=st.sampled_from(HOSTILE_NUMBERS))
def test_hostile_config_values_end_in_an_exit_code(tmp_path_factory, slot, value):
    """One number of a config replaced by a hostile value: scan, geodesics,
    stability, curvature and margins raise nothing through cli.run, not even
    a RuntimeWarning, exit with 0, 1 or 2, and an exit-0 JSON report holds
    no NaN or infinity (json.loads takes NaN, Infinity and -Infinity only
    through parse_constant, and rejects nan and inf)."""
    data = json.loads(json.dumps(THREE))
    *path, last = slot
    node = data
    for key in path:
        node = node[key]
    node[last] = value
    config = tmp_path_factory.getbasetemp() / "hostile.json"
    config.write_text(json.dumps(data), encoding="utf-8")
    for command in CONFIG_COMMANDS:
        argv = [command[0], "--config", str(config), *command[1:]]
        out = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run(argv)
        assert code in (0, 1, 2)
        if code == 0:
            json.loads(out.getvalue(), parse_constant=_no_constant)

