"""Batch front-end: subcommands, exit codes, report formats, determinism."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ghconvex
from ghconvex.cli import run


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


def test_console_entry_point():
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
