"""Self-tests of the benchmark itself.

Run from the repository root (takes about half a minute):

    PYTHONPATH=src python3 bench/selftest.py

Checks that equal seeds give identical inputs, that a deliberately corrupted
job result is counted as failed on every workload, that the deterministic
counters repeat exactly across two traced runs, and that a layer function
missing from the package is recorded as absent rather than crashing.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys

import numpy as np

import spans
import workloads
from worker import judge, run_job

FAILURES: list[str] = []


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{': ' + detail if detail else ''}")
    if not ok:
        FAILURES.append(name)


def same_specs(a: list[dict], b: list[dict]) -> bool:
    return len(a) == len(b) and all(
        x.keys() == y.keys() and all(np.array_equal(x[k], y[k]) for k in x) for x, y in zip(a, b)
    )


def test_seeded_inputs() -> None:
    for name in workloads.MIXES:
        a, b = workloads.generate(name, 7, 3), workloads.generate(name, 7, 3)
        c = workloads.generate(name, 8, 3)
        report(f"{name}: equal seeds give identical inputs", same_specs(a, b))
        report(f"{name}: another seed gives other inputs", not same_specs(a, c))


def _corrupt(kind: str, result):
    """A plausible but wrong result of the given job kind."""
    if kind.startswith(("sphere", "foci")):
        return dataclasses.replace(result, min_eigensum=result.min_eigensum * (1 + 1e-6) + 1e-6)
    if kind.startswith("crit"):
        return result[:-1]
    return subprocess.CompletedProcess(result.args, result.returncode,
                                       result.stdout.replace(b"2988", b"2989"), result.stderr)


def test_corrupted_results_fail(root: str) -> None:
    for name, pick in (("scan-dense", 0), ("scan-degenerate", 0), ("scan-degenerate", 2),
                       ("geodesics", 0), ("cli-cold", 1)):
        wl = workloads.make(name, 3, root)
        try:
            job = wl.jobs[pick]
            _, result, error = run_job(wl, job)
            clean = judge(wl, [(job, result, error)])
            bad = judge(wl, [(job, _corrupt(job["kind"], result), None)])
        finally:
            wl.close()
        report(f"{name} {job['kind']}: clean result passes", not clean, "; ".join(clean))
        report(f"{name} {job['kind']}: corrupted result counted as failed", len(bad) == 1,
               "; ".join(bad))


def _traced_counters(wl, jobs):
    rec = spans.Recorder()
    rec.install()
    try:
        for i, job in enumerate(jobs):
            rec.job = i
            wl.run(job, rec)
    finally:
        rec.uninstall()
    return rec.counters, rec.maxima


def test_counters_repeat(root: str) -> None:
    for name, count in (("scan-dense", 3), ("scan-degenerate", 3), ("geodesics", 3),
                        ("cli-cold", 6)):
        wl = workloads.make(name, 5, root)
        try:
            jobs = wl.jobs[:count]
            first, second = _traced_counters(wl, jobs), _traced_counters(wl, jobs)
        finally:
            wl.close()
        report(f"{name}: deterministic counters repeat across two traced runs",
               first == second and bool(first[0]), f"{len(first[0])} counters")


def test_absent_layer() -> None:
    rec = spans.Recorder()
    rec.install([("potential.fused_jet", "ghconvex.potential", "fused_jet", None),
                 ("gone.module", "ghconvex.no_such_module", "f", None)])
    rec.uninstall()
    report("missing layer functions are recorded as absent",
           rec.absent == ["potential.fused_jet", "gone.module"], str(rec.absent))


def main() -> int:
    root = os.getcwd()
    test_seeded_inputs()
    test_absent_layer()
    test_corrupted_results_fail(root)
    test_counters_repeat(root)
    print(f"{len(FAILURES)} self-test(s) failed" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
