"""One workload process: set up, run the closed loop, check, report JSON.

Started by run.py from the repository root with ``src`` on PYTHONPATH:

    python bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

The last stdout line is a JSON object with the monotonic time at which the
first timed job was about to start (``ready``) and, unless --setup-only, the
raw measurements.  One client, no threads: each job starts when the previous
one has ended.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import spans
import workloads


def run_job(wl, job, recorder=None):
    t0 = time.perf_counter()
    try:
        result, error = wl.run(job, recorder), None
    except Exception as exc:            # a failing job is counted, never fatal
        result, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, result, error


def judge(wl, done) -> list[str]:
    """Check every (job, result, error) after timing; return the failures."""
    failures = []
    for job, result, error in done:
        if error is None:
            try:
                wl.check(job, result)
            except workloads.CheckFailed as exc:
                error = f"check failed: {exc}"
            except Exception as exc:    # a result the check cannot even read
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"job {job['index']} ({job['kind']}): {error}")
    return failures


def timed(wl, seconds: float) -> dict:
    """Whole cycles of the mix, stopping at the cycle boundary nearest to
    ``seconds`` so that every run holds the same job proportions."""
    latencies, kinds, done = [], [], []
    start = time.perf_counter()
    j = 0
    while True:
        c0 = time.perf_counter()
        for _ in range(wl.cycle_len):
            job = wl.jobs[j % len(wl.jobs)]
            dt, result, error = run_job(wl, job)
            latencies.append(dt)
            kinds.append(job["kind"])
            done.append((job, result, error))
            j += 1
        now = time.perf_counter()
        if now - start + 0.5 * (now - c0) > seconds:
            break
    window = now - start
    return {"latencies_ms": [1e3 * t for t in latencies], "kinds": kinds, "window_s": window,
            "attempted": len(done), "failures": judge(wl, done)}


def _import_times() -> dict:
    """Cumulative ``-X importtime`` of ghconvex and of the outermost scipy
    imports inside it, in ms."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ghconvex"],
                          capture_output=True, text=True, timeout=120, check=True)
    entries = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative) / 1e3))
    ghconvex_ms = scipy_ms = 0.0
    ancestors: list[tuple[int, str]] = []
    for level, name, ms in reversed(entries):   # a parent is printed after its children
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a == "scipy" or a.startswith("scipy.") for _, a in ancestors):
            scipy_ms += ms
        if name == "ghconvex":
            ghconvex_ms = ms
        ancestors.append((level, name))
    return {"cli.import_ghconvex_ms": ghconvex_ms, "cli.import_scipy_ms": scipy_ms}


def _interpreter_floor_ms(repeats: int = 3) -> float:
    """A bare interpreter that imports numpy: the part of a CLI call no
    ghconvex change can remove."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=120)
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


def layer_metrics(recorders, ratios) -> tuple[dict, list[str]]:
    """Per-layer metrics of one workload cycle: counters from the first
    traced pass, self times as the median over passes.  A counter that
    never fired is missing here and reads 0."""
    first = recorders[0]
    problems = [f"counters of traced pass {i} differ from pass 0"
                for i, r in enumerate(recorders[1:], 1)
                if (r.counters, r.maxima) != (first.counters, first.maxima)]
    c = first.counters
    selfs = [r.self_ms() for r in recorders]
    m: dict[str, float] = dict(c)
    for layer, *_ in spans.LAYERS:
        m[layer + ".self_ms"] = statistics.median(s.get(layer, 0.0) for s in selfs)

    def ratio(a, b):
        return m[a] / m[b] if m.get(b) else 0.0

    m["potential.exclusion_rows_per_jet_row"] = ratio("potential.min_centre_distance.rows",
                                                      "potential.raw_jet.rows")
    m["convexity.clustered_share"] = ratio("convexity.clustered_rows",
                                           "convexity.eigvals3_batch.rows")
    m["geodesics.points_per_seed"] = ratio("geodesics.find_critical_points.points",
                                           "geodesics.find_critical_points.seeds")
    m["surfaces.multifoci_max_rel_residual"] = first.maxima.get(
        "surfaces.multifoci_max_rel_residual", 0.0)
    m["trace.overhead_fraction"] = statistics.median(ratios) - 1.0
    return m, problems


def traced(wl, seconds: float) -> dict:
    """Passes over the workload's first cycle, each run once untraced and
    once traced (alternating which goes first), stopping at the pass boundary
    nearest to ``seconds``.  Counters must repeat exactly from pass to pass."""
    cycle = wl.jobs[: wl.cycle_len]
    recorders, ratios, done = [], [], []
    start = time.perf_counter()
    p = 0
    while True:
        p0 = time.perf_counter()
        busy = {}
        for tracing in ((False, True) if p % 2 == 0 else (True, False)):
            rec = spans.Recorder() if tracing else None
            if rec is not None:
                rec.install()
            total = 0.0
            for i, job in enumerate(cycle):
                if rec is not None:
                    rec.job = i
                dt, result, error = run_job(wl, job, rec)
                total += dt
                done.append((job, result, error))
            if rec is not None:
                rec.uninstall()
                recorders.append(rec)
            busy[tracing] = total
        ratios.append(busy[True] / busy[False])
        p += 1
        now = time.perf_counter()
        if now - start + 0.5 * (now - p0) > seconds:
            break
    metrics, problems = layer_metrics(recorders, ratios)
    metrics.update(_import_times())
    metrics["cli.interpreter_floor_ms"] = _interpreter_floor_ms()
    return {"layers": metrics, "absent": recorders[0].absent, "passes": p,
            "attempted": len(done), "failures": judge(wl, done), "problems": problems}


def peak_rss_mb(wl) -> float:
    """Peak resident set of the processes that ran ghconvex: this worker, or
    for CLI jobs its waited-for children (the worker there only holds
    their outputs until they are checked)."""
    who = resource.RUSAGE_CHILDREN if wl.subprocess_jobs else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.MIXES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    wl = workloads.make(args.workload, args.seed, os.getcwd())
    try:
        wl.warm_up()
        ready = time.monotonic()
        if args.setup_only:
            out = {}
        elif args.trace:
            out = traced(wl, args.seconds)
        else:
            out = timed(wl, args.seconds)
    finally:
        wl.close()
    out["ready"] = ready
    out["peak_rss_mb"] = peak_rss_mb(wl)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
