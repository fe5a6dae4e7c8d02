"""ghconvex benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload scan-dense --seed 1 --seconds 20 --trace 0

The workloads the benchmark gates on, metric names and units are listed in
BENCHMARK.json; job mixes, the per-layer to end-to-end mapping and the first
baseline are in bench/baseline.json.  Each workload runs in a fresh worker process
(bench/worker.py) as a closed loop with one client.  With --trace 0 the
worker is launched several times and ``setup_s`` is the median time from
launch to the start of the first timed job; the last launch also measures
the timed window.  With --trace 1 one worker records per-layer spans and
counters instead.  Every job result is checked; the last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_LAUNCHES = 3
WORKER_TIMEOUT_S = 150.0


def launch(root: str, args, setup_only: bool = False) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.decode().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run.py: {args.workload} worker exited with code {proc.returncode}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready"] - t0
    return out


def end_to_end(setups: list[float], out: dict) -> dict:
    lat = out["latencies_ms"]
    ok = out["attempted"] - len(out["failures"])
    return {
        "setup_s": statistics.median(setups),
        "jobs_per_s": ok / out["window_s"],
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8],
        "peak_rss_mb": out["peak_rss_mb"],
        "ok_fraction": ok / out["attempted"],
    }


def main() -> None:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    # scan-degenerate and geodesics stay runnable by name although
    # BENCHMARK.json no longer lists them
    ap.add_argument("--workload", required=True, choices=sorted(workloads.MIXES))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(root, "src", "ghconvex", "__init__.py")):
        raise SystemExit("run.py: src/ghconvex not found; run from the repository root")

    if args.trace:
        out = launch(root, args)
        values = out["layers"]
        wanted = spec["per_layer"]
        print(f"{args.workload}: {out['passes']} traced passes over one cycle; "
              f"absent layers: {out['absent'] or 'none'}")
        for problem in out["problems"]:
            print(f"{args.workload}: {problem}")
    else:
        setups = [launch(root, args, setup_only=True)["setup_s"]
                  for _ in range(SETUP_LAUNCHES - 1)]
        out = launch(root, args)
        setups.append(out["setup_s"])
        values = end_to_end(setups, out)
        wanted = spec["end_to_end"]
        lat = sorted(out["latencies_ms"])
        beyond = sum(t > values["latency_p90_ms"] for t in lat)
        print(f"{args.workload}: {len(lat)} jobs in {out['window_s']:.2f} s, "
              f"{beyond} beyond p90; setup launches {', '.join(f'{s:.3f}' for s in setups)} s")
        for kind in dict.fromkeys(out["kinds"]):
            own = sorted(t for t, k in zip(out["latencies_ms"], out["kinds"]) if k == kind)
            print(f"{args.workload}: {kind}: {len(own)} jobs, {own[0]:.1f} / "
                  f"{statistics.median(own):.1f} / {own[-1]:.1f} ms min / median / max")
    for failure in out["failures"]:
        print(f"{args.workload}: FAILED {failure}")
    failed = len(out["failures"])
    result = {
        "correct": failed == 0 and not out.get("problems"),
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0) if args.trace else values[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
