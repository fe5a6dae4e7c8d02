"""The benchmark's four workloads: seeded inputs, jobs and independent checks.

Input generation (``generate``) uses numpy only and is a pure function of the
seed and the job index, so equal seeds give identical inputs.  ghconvex sees
only the prepared inputs.  Every job result is checked through a route that
does not reuse the one being timed: theorem-backed verdicts, ``eigvalsh`` of
the scalar lifted form, ``phi_jet`` at reported critical points, closed forms
for the CLI constants.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np

SAMPLES = 128 * 128 + 10 ** 4          # default ScanSampling
SPHERE_FACTOR = 5.1                    # radius / max|p_i|, beyond C = 5.065...
MARGIN_FACTOR = 1.34                   # sphere margins are positive beyond 4/3 max|p_i|
FOCI_LEVEL = 3.6                       # criterion 7's equilateral 3-foci level
CLI_TIMEOUT_S = 60.0

# Job mixes, one cycle each.  The majority type holds the median and the
# minority (slowest) type the 90th percentile; in scan-degenerate the two
# latency bands overlap, so both are quantiles of the mixture.
MIXES = {
    "scan-dense": ("sphere20", "sphere20", "sphere50"),
    "scan-degenerate": ("foci3", "foci3", "foci2"),
    "geodesics": ("crit6", "crit6", "crit20"),
    # The CSV scan runs twice so that it holds more than the top tenth of
    # latencies: with one in eight, p90 would fall between two job types.
    "cli-cold": (
        "constants", "counterexample", "stability", "curvature",
        "margins", "geodesics", "scan-json", "scan-csv", "scan-csv",
    ),
}
CENTRES = {"sphere20": 20, "sphere50": 50, "crit6": 6, "crit20": 20}
CLI_CENTRES = 6


class CheckFailed(Exception):
    """A job result disagreed with its independent check."""


def need(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# --- input generation (numpy only) ----------------------------------------

def _rng(seed: int, *ids: int) -> np.random.Generator:
    return np.random.default_rng([seed % (1 << 63), *ids])


def generic_centres(rng: np.random.Generator, k: int, masses=(0.0, 1.0), box: float = 3.0,
                    min_sep: float = 0.5):
    """Acceptance-test recipe: centres uniform in [-box, box]^3, pairwise at
    least min_sep apart, multiplicity 1, mass drawn from ``masses``."""
    mass = float(rng.choice(masses))
    pts = np.empty((k, 3))
    have = 0
    while have < k:
        cand = rng.uniform(-box, box, 3)
        if np.all(((pts[:have] - cand) ** 2).sum(axis=1) >= min_sep ** 2):
            pts[have] = cand
            have += 1
    return mass, pts


def _rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def equilateral_foci(side: float = 2.0) -> np.ndarray:
    h = side / math.sqrt(3.0)
    return np.array([[h, 0.0, 0.0], [-h / 2, side / 2, 0.0], [-h / 2, -side / 2, 0.0]])


def job_spec(workload: str, seed: int, index: int) -> dict:
    """Inputs of job ``index``; its type follows the workload's cycle."""
    mix = MIXES[workload]
    kind = mix[index % len(mix)]
    rng = _rng(seed, index)
    spec: dict = {"kind": kind, "index": index}
    if kind.startswith("sphere"):
        # m = 0 only: with m = 1 the lifted spectra of these large spheres are
        # clustered on up to 96% of rows, which is scan-degenerate's subject
        spec["mass"], spec["points"] = generic_centres(rng, CENTRES[kind], masses=(0.0,))
    elif kind in CENTRES:
        spec["mass"], spec["points"] = generic_centres(rng, CENTRES[kind])
    elif kind == "foci3":
        spec["foci"] = equilateral_foci() @ _rotation(rng).T + rng.uniform(-1.0, 1.0, 3)
    elif kind == "foci2":
        spec["a"] = float(rng.uniform(0.5, 2.0))
        spec["r"] = float(rng.uniform(0.2, 2.0))
    elif kind in ("margins", "geodesics", "scan-json", "scan-csv"):
        # one generic configuration per CLI cycle, shared by its three commands
        # (m = 0 for the same reason as the sphere scans above)
        cycle_rng = _rng(seed, index // len(mix), 1)
        spec["mass"], spec["points"] = generic_centres(cycle_rng, CLI_CENTRES, masses=(0.0,))
    return spec


def generate(workload: str, seed: int, cycles: int) -> list[dict]:
    return [job_spec(workload, seed, i) for i in range(cycles * len(MIXES[workload]))]


# --- checks shared by the in-process and CLI routes -------------------------

def _config(mass, points):
    import ghconvex as gh

    return gh.make_config(float(mass), [(p, 1) for p in points])


def check_scan(config, surface, k: int, verdict: str, min_eigensum: float,
               argmin_params, samples: int, skipped: int, expect: str) -> None:
    import ghconvex as gh

    need(verdict == expect, f"verdict {verdict}, expected {expect}")
    need(samples + skipped == SAMPLES, f"samples + skipped = {samples + skipped}")
    S = gh.lifted_sff(config, gh.surface_point(surface, np.asarray(argmin_params, float))).matrix
    ref = float(np.linalg.eigvalsh(S)[:k].sum())
    nrm = float(np.linalg.norm(S))
    need(abs(min_eigensum - ref) <= 1e-9 * nrm,
         f"min_eigensum {min_eigensum!r} vs eigvalsh {ref!r}")
    if expect == "Violated":
        need(ref < -1e-6 * nrm, f"violation {ref!r} not below -1e-6 * {nrm!r}")


def check_critical_points(config, points) -> None:
    """points: iterable of (x, hessian_signature) pairs."""
    import ghconvex as gh

    pts = list(points)
    k = config.k
    need(len(pts) >= k - 1, f"{len(pts)} critical points for k = {k}")
    counts = {(2, 0, 1): 0, (1, 0, 2): 0}
    for x, sig in pts:
        x = np.asarray(x, float)
        jet = gh.phi_jet(config, x)
        d2 = ((config.points - x) ** 2).sum(axis=1)
        scale = 0.5 * float((config.multiplicities / d2).sum())
        need(np.linalg.norm(jet.gradient) <= 1e-10 * scale, f"|grad phi| too large at {x}")
        lam = np.linalg.eigvalsh(jet.hessian)
        tol = 1e-8 * float(np.abs(lam).max())
        own = (int((lam < -tol).sum()), int((np.abs(lam) <= tol).sum()), int((lam > tol).sum()))
        need(own in counts, f"signature {own} is not a nondegenerate saddle")
        need(own == tuple(sig), f"reported signature {tuple(sig)}, recomputed {own}")
        counts[own] += 1
    index_sum = counts[(2, 0, 1)] - counts[(1, 0, 2)]
    need(index_sum == k - 1, f"Poincare-Hopf count {index_sum} != k - 1 = {k - 1}")


def constant_C_reference() -> float:
    """Real root of -x^3 + 4x^2 + 5x + 2 from the companion matrix, polished
    by one Newton step."""
    roots = np.roots([-1.0, 4.0, 5.0, 2.0])
    x = float(roots[np.argmin(np.abs(roots.imag))].real)
    return x - (-x ** 3 + 4 * x ** 2 + 5 * x + 2) / (-3 * x ** 2 + 8 * x + 5)


# --- workloads --------------------------------------------------------------

class Workload:
    """A pool of prepared jobs cycling through the workload's mix."""

    pool_cycles = 32
    subprocess_jobs = False

    def __init__(self, name: str, seed: int, root: str):
        self.name = name
        self.root = root
        self.cycle_len = len(MIXES[name])
        self.jobs = [self.prepare(s) for s in generate(name, seed, self.pool_cycles)]

    def prepare(self, spec: dict) -> dict:
        return spec

    def run(self, job: dict, recorder=None):
        raise NotImplementedError

    def check(self, job: dict, result) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        pass

    def close(self) -> None:
        pass


class ScanWorkload(Workload):
    def prepare(self, spec: dict) -> dict:
        import ghconvex as gh

        job = dict(spec)
        kind = spec["kind"]
        if kind.startswith("sphere"):
            job["config"] = _config(spec["mass"], spec["points"])
            radius = SPHERE_FACTOR * float(np.linalg.norm(spec["points"], axis=1).max())
            job.update(surface=gh.Sphere(radius), k=1, expect="StrictlyConvex")
        elif kind == "foci3":
            job["config"] = _config(0.0, spec["foci"])
            job.update(surface=gh.MultiFociEllipsoid(spec["foci"], FOCI_LEVEL), k=1,
                       expect="Violated")
        else:
            a = spec["a"]
            job["config"] = _config(0.0, [(0.0, 0.0, a), (0.0, 0.0, -a)])
            job.update(surface=gh.TwoFociEllipsoid(a, spec["r"]), k=2, expect="StrictlyConvex")
        return job

    def run(self, job: dict, recorder=None):
        from ghconvex import convexity

        return convexity.convexity_scan(job["config"], job["surface"], job["k"])

    def check(self, job: dict, rep) -> None:
        check_scan(job["config"], job["surface"], job["k"], rep.verdict, rep.min_eigensum,
                   rep.argmin_params, rep.samples, rep.skipped, job["expect"])

    def warm_up(self) -> None:
        from ghconvex import convexity

        for job in self.jobs[: self.cycle_len]:
            convexity.convexity_scan(job["config"], job["surface"], job["k"],
                                     convexity.ScanSampling(grid=(8, 8), random=64))


class GeodesicsWorkload(Workload):
    def prepare(self, spec: dict) -> dict:
        return dict(spec, config=_config(spec["mass"], spec["points"]))

    def run(self, job: dict, recorder=None):
        from ghconvex import geodesics

        return geodesics.find_critical_points(job["config"])

    def check(self, job: dict, points) -> None:
        check_critical_points(job["config"], [(p.x, p.hessian_signature) for p in points])

    def warm_up(self) -> None:
        from ghconvex import geodesics

        geodesics.find_critical_points(self.jobs[0]["config"], geodesics.SeedStrategy(random=10))


class CliWorkload(Workload):
    """Each job is a fresh ``python -m ghconvex.cli`` process, one at a time."""

    pool_cycles = 4
    subprocess_jobs = True

    def __init__(self, name: str, seed: int, root: str):
        self.root = root
        self.work = os.path.join(root, "bench", "_work", str(os.getpid()))
        os.makedirs(self.work, exist_ok=True)
        self.cex = self._write_config("cex", 0.0, [(0, 0, 1.0), (0, 0, -1.0), (0, 0.1, 0)])
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get(
            "PYTHONPATH") else src
        super().__init__(name, seed, root)

    def _write_config(self, stem: str, mass, points) -> str:
        path = os.path.join(self.work, f"{stem}.json")
        data = {"m": float(mass), "points": [{"p": [float(v) for v in p], "c": 1} for p in points]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return os.path.relpath(path, self.root)

    def prepare(self, spec: dict) -> dict:
        kind = spec["kind"]
        job = dict(spec)
        cex = ["--config", self.cex, "--i", "0", "--j", "1"]
        if kind == "constants":
            job["argv"] = ["constants", "--kmax", "10"]
        elif kind == "counterexample":
            job["argv"] = ["counterexample", "--a", "1", "--eps", "1/10", "--expect", "positive"]
        elif kind == "stability":
            job["argv"] = ["stability", *cex, "--expect", "negative"]
        elif kind == "curvature":
            job["argv"] = ["curvature", *cex, "--format", "csv"]
        else:
            job["config"] = _config(spec["mass"], spec["points"])
            cfg = self._write_config(f"cycle{spec['index'] // self.cycle_len}",
                                     spec["mass"], spec["points"])
            rmax = job["rmax"] = float(np.linalg.norm(spec["points"], axis=1).max())
            scan = ["scan", "--config", cfg, "--surface", "sphere",
                    "--r", repr(SPHERE_FACTOR * rmax), "--k", "1"]
            job["argv"] = {
                "margins": ["margins", "--config", cfg, "--family", "sphere",
                            "--pmin", repr(MARGIN_FACTOR * rmax), "--pmax", repr(3.0 * rmax)],
                "geodesics": ["geodesics", "--config", cfg],
                "scan-json": [*scan, "--expect", "positive"],
                "scan-csv": [*scan, "--format", "csv"],
            }[kind]
        return job

    def _spawn(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], cwd=self.root, env=self.env,
                              capture_output=True, timeout=CLI_TIMEOUT_S)

    def run(self, job: dict, recorder=None):
        if recorder is None:
            return self._spawn(["-m", "ghconvex.cli", *job["argv"]])
        spans_file = os.path.join(self.work, "spans.json")
        proc = self._spawn([os.path.join("bench", "cli_launch.py"), spans_file, *job["argv"]])
        recorder.merge_file(spans_file)
        recorder.count("cli.output_bytes", len(proc.stdout))
        return proc

    def check(self, job: dict, proc) -> None:
        import ghconvex as gh

        kind = job["kind"]
        need(proc.returncode == 0, f"{kind}: exit code {proc.returncode}")
        out = proc.stdout.decode()
        if kind == "scan-csv":
            lines = out.splitlines()
            trailer = dict(part.split(": ") for part in lines[-1][2:].split(", "))
            need(trailer["verdict"] == "StrictlyConvex", f"CSV verdict {trailer['verdict']}")
            samples, skipped = int(trailer["samples"]), int(trailer["skipped"])
            need(len(lines) - 3 == samples, f"{len(lines) - 3} CSV rows for {samples} samples")
            need(samples + skipped == SAMPLES, f"samples + skipped = {samples + skipped}")
            return
        if kind == "curvature":
            rows = np.array([[float(v) for v in ln.split(",")] for ln in out.splitlines()[2:]])
            need(rows.shape == (200, 8) and np.all(np.isfinite(rows)), f"curvature rows {rows.shape}")
            t, K = rows[np.argmin(np.abs(rows[:, 0]))][:2]
            jet = gh.phi_jet(_config(0.0, [(0, 0, 1.0), (0, 0, -1.0), (0, 0.1, 0)]), (0.0, 0.0, t))
            ref = jet.hessian[2, 2] / (2 * jet.value ** 2) - jet.gradient[2] ** 2 / jet.value ** 3
            need(abs(K - ref) <= 1e-9 * abs(ref), f"K({t}) = {K!r}, direct {ref!r}")
            need(ref < 0.0, "midpoint curvature is not negative")
            return
        body = json.loads(out)
        if kind == "constants":
            C = constant_C_reference()
            need(abs(body["C"] - C) <= 1e-12 * C, f"C = {body['C']!r}, reference {C!r}")
            need(sorted(body["R_k"], key=int) == [str(k) for k in range(2, 11)], "R_k keys")
        elif kind == "counterexample":
            need(body["value"] == "2988", f"counterexample value {body['value']!r}")
        elif kind == "stability":
            need(body["min_K"] < 0.0 and body["strongly_stable"] is False, "stability verdict")
        elif kind == "margins":
            curve = body["curve"]
            need(len(curve) == 50, f"{len(curve)} margin samples")
            need(abs(body["threshold"] - 4.0 / 3.0 * job["rmax"]) <= 1e-12 * job["rmax"],
                 "sphere threshold")
            need(all(c["min_margin"] > 0.0 for c in curve), "sphere margin not positive")
        elif kind == "geodesics":
            check_critical_points(job["config"], [(p["x"], p["hessian_signature"])
                                                  for p in body["critical_points"]])
        elif kind == "scan-json":
            surface = gh.Sphere(SPHERE_FACTOR * job["rmax"])
            check_scan(job["config"], surface, 1, body["verdict"], body["min_eigensum"],
                       body["argmin"]["params"], body["samples"], body["skipped"],
                       "StrictlyConvex")

    def warm_up(self) -> None:
        # a fresh checkout has no __pycache__: compile it before timing
        self._spawn(["-m", "ghconvex.cli", "constants", "--kmax", "2"])

    def close(self) -> None:
        import shutil

        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:                 # another worker still uses it
            pass


KINDS = {
    "scan-dense": ScanWorkload,
    "scan-degenerate": ScanWorkload,
    "geodesics": GeodesicsWorkload,
    "cli-cold": CliWorkload,
}


def make(name: str, seed: int, root: str) -> Workload:
    return KINDS[name](name, seed, root)
