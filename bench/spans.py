"""Span recorder for the benchmark's traced runs.

It wraps ghconvex's public layer functions from outside, at every module
binding each one has, so no file of the package changes.  Each wrapped call
records a span (name, start, end, parent span, job id) in memory; counters
record deterministic work counts at the same boundary.  A layer's self time
is its span's duration minus the durations of its child spans.  A function
missing from the package is recorded as absent, never an error.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np

BOOKKEEPING = "trace.bookkeeping"   # counter work, excluded from every layer


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rows(xs) -> int:
    return int(np.atleast_2d(np.asarray(xs)).shape[0])


def clustered_rows(S) -> int:
    """Rows whose spectrum is clustered by the criterion eigvals3_batch uses
    today, 1 - |r| < 1e-9 with r = det((S - q I) / p) / 2; computed here
    from the input matrices."""
    S = np.asarray(S, dtype=float).reshape(-1, 3, 3)
    q = np.trace(S, axis1=1, axis2=2) / 3.0
    B = S - q[:, None, None] * np.eye(3)
    p = np.sqrt((B ** 2).sum(axis=(1, 2)) / 6.0)
    scale = np.abs(S).max(axis=(1, 2))
    spread = p > 1e-14 * np.maximum(1e-300, scale)
    r = np.linalg.det(B[spread] / p[spread, None, None]) / 2.0
    return int((1.0 - np.abs(np.clip(r, -1.0, 1.0)) < 1e-9).sum())


# --- counters per layer: (recorder, name, args, kwargs, result) -------------

def _count_rows(i, name):
    def count(rec, layer, args, kwargs, result):
        rec.count(layer + ".rows", _rows(_arg(args, kwargs, i, name)))
    return count


def _count_raw_jet(rec, layer, args, kwargs, result):
    rows = _rows(_arg(args, kwargs, 3, "xs"))
    rec.count(layer + ".rows", rows)
    rec.count(layer + ".row_centres", rows * np.asarray(_arg(args, kwargs, 1, "points")).shape[0])


def _count_surface_data(rec, layer, args, kwargs, result):
    surface = _arg(args, kwargs, 0, "surface")
    rec.count(layer + ".rows", _rows(_arg(args, kwargs, 1, "params")))
    if type(surface).__name__ == "MultiFociEllipsoid":
        X = result[0]
        F = np.sqrt(((X[:, None, :] - surface.foci[None, :, :]) ** 2).sum(axis=2)).sum(axis=1)
        rec.maximum("surfaces.multifoci_max_rel_residual",
                    float(np.abs(F - surface.level).max() / surface.level))


def _count_scan(rec, layer, args, kwargs, result):
    rec.count(layer + ".samples", result.samples)
    rec.count(layer + ".skipped", result.skipped)


def _count_eigvals(rec, layer, args, kwargs, result):
    S = _arg(args, kwargs, 0, "S")
    rec.count(layer + ".rows", np.asarray(S).reshape(-1, 9).shape[0])
    rec.count("convexity.clustered_rows", clustered_rows(S))


def _count_critical(rec, layer, args, kwargs, result):
    from ghconvex.geodesics import SeedStrategy

    config = _arg(args, kwargs, 0, "config")
    strategy = args[1] if len(args) > 1 else kwargs.get("seeds", SeedStrategy())
    k = config.k
    seeds = 0
    if k > 1:
        seeds = (k * (k - 1) // 2 * strategy.midpoints
                 + k * (k - 1) * (k - 2) // 6 * strategy.centroids + strategy.random)
    rec.count(layer + ".seeds", seeds)
    rec.count(layer + ".points", len(result))


# (layer name, module, attribute, counter); "Class.method" attributes wrap
# the method on the class.
LAYERS = [
    ("potential.phi_jet_batch", "ghconvex.potential", "phi_jet_batch", _count_rows(1, "xs")),
    ("potential.raw_jet", "ghconvex.potential", "raw_jet", _count_raw_jet),
    ("potential.min_centre_distance", "ghconvex.potential",
     "PointConfiguration.min_centre_distance", _count_rows(1, "xs")),
    ("surfaces.surface_data_batch", "ghconvex.surfaces", "surface_data_batch", _count_surface_data),
    ("surfaces.lifted_sff_batch", "ghconvex.surfaces", "lifted_sff_batch", _count_rows(1, "X")),
    ("convexity.convexity_scan", "ghconvex.convexity", "convexity_scan", _count_scan),
    ("convexity.eigvals3_batch", "ghconvex.convexity", "eigvals3_batch", _count_eigvals),
    ("geodesics.find_critical_points", "ghconvex.geodesics", "find_critical_points",
     _count_critical),
    ("geodesics.gradient_scale", "ghconvex.geodesics", "gradient_scale", None),
    ("geodesics.in_convex_hull", "ghconvex.geodesics", "in_convex_hull", None),
    ("stability.SegmentSurface", "ghconvex.stability", "SegmentSurface.__post_init__", None),
    ("stability.strong_stability_scan", "ghconvex.stability", "strong_stability_scan", None),
    ("stability.mn_decomposition_batch", "ghconvex.stability", "mn_decomposition_batch", None),
    ("barriers.constant_C", "ghconvex.barriers", "constant_C", None),
    ("barriers.constant_Rk", "ghconvex.barriers", "constant_Rk", None),
    ("barriers.sphere_margin_curve", "ghconvex.barriers", "sphere_margin_curve", None),
    ("rootfind.bisect_newton", "ghconvex.rootfind", "bisect_newton", None),
    ("cli.run", "ghconvex.cli", "run", None),
]


class Recorder:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []         # [name, start, end, parent, job]
        self.counters: dict[str, int] = {}
        self.maxima: dict[str, float] = {}
        self.absent: list[str] = []
        self.job = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(n)

    def maximum(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, layer: str, original, counter):
        rec = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = rec._open(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                rec._close(span)
            book = rec._open(BOOKKEEPING)
            try:
                rec.count(layer + ".calls", 1)
                if counter is not None:
                    counter(rec, layer, args, kwargs, result)
            finally:
                rec._close(book)
            return result

        return wrapper

    def install(self, layers=LAYERS) -> None:
        """Replace every binding of each layer function in ghconvex."""
        for layer, module, attr, counter in layers:
            try:
                mod = importlib.import_module(module)
            except ImportError:
                self.absent.append(layer)
                continue
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                self.absent.append(layer)
                continue
            wrapper = self._wrap(layer, original, counter)
            if owner_name:
                self._saved.append((owner, name, original))
                setattr(owner, name, wrapper)
                continue
            for mname, m in list(sys.modules.items()):
                if m is None or not (mname == "ghconvex" or mname.startswith("ghconvex.")):
                    continue
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._saved.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def self_ms(self) -> dict[str, float]:
        """Self time per layer name, summed over spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), c in zip(self.spans, child):
            if name != BOOKKEEPING:
                out[name] = out.get(name, 0.0) + 1e3 * (end - start - c)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters,
                       "maxima": self.maxima, "absent": self.absent}, fh)

    def merge_file(self, path: str) -> None:
        """Add the spans and counters another process dumped, as one job."""
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        base = len(self.spans)
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, self.job])
        for name, n in data["counters"].items():
            self.count(name, n)
        for name, v in data["maxima"].items():
            self.maximum(name, v)
        self.absent = sorted(set(self.absent) | set(data["absent"]))
