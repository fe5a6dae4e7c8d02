"""Batch command line front-end.

Commands: constants, scan, margins, curvature, stability, geodesics,
counterexample.  Reports are JSON (default) or CSV; every report embeds the
fully resolved run specification, and a fixed seed makes byte-identical
output.  Exit codes: 0 success, 1 an --expect assertion failed, 2 usage or
validation errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import partial
from typing import Iterable, NamedTuple, Optional

import numpy as np

from . import barriers, convexity, geodesics, stability
from .errors import GHConvexError, InvalidParams, NonFiniteReport
from .potential import load_config
from .surfaces import parse_surface

__all__ = ["run", "main"]


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    x = float(v)
    if not math.isfinite(x):
        raise NonFiniteReport(f"the report would hold {x}: the inputs leave the float range")
    return format(x, ".17g")


class _Result(NamedTuple):
    """What a command computed, ready for either report encoding.

    ``sign`` is what --expect is checked against ("positive", "negative",
    or None when neither holds); ``failure`` says why when it does not match.
    """

    body: dict
    header: list[str]
    rows: Optional[Iterable]
    trailer: Optional[str] = None
    sign: Optional[str] = None
    failure: str = ""


def _write_report(args, result: _Result) -> int:
    """Emit the report to --out or stdout, then apply --expect.

    The run spec is the parsed arguments minus the ones that only steer the
    process; commands resolve their arguments in ``args`` before returning.
    A non-finite number in the report raises NonFiniteReport before anything
    is written; strings such as "inf" pass.
    """
    spec = {"command": args.command}
    spec.update((k, v) for k, v in vars(args).items() if k not in ("command", "func", "out"))
    try:
        if args.format == "json":
            text = json.dumps({"runspec": spec, **result.body}, indent=2, sort_keys=True, allow_nan=False) + "\n"
        else:
            lines = ["# runspec: " + json.dumps(spec, sort_keys=True, allow_nan=False), ",".join(result.header)]
            lines += [",".join(_fmt(v) for v in row) for row in result.rows]
            if result.trailer:
                lines.append(result.trailer)
            text = "\n".join(lines) + "\n"
    except ValueError:      # json.dumps refusing NaN or an infinity
        raise NonFiniteReport(
            "the report would hold a non-finite number: the inputs leave the float range"
        ) from None
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    expect = getattr(args, "expect", None)
    if expect is not None and expect != result.sign:
        print(f"expectation failed: {result.failure}", file=sys.stderr)
        return 1
    return 0


def _sign(positive: bool) -> str:
    return "positive" if positive else "negative"


def _surface_from_args(args) -> dict:
    """Surface spec from --surface (JSON text, @file, or family name plus
    family flags like --r/--a/--level).  The family flags move out of args
    into the spec, so the run spec records only the resolved surface; with
    a JSON or @file surface they are a usage error."""
    flags = {
        key: vars(args).pop(key)
        for key in ("r", "a", "level", "offset", "span", "centre", "point", "axis", "normal", "foci")
    }
    flags = {key: val for key, val in flags.items() if val is not None}
    s = args.surface
    if flags and (s.startswith("@") or s.strip().startswith("{")):
        given = ", ".join(f"--{key}" for key in flags)
        raise InvalidParams(f"{given} cannot be combined with a JSON or @file --surface")
    if s.startswith("@"):
        with open(s[1:], "r", encoding="utf-8") as fh:
            return json.load(fh)
    s = s.strip()
    if s.startswith("{"):
        return json.loads(s)
    spec = {"family": s, **flags}
    if "foci" in spec:
        spec["foci"] = json.loads(spec["foci"])
    return spec


def _cmd_constants(args) -> _Result:
    if args.kmax < 2:
        raise InvalidParams(f"--kmax must be >= 2, got {args.kmax}")
    C = barriers.constant_C()
    ks = range(2, args.kmax + 1)
    rk = dict(zip(ks, barriers.constants_Rk(ks)))
    return _Result(
        {"C": C, "R_k": {str(k): v for k, v in rk.items()}},
        ["constant", "k", "value"],
        [["C", "", _fmt(C)]] + [["R_k", k, _fmt(v)] for k, v in rk.items()],
    )


def _cmd_scan(args) -> _Result:
    config = load_config(args.config)
    args.surface = _surface_from_args(args)
    surface = parse_surface(args.surface)
    sampling = convexity.ScanSampling(grid=(args.grid, args.grid), random=args.random, seed=args.seed)
    report = convexity.convexity_scan(
        config, surface, args.k, sampling, keep_samples=(args.format == "csv")
    )
    wanted = {"positive": "StrictlyConvex", "negative": "Violated"}.get(args.expect)
    return _Result(
        report.to_dict(),
        ["p0", "p1", "x", "y", "z", "eigensum", "scale"],
        report.samples_table,
        trailer=f"# verdict: {report.verdict}, min_eigensum: {_fmt(report.min_eigensum)}, "
        f"samples: {report.samples}, skipped: {report.skipped}",
        sign={"StrictlyConvex": "positive", "Violated": "negative"}.get(report.verdict),
        failure=f"verdict {report.verdict}, wanted {wanted}",
    )


def _cmd_margins(args) -> _Result:
    if args.direction is not None and args.family != "plane":
        raise InvalidParams(f"--direction applies only to --family plane, not {args.family}")
    config = load_config(args.config)
    params = np.linspace(args.pmin, args.pmax, args.steps)
    if args.family == "codim2":
        curves = barriers.codim2_margin_curve(config, params, args.dirs, args.seed)
        return _Result(
            {
                "threshold": curves[0].threshold,
                "curve": [
                    {
                        "parameter": c.parameter,
                        "min_minor1": c.min_minor1,
                        "max_det_aux": c.max_det_aux,
                    }
                    for c in curves
                ],
            },
            ["parameter", "min_minor1", "max_det_aux", "threshold"],
            [[c.parameter, c.min_minor1, c.max_det_aux, c.threshold] for c in curves],
        )
    if args.family == "sphere":
        curves = barriers.sphere_margin_curve(config, params, args.dirs, args.seed)
    elif args.family == "cylinder":
        curves = barriers.cylinder_margin_curve(config, params, n_samples=args.dirs, seed=args.seed)
    else:
        direction = args.direction or [0.0, 0.0, 1.0]
        curves = barriers.plane_margin_curve(config, direction, params, n_samples=args.dirs, seed=args.seed)
    return _Result(
        {
            "threshold": curves[0].threshold,
            "curve": [
                {"parameter": c.parameter, "min_margin": c.margin, "argmin": [float(v) for v in c.argmin]}
                for c in curves
            ],
        },
        ["parameter", "min_margin", "threshold", "argmin_x", "argmin_y", "argmin_z"],
        [[c.parameter, c.margin, c.threshold, *c.argmin] for c in curves],
    )


def _cmd_curvature(args) -> _Result:
    seg = stability.SegmentSurface(load_config(args.config), args.i, args.j)
    half = (seg.a - seg.delta) * (1.0 - 1e-9)
    ts = np.linspace(-half, half, args.samples)
    K, M, N, terms = stability.mn_decomposition_batch(seg, ts)
    rows = np.column_stack([ts, K, M, N, *terms])
    profile = [
        {
            "t": float(r[0]),
            "K": float(r[1]),
            "M": float(r[2]),
            "N": float(r[3]),
            "terms": [float(v) for v in r[4:]],
        }
        for r in rows
    ]
    return _Result({"a": seg.a, "profile": profile}, ["t", "K", "M", "N", "I", "II", "III", "IV"], rows)


def _cmd_stability(args) -> _Result:
    seg = stability.SegmentSurface(load_config(args.config), args.i, args.j)
    min_k, argmin_t = stability.strong_stability_scan(seg, args.samples)
    holds, s, threshold = stability.sufficient_condition(seg)
    return _Result(
        {
            "min_K": min_k,
            "argmin_t": argmin_t,
            "strongly_stable": bool(min_k > 0),
            "sufficient_condition": {"holds": holds, "s": s if np.isfinite(s) else None, "threshold": threshold},
        },
        ["min_K", "argmin_t", "sufficient_holds", "s", "threshold"],
        [[min_k, argmin_t, holds, s if np.isfinite(s) else "inf", threshold]],
        sign=_sign(min_k > 0),
        failure=f"min_K = {min_k:.6g}",
    )


def _cmd_geodesics(args) -> _Result:
    config = load_config(args.config)
    strategy = geodesics.SeedStrategy(random=args.random, seed=args.seed)
    points = geodesics.find_critical_points(config, strategy)
    return _Result(
        {"critical_points": [p.to_dict() for p in points]},
        ["x", "y", "z", "residual", "length", "in_hull", "sig_neg", "sig_zero", "sig_pos"],
        [[*p.x, p.residual, p.length, p.in_hull, *p.hessian_signature] for p in points],
    )


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise GHConvexError(f"not a rational number: {text!r}") from exc


def _cmd_counterexample(args) -> _Result:
    a = _parse_rational(args.a)
    eps = _parse_rational(args.eps)
    m = _parse_rational(args.m)
    value = stability.counterexample_closed_form(a, eps, m)
    args.a, args.eps, args.m = str(a), str(eps), str(m)
    exact = str(value)
    try:
        approx = float(value)
    except OverflowError as exc:
        raise InvalidParams("the closed form is beyond the float range") from exc
    return _Result(
        {"value": exact, "value_float": approx, "certifies_instability": bool(approx > 0)},
        ["a", "eps", "m", "value", "value_float"],
        [[str(a), str(eps), str(m), exact, _fmt(approx)]],
        sign=_sign(approx > 0),
        failure=f"closed form = {exact}",
    )


def _int_at_least(low: int, what: str, text: str) -> int:
    """argparse type, bound to (low, what) by functools.partial: an integer
    >= low, else the usage error "expected <what> integer"."""
    try:
        n = int(text)
    except ValueError:
        n = low - 1
    if n < low:
        raise argparse.ArgumentTypeError(f"expected {what} integer, got {text!r}")
    return n


_count = partial(_int_at_least, 1, "a positive")     # sample and step counts
_seed = partial(_int_at_least, 0, "a non-negative")  # numpy's generators reject negative seeds


def _finite(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = np.nan
    if not np.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


def _vec3(text: str) -> list[float]:
    parts = [float(p) for p in text.replace(",", " ").split()]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three numbers")
    return parts


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ghconvex",
        description="Convexity, stability and geodesic diagnostics for "
        "multi-centre Gibbons-Hawking geometries.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        if seed:
            p.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")

    p = sub.add_parser("constants", help="threshold constants C and R_k")
    p.add_argument("--kmax", type=int, default=10)
    common(p)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("scan", help="k-convexity scan of a barrier surface")
    p.add_argument("--config", required=True, help="potential JSON file")
    p.add_argument("--surface", required=True, help='JSON text, @file, or family name (e.g. "sphere" with --r)')
    p.add_argument("--k", type=int, default=3, choices=[1, 2, 3])
    p.add_argument("--grid", type=int, default=128, help="grid is NxN over the chart box")
    p.add_argument("--random", type=int, default=10 ** 4)
    p.add_argument("--expect", choices=["positive", "negative"])
    p.add_argument("--r", type=float, help="sphere/cylinder/ellipsoid radius parameter")
    p.add_argument("--a", type=float, help="two-foci half distance")
    p.add_argument("--level", type=float, help="multi-foci level L")
    p.add_argument("--offset", type=float, help="plane offset")
    p.add_argument("--span", type=float, help="cylinder/plane chart half-width")
    p.add_argument("--centre", type=_vec3, help="sphere centre")
    p.add_argument("--point", type=_vec3, help="cylinder axis point")
    p.add_argument("--axis", type=_vec3, help="cylinder axis direction")
    p.add_argument("--normal", type=_vec3, help="plane normal")
    p.add_argument("--foci", help="JSON list of focus points")
    common(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("margins", help="margin curve across radii/offsets")
    p.add_argument("--config", required=True)
    p.add_argument("--family", required=True, choices=["sphere", "cylinder", "plane", "codim2"])
    p.add_argument("--pmin", type=_finite, required=True, help="first swept radius/offset")
    p.add_argument("--pmax", type=_finite, required=True, help="last swept radius/offset")
    p.add_argument("--steps", type=_count, default=50)
    p.add_argument("--dirs", type=_count, default=512, help="samples per swept value")
    p.add_argument("--direction", type=_vec3, help="plane direction (default e3)")
    common(p)
    p.set_defaults(func=_cmd_margins)

    p = sub.add_parser("curvature", help="Gaussian curvature profile over a segment")
    p.add_argument("--config", required=True)
    p.add_argument("--i", type=int, required=True, help="first endpoint centre index")
    p.add_argument("--j", type=int, required=True, help="second endpoint centre index")
    p.add_argument("--samples", type=_count, default=200)
    common(p, seed=False)
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("stability", help="strong-stability scan of a segment surface")
    p.add_argument("--config", required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--expect", choices=["positive", "negative"])
    common(p, seed=False)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("geodesics", help="invariant closed geodesics (critical points)")
    p.add_argument("--config", required=True)
    p.add_argument("--random", type=int, default=1000, help="random hull seeds")
    common(p)
    p.set_defaults(func=_cmd_geodesics)

    p = sub.add_parser("counterexample", help="closed-form instability certificate")
    p.add_argument("--a", required=True, help="half distance (rational, e.g. 1 or 1/2)")
    p.add_argument("--eps", required=True, help="satellite offset (rational)")
    p.add_argument("--m", default="0", help="mass term (rational)")
    p.add_argument("--expect", choices=["positive", "negative"])
    common(p, seed=False)
    p.set_defaults(func=_cmd_counterexample)

    return ap


def run(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    print(f"seed: {getattr(args, 'seed', 0)}", file=sys.stderr)
    try:
        # no floating-point warnings: _write_report refuses non-finite results by name
        with np.errstate(all="ignore"):
            result = args.func(args)
        return _write_report(args, result)
    except (GHConvexError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
