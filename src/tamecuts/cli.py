"""Command-line interface.

Every command emits a deterministic machine-readable report: identical argv
(including the seed) produces byte-identical output.  JSON is the canonical
format; CSV is a flat projection with the columns

    command,params,value,lower,upper,method,seed

Exit codes: 0 success, 2 argument errors (message on stderr), 3 resource
budget exhausted (the report still carries the best partial bounds).

The ball cache directory resolves from --cache-dir, then the
TAMECUT_CACHE_DIR environment variable, then ./.tamecut-cache.  Only
``ball --write-cache`` (which writes the entry of the ball it grew) and the
``cache`` command (list, clear) touch it; no command reads balls from it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import BudgetExceededError, ElementNotFoundError, InputError
from .fourier import TrigPoly, a_norm_torus, dirichlet_l1, hardy_ratio
from .groups import GroupSpec, BallCache, ball, coset_section
from .opnorm import FinSuppFun, lambda_norm_lower, rd_fit, rd_test
from .cuts import (
    cut_ball,
    cut_bs,
    cut_lamplighter,
    cut_pq,
    cut_semidirect_zd,
    fit_growth,
    lamplighter_cut_family,
    pq_cut_family,
    semidirect_cut_family,
    verify_cut,
)

DEFAULT_CACHE_DIR = "./.tamecut-cache"


def _cache_dir(args) -> str:
    if getattr(args, "cache_dir", None):
        return args.cache_dir
    return os.environ.get("TAMECUT_CACHE_DIR", DEFAULT_CACHE_DIR)


def _parse_matrix(text: str):
    try:
        rows = [[int(x) for x in row.split(",")] for row in text.split(";")]
    except ValueError as exc:
        raise InputError(f"cannot parse matrix {text!r}; "
                         f"expected e.g. '1,1;0,1'") from exc
    return rows


def _group_from_args(args) -> GroupSpec:
    name = args.group
    if name == "free_abelian":
        return GroupSpec.free_abelian(args.d or 1)
    if name == "semidirect":
        if not args.matrix:
            raise InputError("--matrix is required for semidirect")
        return GroupSpec.semidirect_zd(_parse_matrix(args.matrix))
    if name == "pq":
        return GroupSpec.pq(args.p or 2, args.q or 3)
    if name == "lamplighter":
        return GroupSpec.lamplighter(args.p or 2)
    if name == "bs":
        return GroupSpec.baumslag_solitar(args.p or 2, args.q or 3)
    raise InputError(f"unknown group {name!r}")


def _cut_from_args(args):
    fam = args.family
    if fam == "lamplighter":
        return cut_lamplighter(args.p or 2, args.n)
    if fam == "pq":
        return cut_pq(args.p or 2, args.q or 3, args.n)
    if fam == "semidirect":
        if not args.matrix:
            raise InputError("--matrix is required for semidirect")
        return cut_semidirect_zd(_parse_matrix(args.matrix), args.n)
    if fam == "bs":
        return cut_bs(args.p or 2, args.q or 3, args.n)
    if fam == "ball":
        return cut_ball(_group_from_args(args), args.n)
    raise InputError(f"unknown cut family {fam!r}")


def _cut_result(cut) -> dict:
    size = cut.support.size if hasattr(cut.support, "size") else None
    return {
        "family": cut.provenance.get("construction"),
        "index": cut.index,
        "support_size": size,
        "subgroup_level": cut.subgroup_only,
        "certificate": cut.certificate.to_dict(),
        "provenance": _jsonable(cut.provenance),
    }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


# ---------------------------------------------------------------------------
# command handlers; each returns a list of result dicts


def _run_dirichlet(args):
    cert = dirichlet_l1(args.n, tol=args.tol)
    return [{"name": "dirichlet_l1", "params": {"n": args.n},
             "certificate": cert.to_dict(), "value": cert.value}]


def _run_anorm(args):
    if args.support:
        pts = [int(x) for x in args.support.split(",")]
        poly = TrigPoly.indicator(pts, dim=1)
        params = {"support": sorted(pts)}
    else:
        poly = TrigPoly.box(args.box, dim=args.d or 1)
        params = {"box": args.box, "d": args.d or 1}
    cert = a_norm_torus(poly, tol=args.tol)
    return [{"name": "a_norm_torus", "params": params,
             "certificate": cert.to_dict(), "value": cert.value}]


def _run_hardy(args):
    out = []
    if args.set:
        pts = [int(x) for x in args.set.split(",")]
        out.append({"name": "hardy_ratio", "params": {"set": sorted(pts)},
                    "value": hardy_ratio(pts, tol=args.tol)})
        return out
    if args.random < 1:
        raise InputError("hardy needs --set or --random COUNT")
    if not 2 <= args.size_max <= 2 * args.span + 1:
        raise InputError(f"--size-max must be between 2 and 2*span+1 = "
                         f"{2 * args.span + 1}, got {args.size_max}")
    if args.random * args.size_max > args.budget:  # before any set is drawn
        raise BudgetExceededError(
            f"hardy budget {args.budget} exceeded: {args.random} sets of up "
            f"to {args.size_max} frequencies")
    import numpy as np
    rng = np.random.default_rng(args.seed)
    values = []
    for i in range(args.random):
        size = int(rng.integers(2, args.size_max + 1))
        pts = rng.choice(np.arange(-args.span, args.span + 1), size=size,
                         replace=False)
        values.append(hardy_ratio([int(x) for x in pts], tol=args.tol))
    out.append({"name": "hardy_ratio_random",
                "params": {"count": args.random, "span": args.span,
                           "size_max": args.size_max},
                "min": min(values), "max": max(values),
                "values": values})
    return out


def _run_ball(args):
    group = _group_from_args(args)
    bn = ball(group, args.n, budget=args.budget)
    if args.write_cache:
        BallCache(_cache_dir(args)).store(group, args.n, bn)
    section = coset_section(group, args.n, budget=args.budget)
    sizes = bn.level_sizes()
    return [{"name": "ball", "params": {"group": group.to_dict(), "n": args.n},
             "size": len(bn),
             "boundary_size": sizes[-1] - (sizes[-2] if args.n else 0),
             "level_sizes": list(sizes),
             "coset_section_size": len(section)}]


def _run_lambda(args):
    group = _group_from_args(args)
    bm = ball(group, args.ball, budget=args.budget)
    f = FinSuppFun.indicator(group, bm)
    est = lambda_norm_lower(f, args.radius, tol=args.tol, seed=args.seed,
                            budget=args.budget)
    return [{"name": "lambda_norm_lower",
             "params": {"group": group.to_dict(), "ball": args.ball,
                        "radius": args.radius},
             "estimate": est.to_dict(), "value": est.lower}]


def _rd_per_n(rows) -> dict:
    """The largest ratio and the count of unconverged samples per radius."""
    best, unconverged = {}, {}
    for row in rows:
        best[row.n] = max(best.get(row.n, 0.0), row.ratio)
        unconverged[row.n] = unconverged.get(row.n, 0) + (not row.converged)
    return {"max_ratio_per_n": {str(k): v for k, v in sorted(best.items())},
            "unconverged_per_n": {str(k): v
                                  for k, v in sorted(unconverged.items())}}


def _run_rd_fit(args):
    group = _group_from_args(args)
    rows = []
    for n in range(1, args.nmax + 1):
        try:
            rows.extend(rd_test(group, n, args.samples, seed=args.seed,
                                tol=args.tol, budget=args.budget))
        except BudgetExceededError as exc:
            raise BudgetExceededError(str(exc), radius_reached=n - 1,
                                      partial=_rd_per_n(rows)) from exc
    c, a = rd_fit(rows)
    return [{"name": "rd_fit",
             "params": {"group": group.to_dict(), "nmax": args.nmax,
                        "samples": args.samples},
             **_rd_per_n(rows), "C": c, "a": a, "value": a}]


def _run_cut(args):
    cut = _cut_from_args(args)
    return [{"name": "cut", "params": {"family": args.family, "n": args.n},
             "cut": _cut_result(cut), "value": cut.certificate.upper}]


def _run_verify(args):
    cut = _cut_from_args(args)
    report = verify_cut(cut)
    return [{"name": "verify_cut", "params": {"family": args.family, "n": args.n},
             "cut": _cut_result(cut), "report": report.to_dict(),
             "value": 1.0 if report.covers_ball else 0.0}]


def _run_fit_growth(args):
    fam = args.family
    indices = range(1, args.nmax + 1)
    if fam == "lamplighter":
        family = lamplighter_cut_family(args.p or 2, indices)
    elif fam == "pq":
        family = pq_cut_family(args.p or 2, args.q or 3, indices)
    elif fam == "semidirect":
        if not args.matrix:
            raise InputError("--matrix is required for semidirect")
        family = semidirect_cut_family(_parse_matrix(args.matrix), indices)
    else:
        raise InputError(f"fit-growth does not support family {fam!r}")
    c, a = fit_growth(family)
    uppers = {str(cut.index): cut.certificate.upper for cut in family}
    return [{"name": "fit_growth",
             "params": {"family": fam, "nmax": args.nmax},
             "uppers": uppers, "C": c, "a": a, "value": a}]


def _run_cache(args):
    store = BallCache(_cache_dir(args))
    if args.clear:
        removed = store.clear()
        return [{"name": "cache", "params": {"action": "clear"},
                 "removed": removed, "value": float(removed)}]
    return [{"name": "cache", "params": {"action": "list"},
             "directory": str(store.directory), "entries": store.entries(),
             "value": float(len(store.entries()))}]


# ---------------------------------------------------------------------------
# report emission


def _flatten_params(params: dict) -> str:
    return ";".join(f"{k}={params[k]}" for k in sorted(params))


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        lines = ["command,params,value,lower,upper,method,seed"]
        for res in report["results"]:
            cert = (res.get("certificate") or res.get("estimate")
                    or res.get("cut", {}).get("certificate")
                    or res.get("report", {}).get("norm_upper") or {})
            lower = cert.get("lower", cert.get("l2_lower", ""))
            upper = cert.get("upper", cert.get("l1_upper", ""))
            method = cert.get("method", res.get("name", ""))
            lines.append(",".join([
                report["command"],
                _flatten_params(res.get("params", {})),
                repr(res.get("value", "")),
                repr(lower) if lower != "" else "",
                repr(upper) if upper != "" else "",
                str(method),
                str(report["config"]["seed"]),
            ]))
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_HANDLERS = {
    "dirichlet": _run_dirichlet,
    "anorm": _run_anorm,
    "hardy": _run_hardy,
    "ball": _run_ball,
    "lambda": _run_lambda,
    "rd-fit": _run_rd_fit,
    "cut": _run_cut,
    "verify": _run_verify,
    "fit-growth": _run_fit_growth,
    "cache": _run_cache,
}


def _add_common(sub):
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="write the report here instead of stdout")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--tol", type=float, default=1e-6)
    sub.add_argument("--budget", type=int, default=5_000_000)
    sub.add_argument("--cache-dir", default=None)


def _add_group_flags(sub):
    sub.add_argument("--group", default="free_abelian",
                     choices=("free_abelian", "semidirect", "pq",
                              "lamplighter", "bs"))
    sub.add_argument("--d", type=int, default=None)
    sub.add_argument("--p", type=int, default=None)
    sub.add_argument("--q", type=int, default=None)
    sub.add_argument("--matrix", default=None, help="integer matrix, e.g. '1,1;0,1'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tamecut",
        description="Word-metric balls, multiplier norm certificates, and "
                    "tame-cut families on concrete groups.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("dirichlet", help="Dirichlet kernel L1 norm")
    s.add_argument("--n", type=int, required=True)
    _add_common(s)

    s = subs.add_parser("anorm", help="Fourier-algebra norm of an indicator")
    s.add_argument("--support", default=None, help="comma-separated frequencies")
    s.add_argument("--box", type=int, default=1)
    s.add_argument("--d", type=int, default=1)
    _add_common(s)

    s = subs.add_parser("hardy", help="a-norm of a frequency set over log size")
    s.add_argument("--set", default=None, help="comma-separated frequencies")
    s.add_argument("--random", type=int, default=0)
    s.add_argument("--span", type=int, default=4096)
    s.add_argument("--size-max", type=int, default=512)
    _add_common(s)

    s = subs.add_parser("ball", help="enumerate a word-metric ball")
    _add_group_flags(s)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--write-cache", action="store_true")
    _add_common(s)

    s = subs.add_parser("lambda", help="lower bound the reduced C* norm of a flat ball function")
    _add_group_flags(s)
    s.add_argument("--ball", type=int, default=1, help="support radius of the flat function")
    s.add_argument("--radius", type=int, default=32, help="truncation radius")
    _add_common(s)

    s = subs.add_parser("rd-fit", help="rapid-decay ratio samples and exponent fit")
    _add_group_flags(s)
    s.add_argument("--nmax", type=int, default=6)
    s.add_argument("--samples", type=int, default=25)
    _add_common(s)

    s = subs.add_parser("cut", help="construct a tame cut")
    s.add_argument("--family", required=True,
                   choices=("lamplighter", "pq", "semidirect", "bs", "ball"))
    _add_group_flags(s)
    s.add_argument("--n", type=int, required=True)
    _add_common(s)

    s = subs.add_parser("verify", help="construct a cut and verify coverage")
    s.add_argument("--family", required=True,
                   choices=("lamplighter", "pq", "semidirect", "bs", "ball"))
    _add_group_flags(s)
    s.add_argument("--n", type=int, required=True)
    _add_common(s)

    s = subs.add_parser("fit-growth", help="growth exponent of a cut family")
    s.add_argument("--family", required=True,
                   choices=("lamplighter", "pq", "semidirect"))
    _add_group_flags(s)
    s.add_argument("--nmax", type=int, default=5)
    _add_common(s)

    s = subs.add_parser("cache", help="list or clear the ball cache")
    s.add_argument("--clear", action="store_true")
    _add_common(s)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "tol", 1.0) <= 0:
        print("error: --tol must be positive", file=sys.stderr)
        return 2
    if getattr(args, "budget", 1) <= 0:
        print("error: --budget must be positive", file=sys.stderr)
        return 2
    report = {
        "tool": "tamecuts",
        "version": __version__,
        "command": args.command,
        "config": {k: v for k, v in sorted(vars(args).items())
                   if k not in ("out",)},
    }
    try:
        report["results"] = _HANDLERS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ElementNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        report["error"] = {"type": "budget", "message": str(exc),
                           "radius_reached": exc.radius_reached}
        partial = exc.partial
        if hasattr(partial, "to_dict"):
            partial = partial.to_dict()
        if isinstance(partial, dict):
            report["error"]["partial"] = partial
        report["results"] = []
        _emit(report, args)
        return 3
    _emit(report, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
