"""Command-line interface.

Every command emits a deterministic machine-readable report: identical argv
(including the seed) produces byte-identical output.  JSON is the canonical
format; CSV is a flat projection with the columns

    command,params,value,lower,upper,method,seed

written by ``csv.writer``: a field holding a comma (a dict or list in
``params``) is double-quoted, so every row has seven fields, and a missing
value is an empty field.

The group flags --d, --p and --q default to d = 1, p = 2 and q = 3 only
when they are omitted; an explicit value, 0 included, reaches the group's
own validation.

Exit codes: 0 success, 2 argument errors (message on stderr), 3 resource
budget exhausted (the report still carries the best partial bounds).

The ball cache directory resolves from --cache-dir, then the
TAMECUT_CACHE_DIR environment variable, then ./.tamecut-cache.  Only
``ball --write-cache`` (which writes the entry of the ball it grew) and the
``cache`` command (list, clear) touch it; no command reads balls from it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

from . import __version__
from .errors import BudgetExceededError, ElementNotFoundError, InputError
from .fourier import TrigPoly, a_norm_torus, dirichlet_l1, hardy_ratio
from .groups import GroupSpec, BallCache, ball, coset_section
from .opnorm import FinSuppFun, lambda_norm_lower, rd_fit, rd_test
from .cuts import (
    CutFamily,
    cut_ball,
    cut_bs,
    cut_lamplighter,
    cut_pq,
    cut_semidirect_zd,
    fit_growth,
    verify_cut,
)

DEFAULT_CACHE_DIR = "./.tamecut-cache"


def _cache_dir(args) -> str:
    return args.cache_dir or os.environ.get("TAMECUT_CACHE_DIR", DEFAULT_CACHE_DIR)


def _matrix(args):
    if not args.matrix:
        raise InputError("--matrix is required for semidirect")
    try:
        return [[int(x) for x in row.split(",")] for row in args.matrix.split(";")]
    except ValueError as exc:
        raise InputError(f"cannot parse matrix {args.matrix!r}; "
                         f"expected e.g. '1,1;0,1'") from exc


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise InputError(f"cannot parse {flag} {text!r}; "
                         f"expected comma-separated integers") from exc


def _p_q(args) -> tuple[int, int]:
    """--p and --q, defaulting to 2 and 3 only when omitted (0 stays 0)."""
    return (2 if args.p is None else args.p, 3 if args.q is None else args.q)


# one entry per --group choice: args -> GroupSpec
_GROUPS = {
    "free_abelian": lambda a: GroupSpec.free_abelian(1 if a.d is None else a.d),
    "semidirect": lambda a: GroupSpec.semidirect_zd(_matrix(a)),
    "pq": lambda a: GroupSpec.pq(*_p_q(a)),
    "lamplighter": lambda a: GroupSpec.lamplighter(_p_q(a)[0]),
    "bs": lambda a: GroupSpec.baumslag_solitar(*_p_q(a)),
}

# one entry per --family choice: (args, index n) -> Cut
_CUTS = {
    "lamplighter": lambda a, n: cut_lamplighter(_p_q(a)[0], n),
    "pq": lambda a, n: cut_pq(*_p_q(a), n),
    "semidirect": lambda a, n: cut_semidirect_zd(_matrix(a), n),
    "bs": lambda a, n: cut_bs(*_p_q(a), n),
    "ball": lambda a, n: cut_ball(_GROUPS[a.group](a), n),
}


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
    if args.support is not None:
        pts = _int_list(args.support, "--support")
        poly = TrigPoly.indicator(pts, dim=1)
        params = {"support": sorted(pts)}
    else:
        poly = TrigPoly.box(args.box, dim=args.d)
        params = {"box": args.box, "d": args.d}
    cert = a_norm_torus(poly, tol=args.tol)
    return [{"name": "a_norm_torus", "params": params,
             "certificate": cert.to_dict(), "value": cert.value}]


def _run_hardy(args):
    out = []
    if args.set is not None:
        pts = _int_list(args.set, "--set")
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
    group = _GROUPS[args.group](args)
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
    group = _GROUPS[args.group](args)
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
    group = _GROUPS[args.group](args)
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
    cut = _CUTS[args.family](args, args.n)
    return [{"name": "cut", "params": {"family": args.family, "n": args.n},
             "cut": _cut_result(cut), "value": cut.certificate.upper}]


def _run_verify(args):
    cut = _CUTS[args.family](args, args.n)
    report = verify_cut(cut)
    return [{"name": "verify_cut", "params": {"family": args.family, "n": args.n},
             "cut": _cut_result(cut), "report": report.to_dict(),
             "value": 1.0 if report.covers_ball else 0.0}]


def _run_fit_growth(args):
    family = CutFamily(tuple(_CUTS[args.family](args, n)
                             for n in range(1, args.nmax + 1)))
    c, a = fit_growth(family)
    uppers = {str(cut.index): cut.certificate.upper for cut in family}
    return [{"name": "fit_growth",
             "params": {"family": args.family, "nmax": args.nmax},
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


def _field(value) -> str:
    return "" if value is None else repr(value)


def _emit(report: dict, args, code: int) -> int:
    """Write the report; ``code`` on success, 2 if --out cannot be written."""
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        rows = csv.writer(buf, lineterminator="\n")
        rows.writerow(["command", "params", "value", "lower", "upper",
                       "method", "seed"])
        for res in report["results"]:
            cert = (res.get("certificate") or res.get("estimate")
                    or res.get("cut", {}).get("certificate") or {})
            rows.writerow([
                report["command"],
                _flatten_params(res.get("params", {})),
                _field(res.get("value")),
                _field(cert.get("lower")),
                _field(cert.get("upper", cert.get("l1_upper"))),
                str(cert.get("method", res.get("name", ""))),
                str(report["config"]["seed"]),
            ])
        text = buf.getvalue()
    if not args.out:
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write report to {args.out}: {exc}", file=sys.stderr)
        return 2
    return code


def _common_flags(p) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--budget", type=int, default=5_000_000)
    p.add_argument("--cache-dir", default=None)


def _group_flags(p) -> None:
    p.add_argument("--group", default="free_abelian", choices=tuple(_GROUPS))
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--matrix", default=None, help="integer matrix, e.g. '1,1;0,1'")


def _dirichlet_flags(p) -> None:
    _common_flags(p)
    p.add_argument("--n", type=int, required=True)


def _anorm_flags(p) -> None:
    _common_flags(p)
    p.add_argument("--support", default=None, help="comma-separated frequencies")
    p.add_argument("--box", type=int, default=1)
    p.add_argument("--d", type=int, default=1)


def _hardy_flags(p) -> None:
    _common_flags(p)
    p.add_argument("--set", default=None, help="comma-separated frequencies")
    p.add_argument("--random", type=int, default=0)
    p.add_argument("--span", type=int, default=4096)
    p.add_argument("--size-max", type=int, default=512)


def _ball_flags(p) -> None:
    _group_flags(p)
    _common_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--write-cache", action="store_true")


def _lambda_flags(p) -> None:
    _group_flags(p)
    _common_flags(p)
    p.add_argument("--ball", type=int, default=1, help="support radius of the flat function")
    p.add_argument("--radius", type=int, default=32, help="truncation radius")


def _rd_fit_flags(p) -> None:
    _group_flags(p)
    _common_flags(p)
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--samples", type=int, default=25)


def _cut_flags(p) -> None:
    _group_flags(p)
    _common_flags(p)
    p.add_argument("--family", required=True, choices=tuple(_CUTS))
    p.add_argument("--n", type=int, required=True)


def _fit_growth_flags(p) -> None:
    _group_flags(p)
    _common_flags(p)
    p.add_argument("--family", required=True,
                   choices=("lamplighter", "pq", "semidirect"))
    p.add_argument("--nmax", type=int, default=5)


def _cache_flags(p) -> None:
    _common_flags(p)
    p.add_argument("--clear", action="store_true")


# one entry per command: name -> (help text, flag-adder, handler)
_COMMANDS = {
    "dirichlet": ("Dirichlet kernel L1 norm", _dirichlet_flags, _run_dirichlet),
    "anorm": ("Fourier-algebra norm of an indicator", _anorm_flags, _run_anorm),
    "hardy": ("a-norm of a frequency set over log size", _hardy_flags, _run_hardy),
    "ball": ("enumerate a word-metric ball", _ball_flags, _run_ball),
    "lambda": ("lower bound the reduced C* norm of a flat ball function",
               _lambda_flags, _run_lambda),
    "rd-fit": ("rapid-decay ratio samples and exponent fit", _rd_fit_flags, _run_rd_fit),
    "cut": ("construct a tame cut", _cut_flags, _run_cut),
    "verify": ("construct a cut and verify coverage", _cut_flags, _run_verify),
    "fit-growth": ("growth exponent of a cut family", _fit_growth_flags,
                   _run_fit_growth),
    "cache": ("list or clear the ball cache", _cache_flags, _run_cache),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The tamecut parser with the subparser of ``command`` only, or of
    every command when ``command`` is None (root --help, --version and an
    argv that names no command)."""
    parser = argparse.ArgumentParser(
        prog="tamecut",
        description="Word-metric balls, multiplier norm certificates, and "
                    "tame-cut families on concrete groups.")
    parser.add_argument("--version", action="version", version=__version__)
    # the metavar keeps the root usage line, which argparse prints with
    # "unrecognized arguments", listing every command
    subs = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{%s}" % ",".join(_COMMANDS))
    for name in _COMMANDS if command is None else (command,):
        text, flags, _ = _COMMANDS[name]
        flags(subs.add_parser(name, help=text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    if not 0 < args.tol < math.inf:  # also rejects nan
        print("error: --tol must be finite and positive", file=sys.stderr)
        return 2
    if args.budget <= 0:
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
        report["results"] = _COMMANDS[args.command][2](args)
    except (InputError, ElementNotFoundError) as exc:
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
        return _emit(report, args, 3)
    return _emit(report, args, 0)


if __name__ == "__main__":
    sys.exit(main())
