"""Output checks: the reference from the seed commit, plus independent oracles.

Reference comparison walks the recorded report.  Exit codes, integers,
strings, booleans and nulls (sizes, ``level_sizes``, ``checked``,
``covers_ball``, ``consistent``, method tags, witnesses) must match exactly.
Floats must match to a relative tolerance of ``FLOAT_RTOL``, far above the
~1e-13 drift expected from reordering the same arithmetic and far below any
change of result.  The power-iteration diagnostics in ``IGNORED`` describe
how a bound was found, not the bound, so a solver change may alter them.
Keys absent from the reference are ignored, so a report may gain fields.

The oracles share no code with the package:

* Z^d ball sizes: |B_n| = sum_k 2^k C(d,k) C(n,k) at every level;
* every certificate has lower <= upper, and every spectral estimate has
  l2_lower <= lower <= l1_upper;
* the bracket of ``anorm --box r --d 2`` (the certificate, or the partial
  bracket of an exit-3 report) contains L_r^2, the square of the exact 1-D
  Dirichlet Lebesgue constant.
"""

from __future__ import annotations

import json
import math

FLOAT_RTOL = 1e-9
FLOAT_ATOL = 1e-12
IGNORED = frozenset({"iterations", "residual", "converged"})


def _diff(ref, got, path: str) -> str | None:
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return f"{path}: expected an object"
        for key, val in ref.items():
            if key in IGNORED:
                continue
            if key not in got:
                return f"{path}.{key}: missing"
            bad = _diff(val, got[key], f"{path}.{key}")
            if bad:
                return bad
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{path}: expected a list of {len(ref)}"
        for i, (a, b) in enumerate(zip(ref, got)):
            bad = _diff(a, b, f"{path}[{i}]")
            if bad:
                return bad
        return None
    if isinstance(ref, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if abs(got - ref) <= FLOAT_ATOL + FLOAT_RTOL * abs(ref):
            return None
        return f"{path}: {got!r} != {ref!r}"
    if type(ref) is not type(got) or ref != got:
        return f"{path}: {got!r} != {ref!r}"
    return None


def zd_ball_size(d: int, n: int) -> int:
    return sum(2 ** k * math.comb(d, k) * math.comb(n, k) for k in range(d + 1))


def dirichlet_lebesgue(r: int) -> float:
    """||D_r||_1 = 1/(2r+1) + (2/pi) sum_{k=1}^{r} tan(pi k/(2r+1)) / k."""
    big_n = 2 * r + 1
    return 1 / big_n + (2 / math.pi) * math.fsum(
        math.tan(math.pi * k / big_n) / k for k in range(1, r + 1))


def _flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def _brackets(node):
    if isinstance(node, dict):
        if "lower" in node and "upper" in node:
            yield node["lower"], node["upper"]
        if "l1_upper" in node and "l2_lower" in node:
            yield node["l2_lower"], node["lower"]
            yield node["lower"], node["l1_upper"]
        for val in node.values():
            yield from _brackets(val)
    elif isinstance(node, list):
        for val in node:
            yield from _brackets(val)


def oracles(argv: list[str], report: dict) -> str | None:
    for lo, up in _brackets(report):
        if not lo <= up:
            return f"bracket out of order: [{lo}, {up}]"
    if argv[0] == "ball" and _flag(argv, "--group") == "free_abelian":
        d, n = int(_flag(argv, "--d")), int(_flag(argv, "--n"))
        want = [zd_ball_size(d, r) for r in range(n + 1)]
        if report["results"][0]["level_sizes"] != want:
            return "Z^d level sizes differ from sum_k 2^k C(d,k) C(n,k)"
    if argv[0] == "anorm" and "--box" in argv and _flag(argv, "--d") == "2":
        cert = (report["results"][0]["certificate"] if report["results"]
                else report["error"]["partial"])
        target = dirichlet_lebesgue(int(_flag(argv, "--box"))) ** 2
        if not cert["lower"] <= target <= cert["upper"]:
            return f"bracket [{cert['lower']}, {cert['upper']}] misses L_r^2 = {target}"
    return None


def check(argv: list[str], exit_code: int, text: str, ref: dict | None) -> str | None:
    """None when the operation's output is correct, else the first fault."""
    if ref is None:
        return "no reference recorded for this operation"
    if exit_code != ref["exit"]:
        return f"exit code {exit_code}, reference {ref['exit']}"
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    return _diff(ref["report"], report, "report") or oracles(argv, report)
