"""Certified lower bounds on the reduced-C* norm of convolution operators.

For a finitely supported f on a group G, left convolution lambda(f) acts on
l2(G).  Compressing to the finite-dimensional l2(B_R) gives a self-adjoint
positive operator P_R lambda(f)* lambda(f) P_R whose top eigenvalue never
exceeds ||lambda(f)||^2, so the square root of any Rayleigh quotient is a
true lower bound.  Power iteration with a fixed seeded start vector makes the
estimate reproducible; it increases monotonically with R.

Two cheap certified companions bracket the estimate:

    ||f||_2 <= ||lambda(f)|| <= ||f||_1

(the lower one via testing lambda(f) against the point mass at the identity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import BudgetExceededError, InputError
from .groups import DEFAULT_BUDGET, Element, GroupSpec, ball, identity, word_length
from .groups.balls import Ball


class FinSuppFun:
    """Finitely supported complex-valued function on a group."""

    def __init__(self, group: GroupSpec, values: Mapping[Element, complex]):
        self.group = group
        vals: dict[Element, complex] = {}
        for x, v in values.items():
            if x.group != group:
                raise InputError("support element belongs to a different group")
            c = complex(v)
            if c != 0:
                vals[x] = vals.get(x, 0) + c
        self.values = {x: v for x, v in vals.items() if v != 0}

    @classmethod
    def delta(cls, group: GroupSpec, at: Element | None = None) -> "FinSuppFun":
        return cls(group, {at if at is not None else identity(group): 1.0})

    @classmethod
    def indicator(cls, group: GroupSpec, elements: Iterable[Element]) -> "FinSuppFun":
        return cls(group, {x: 1.0 for x in elements})

    @classmethod
    def random_nonneg(cls, bn: Ball, rng: np.random.Generator) -> "FinSuppFun":
        elems = list(bn)
        coeffs = rng.uniform(0.0, 1.0, size=len(elems))
        return cls(bn.group, dict(zip(elems, coeffs)))

    @property
    def l1(self) -> float:
        return float(sum(abs(v) for v in self.values.values()))

    @property
    def l2(self) -> float:
        return math.sqrt(sum(abs(v) ** 2 for v in self.values.values()))

    def is_real(self) -> bool:
        return all(v.imag == 0 for v in self.values.values())

    def pointwise(self, phi: Callable[[Element], complex]) -> "FinSuppFun":
        """The product phi * f, evaluated on the support of f."""
        return FinSuppFun(self.group,
                          {x: complex(phi(x)) * v for x, v in self.values.items()})

    def support(self) -> list[Element]:
        return list(self.values.keys())

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SpectralEstimate:
    """Output of the truncated power iteration."""

    lower: float            # certified lower bound on ||lambda(f)||
    l1_upper: float         # ||f||_1
    l2_lower: float         # ||f||_2 = <lambda(f) delta_e | f> / ||f||_2
    truncation_radius: int
    iterations: int
    residual: float
    converged: bool

    def to_dict(self) -> dict:
        return {
            "lower": self.lower,
            "l1_upper": self.l1_upper,
            "l2_lower": self.l2_lower,
            "truncation_radius": self.truncation_radius,
            "iterations": self.iterations,
            "residual": self.residual,
            "converged": self.converged,
        }


class CompressedConvolution:
    """lambda(f) restricted to l2(B_R), mapping into l2(B_{R+deg f}).

    The index structure depends only on (group, support, R) and is reused
    across coefficient vectors, which makes repeated sampling cheap.
    """

    def __init__(self, group: GroupSpec, support: list[Element], radius: int,
                 cache=None, budget: int = DEFAULT_BUDGET):
        self.group = group
        self.support = support
        self.radius = radius
        deg = max((word_length(y, group, budget=budget) for y in support), default=0)
        self.degree = deg
        bin_ = ball(group, radius, cache=cache, budget=budget)
        self.dim_in = len(bin_)
        entries = len(support) * self.dim_in
        if entries > budget:  # before the index arrays are allocated
            raise BudgetExceededError(
                f"compression entry budget {budget} exceeded: {len(support)} "
                f"support elements x {self.dim_in} ball elements")
        bout = ball(group, radius + deg, cache=cache, budget=budget)
        self.dim_out = len(bout)
        rows = bin_.translate_indices(support, budget=budget).ravel()
        cols = np.tile(np.arange(self.dim_in, dtype=np.int64), len(support))
        yidx = np.repeat(np.arange(len(support), dtype=np.int64), self.dim_in)
        order = np.lexsort((cols, rows))  # csr layout: row-major, cols ascending
        self._rows = rows[order]
        self._cols = cols[order]
        self._yidx = yidx[order]
        indptr = np.zeros(self.dim_out + 1, dtype=np.int64)
        np.add.at(indptr, self._rows + 1, 1)
        self._indptr = np.cumsum(indptr)

    def matrix(self, coeffs: np.ndarray) -> sp.csr_matrix:
        data = np.asarray(coeffs)[self._yidx]
        return sp.csr_matrix((data, self._cols, self._indptr),
                             shape=(self.dim_out, self.dim_in))


def _power_iteration(L: sp.csr_matrix, tol: float, max_iter: int,
                     seed: int) -> tuple[float, int, float, bool]:
    """Top eigenvalue of L*L by power iteration; returns (rho, iters, residual,
    converged).  Rayleigh quotients of the PSD operator increase, so the last
    value is the best certified one."""
    rng = np.random.default_rng(seed)
    complex_data = np.iscomplexobj(L.data)
    v = rng.standard_normal(L.shape[1])
    if complex_data:
        v = v + 1j * rng.standard_normal(L.shape[1])
    nv = np.linalg.norm(v)
    if nv == 0 or L.shape[1] == 0:
        return 0.0, 0, 0.0, True
    v = v / nv
    Lh = L.conjugate().T.tocsr()
    rho_prev = -1.0
    residual = math.inf
    confirmations = 0
    it = 0
    for it in range(1, max_iter + 1):
        w = L @ v
        rho = float(np.vdot(w, w).real)
        if rho == 0.0:
            return 0.0, it, 0.0, True
        u = Lh @ w
        v = u / np.linalg.norm(u)
        residual = abs(rho - rho_prev) / rho
        rho_prev = rho
        if residual < tol:
            confirmations += 1
            if confirmations > 20:
                return rho, it, residual, True
        else:
            confirmations = 0
    return rho_prev, it, residual, False


def _compression(f: FinSuppFun, radius: int, cache=None,
                 budget: int = DEFAULT_BUDGET) -> CompressedConvolution:
    """The compression for the support of f; past ``budget`` the
    ``BudgetExceededError`` carries the bracket described in
    ``lambda_norm_lower``."""
    try:
        return CompressedConvolution(f.group, f.support(), radius,
                                     cache=cache, budget=budget)
    except BudgetExceededError as exc:
        partial = SpectralEstimate(f.l2, f.l1, f.l2, radius, 0, 1.0, False)
        raise BudgetExceededError(str(exc), radius_reached=exc.radius_reached,
                                  partial=partial) from exc


def lambda_norm_lower(f: FinSuppFun, radius: int, tol: float = 1e-9,
                      max_iter: int = 2000, seed: int = 0, cache=None,
                      conv: CompressedConvolution | None = None,
                      budget: int = DEFAULT_BUDGET) -> SpectralEstimate:
    """Certified lower bound for ||lambda(f)|| from the radius-``radius``
    compression.  Deterministic for fixed (f, radius, seed).

    If building the compression exceeds ``budget`` (ball elements, or
    |supp f| * |B_radius| matrix entries), the ``BudgetExceededError``
    carries the bracket ||f||_2 <= ||lambda(f)|| <= ||f||_1 as a zero-
    iteration ``SpectralEstimate`` in ``partial``, unconverged with relative
    residual 1 (a finite stand-in for "nothing measured" that keeps the CLI
    report strict JSON)."""
    if radius < 0:
        raise InputError("truncation radius must be nonnegative")
    l1 = f.l1
    l2 = f.l2
    if not f.values:
        return SpectralEstimate(0.0, 0.0, 0.0, radius, 0, 0.0, True)
    if conv is None:
        conv = _compression(f, radius, cache=cache, budget=budget)
    elif conv.group != f.group or not set(f.values).issubset(conv.support):
        raise InputError("prebuilt operator does not cover the support of f")
    coeffs = np.array([f.values.get(y, 0.0) for y in conv.support])
    if f.is_real():
        coeffs = coeffs.real
    L = conv.matrix(coeffs)
    rho, iters, residual, converged = _power_iteration(L, tol, max_iter, seed)
    lower = math.sqrt(max(rho, 0.0))
    lower = min(max(lower, l2), l1)
    return SpectralEstimate(lower, l1, l2, radius, iters, residual, converged)


class RdSample(NamedTuple):
    n: int
    l2: float
    lam_lower: float
    ratio: float


def rd_test(group: GroupSpec, n: int, samples: int, seed: int = 0,
            radius: int | None = None, tol: float = 1e-8,
            max_iter: int = 600, cache=None) -> list[RdSample]:
    """Ratios ||lambda(f)||_lower / ||f||_2 for random nonnegative f on B_n.

    Deterministic under a fixed seed.  Rapid decay with exponent a bounds
    these ratios by C (1+n)^a; Cauchy-Schwarz always bounds them by |B_n|^0.5.
    """
    if n < 0 or samples < 1:
        raise InputError("need n >= 0 and at least one sample")
    radius = radius if radius is not None else max(2 * n, 8)
    bn = ball(group, n, cache=cache)
    support = list(bn)
    conv = CompressedConvolution(group, support, radius, cache=cache)
    rng = np.random.default_rng(seed)
    out: list[RdSample] = []
    for s in range(samples):
        coeffs = rng.uniform(0.0, 1.0, size=len(support))
        l2 = float(np.linalg.norm(coeffs))
        L = conv.matrix(coeffs)
        rho, _, _, _ = _power_iteration(L, tol, max_iter, seed=seed + 1 + s)
        lam = min(math.sqrt(max(rho, 0.0)), float(coeffs.sum()))
        lam = max(lam, l2)
        out.append(RdSample(n, l2, lam, lam / l2))
    return out


def rd_fit(results: Iterable[RdSample]) -> tuple[float, float]:
    """Fit max-per-radius ratios to C (1+n)^a by log-log least squares."""
    best: dict[int, float] = {}
    for row in results:
        best[row.n] = max(best.get(row.n, 0.0), row.ratio)
    if len(best) < 3:
        raise InputError("rd_fit needs at least three distinct radii")
    ns = sorted(best)
    ratios = np.array([best[n] for n in ns])
    if ratios.max() - ratios.min() <= 1e-12 * ratios.max():
        return float(ratios[0]), 0.0
    x = np.log1p(np.array(ns, dtype=float))
    y = np.log(ratios)
    a, logc = np.polyfit(x, y, 1)
    return float(math.exp(logc)), float(a)


def _as_pointwise(phi) -> Callable[[Element], complex]:
    if callable(phi):
        return phi
    if isinstance(phi, FinSuppFun):
        return lambda x: phi.values.get(x, 0.0)
    raise InputError("multiplier must be a FinSuppFun or a callable on elements")


def multiplier_lower(phi, probes: Iterable[FinSuppFun], radius: int,
                     tol: float = 1e-8, seed: int = 0, cache=None) -> float:
    """Empirical lower bound for the multiplier norm of phi.

    For each probe f the ratio ||lambda(phi f)||_lower / ||f||_1 never
    exceeds ||lambda(phi f)|| / ||lambda(f)||, hence never exceeds the true
    multiplier norm; the maximum over probes is returned.  Probes whose
    products phi * f have the same support, in the same order, share one
    compression.
    """
    fn = _as_pointwise(phi)
    best = 0.0
    convs: dict[tuple, CompressedConvolution] = {}
    for f in probes:
        if not f.values:
            raise InputError("probes must be nonzero")
        g = f.pointwise(fn)
        if not g.values:
            continue
        support = tuple(g.values)
        conv = convs.get(support)
        if conv is None:
            conv = convs[support] = _compression(g, radius, cache=cache)
        est = lambda_norm_lower(g, radius, tol=tol, seed=seed, conv=conv)
        best = max(best, est.lower / f.l1)
    return best


def ma_ball_norm_lower(phi, group: GroupSpec, n: int,
                       probes: Iterable[FinSuppFun], radius: int,
                       tol: float = 1e-8, seed: int = 0, cache=None) -> float:
    """Empirical lower bound for the ball-restricted multiplier norm: the
    supremum of ||lambda(phi f)|| over f supported in B_n with
    ||lambda(f)|| <= 1.  Probes must be supported in B_n."""
    bn = ball(group, n, cache=cache)
    checked = []
    for f in probes:
        for x in f.support():
            if x not in bn:
                raise InputError(
                    f"probe support leaves the ball of radius {n}")
        checked.append(f)
    return multiplier_lower(phi, checked, radius, tol=tol, seed=seed, cache=cache)


def default_probes(group: GroupSpec, n: int, count: int = 2, seed: int = 0,
                   cache=None) -> list[FinSuppFun]:
    """Point mass at the identity, the flat indicator of B_n, and ``count``
    random nonnegative functions on B_n."""
    bn = ball(group, n, cache=cache)
    rng = np.random.default_rng(seed)
    probes = [FinSuppFun.delta(group), FinSuppFun.indicator(group, bn)]
    probes.extend(FinSuppFun.random_nonneg(bn, rng) for _ in range(count))
    return probes
