"""Fourier-algebra norms of finitely supported functions on Z^d.

On an abelian group the Fourier-algebra norm of a finitely supported function
equals the L^1 norm of its transform on the torus, and (the group being
amenable) coincides with both the multiplier norm and the completely bounded
multiplier norm.  This module computes it two ways:

* ``a_norm_torus``   adaptive FFT quadrature of the transform on T^d, with an
  empirical bracketing certificate from successive grid doublings;
* ``dirichlet_l1``   the interval indicator 1_{-n..n}, i.e. the Lebesgue
  constant of the order-n Dirichlet kernel, evaluated by the exact
  alternating-sign formula

      L_n = 1/(2n+1) + (2/pi) * sum_{k=1}^{n} tan(pi k / (2n+1)) / k,

  which agrees with quadrature to machine precision, plus a calibrated
  asymptotic branch (4/pi^2) log(2n+1) + c0 for indices too large to sum.

Certificates are empirical: lower <= value <= upper at the stated grid, not
formal interval arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

from .errors import BudgetExceededError, InputError

METHODS = frozenset({
    "exact-dft",
    "quadrature",
    "power-iteration",
    "l1-bound",
    "l2-bound",
    "product-rule",
    "translation-invariance",
    "extension-isometry",
    "asymptotic",
})

_EXACT_DIRICHLET_MAX = 1 << 25      # largest index for the exact tan-sum
_MAX_GRID_POINTS = 1 << 24          # quadrature budget, all dimensions combined
# Grid points per quadrature slab.  While m <= 2^18 a slab holds at most this
# many (4 MiB complex, 4 MiB more for its transform, 2 MiB for |p|); past that
# it is one column of m points.  Slabs this small run faster than larger ones,
# as they stay in cache.
_SLAB_POINTS = 1 << 18
# Absolute slack for lower > upper in a certificate.  It absorbs the last-place
# rounding of bounds computed by different routes that meet at the true value:
# a power-iteration lower bound reaching the l1 upper bound, or the d-th powers
# of a bracket in a product rule.
_BRACKET_SLACK = 1e-12


@dataclass(frozen=True)
class NormCertificate:
    """A (lower, upper) bracket on a norm, with method provenance."""

    lower: float
    upper: float
    method: str
    tolerance: float = 0.0
    grid: int | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise InputError(f"unknown certificate method {self.method!r}")
        if not (0.0 <= self.lower <= self.upper + _BRACKET_SLACK):
            raise InputError(
                f"certificate bounds out of order: [{self.lower}, {self.upper}]")

    @property
    def value(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def to_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "value": self.value,
            "method": self.method,
            "tolerance": self.tolerance,
            "grid": self.grid,
        }


class TrigPoly:
    """Finitely supported coefficients on Z^d; a trigonometric polynomial."""

    def __init__(self, coeffs: Mapping, dim: int | None = None):
        norm: dict[tuple[int, ...], complex] = {}
        for key, val in coeffs.items():
            k = (int(key),) if isinstance(key, int) else tuple(int(x) for x in key)
            if dim is not None and len(k) != dim:
                raise InputError(f"frequency {k} does not have dimension {dim}")
            c = complex(val)
            if c != 0:
                norm[k] = norm.get(k, 0) + c
        if dim is None:
            if not norm:
                raise InputError("cannot infer dimension of the zero polynomial")
            dim = len(next(iter(norm)))
        if any(len(k) != dim for k in norm):
            raise InputError("inconsistent frequency dimensions")
        self.dim = dim
        self.coeffs = {k: v for k, v in norm.items() if v != 0}

    @classmethod
    def delta(cls, dim: int = 1) -> "TrigPoly":
        return cls({(0,) * dim: 1.0}, dim=dim)

    @classmethod
    def indicator(cls, points: Iterable, dim: int = 1) -> "TrigPoly":
        return cls({p: 1.0 for p in points}, dim=dim)

    @classmethod
    def box(cls, radius: int, dim: int = 1) -> "TrigPoly":
        """Indicator of {-radius..radius}^dim."""
        if dim == 1:
            return cls({(k,): 1.0 for k in range(-radius, radius + 1)}, dim=1)
        inner = cls.box(radius, dim - 1)
        coeffs = {}
        for k in range(-radius, radius + 1):
            for rest in inner.coeffs:
                coeffs[(k,) + rest] = 1.0
        return cls(coeffs, dim=dim)

    @property
    def degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(max(abs(x) for x in k) for k in self.coeffs)

    @property
    def l1(self) -> float:
        return float(sum(abs(v) for v in self.coeffs.values()))

    @property
    def linf(self) -> float:
        return float(max((abs(v) for v in self.coeffs.values()), default=0.0))

    def translated(self, shift) -> "TrigPoly":
        s = (int(shift),) if isinstance(shift, int) else tuple(int(x) for x in shift)
        if len(s) != self.dim:
            raise InputError("shift dimension mismatch")
        return TrigPoly({tuple(a + b for a, b in zip(k, s)): v
                         for k, v in self.coeffs.items()}, dim=self.dim)

    def __len__(self) -> int:
        return len(self.coeffs)


def _mean_abs_on_grid(f: TrigPoly, m: int) -> float:
    """Mean of |sum_k c_k exp(2 pi i k.t)| over the uniform m^dim grid.

    The coefficients are grouped by their first coordinate mod m, and only
    those rows are transformed along the other axes.  The first axis is then
    transformed slab by slab, so the whole grid is never held at once.
    Frequencies that agree mod m add up, as on the grid itself.
    """
    keys = np.array(list(f.coeffs), dtype=np.int64) % m
    first, row = np.unique(keys[:, 0], return_inverse=True)
    rows = np.zeros((len(first),) + (m,) * (f.dim - 1), dtype=complex)
    np.add.at(rows, (row, *keys[:, 1:].T), list(f.coeffs.values()))
    if f.dim > 1:
        rows = np.fft.ifftn(rows, axes=tuple(range(1, f.dim)), norm="forward")
    rows = rows.reshape(len(first), -1)
    cols = rows.shape[1]
    width = max(1, _SLAB_POINTS // m)
    total = 0.0
    for start in range(0, cols, width):
        # one slab, columns as rows, so the transform runs along contiguous memory
        slab = np.zeros((min(width, cols - start), m), dtype=complex)
        slab[:, first] = rows[:, start:start + width].T
        total += float(np.abs(np.fft.ifft(slab, norm="forward")).sum())
    return total / m ** f.dim


def a_norm_torus(f: TrigPoly, tol: float = 1e-6,
                 max_points: int = _MAX_GRID_POINTS) -> NormCertificate:
    """Bracket the torus L^1 norm of the transform of ``f`` by FFT quadrature.

    The grid per dimension starts at max(64, 16*(degree+1)) and doubles until
    the change between successive Riemann sums drops below tol/2 relative;
    the certificate interval is the intersection of all observed brackets, so
    refining never widens it.  Raises BudgetExceededError (with the best
    certificate attached) if the grid budget runs out first.
    """
    if tol <= 0:
        raise InputError("tolerance must be positive")
    if not f.coeffs:
        raise InputError("a_norm_torus requires a nonzero polynomial")
    if f.dim > 3:
        raise InputError("torus quadrature is limited to dimension <= 3; "
                         "use tensor_norm for product structure")
    lo, up = f.linf, f.l1
    if len(f.coeffs) == 1:
        # single frequency: |transform| is constant
        v = abs(next(iter(f.coeffs.values())))
        return NormCertificate(v, v, "exact-dft", tol)

    m = 64
    while m < 16 * (f.degree + 1):
        m *= 2
    prev = None
    delta_prev = None
    while m ** f.dim <= max_points:
        s = _mean_abs_on_grid(f, m)
        if prev is not None:
            delta = abs(s - prev)
            if delta_prev is not None:
                # the margin keeps the previous doubling's change as well, so
                # one lucky agreement (or one anomalously small step) cannot
                # end refinement with an overconfident bracket
                w = max(delta, 0.3 * delta_prev) + 1e-15 * s
                lo = max(lo, s - w)
                up = min(up, s + w)
                if lo > up:  # brackets crossed within rounding; collapse
                    lo = up = 0.5 * (lo + up)
                if w <= 0.5 * tol * max(s, 1e-300) and up - lo <= tol * up:
                    return NormCertificate(lo, up, "quadrature", tol, grid=m)
            delta_prev = delta
        prev = s
        m *= 2
    best = NormCertificate(lo, up, "quadrature", tol, grid=m // 2)
    raise BudgetExceededError(
        f"quadrature budget {max_points} points reached before tol {tol}",
        partial=best)


# ---------------------------------------------------------------------------
# Dirichlet kernel Lebesgue constants


def _lebesgue_exact(n: int) -> float:
    """L^1 norm of the order-n Dirichlet kernel by the exact tan sum."""
    if n == 0:
        return 1.0
    big_n = 2 * n + 1
    total = 0.0
    chunk = 1 << 20
    for start in range(1, n + 1, chunk):
        k = np.arange(start, min(start + chunk, n + 1), dtype=float)
        total += float(np.sum(np.tan(np.pi * k / big_n) / k))
    return 1.0 / big_n + (2.0 / math.pi) * total


@lru_cache(maxsize=1)
def _lebesgue_c0() -> float:
    """Constant c0 in L_n = (4/pi^2) log(2n+1) + c0 + O(n^-2), by Richardson
    extrapolation of two exact values (residual error ~1e-10)."""
    n1, n2 = 1 << 20, 1 << 21
    c1 = _lebesgue_exact(n1) - (4 / math.pi ** 2) * math.log(2 * n1 + 1)
    c2 = _lebesgue_exact(n2) - (4 / math.pi ** 2) * math.log(2 * n2 + 1)
    return c2 + (c2 - c1) / 3.0


def dirichlet_l1(n: int, tol: float = 1e-9) -> NormCertificate:
    """Certificate for the L^1(T) norm of the Dirichlet kernel of order n.

    Exact summation up to n = 2^25; larger indices use the asymptotic with
    the calibrated constant (relative error well below 1e-8).  Strictly
    increasing in n.
    """
    if n < 0:
        raise InputError("order must be nonnegative")
    if n <= _EXACT_DIRICHLET_MAX:
        val = _lebesgue_exact(n)
        w = max(1e-12 * val, 5e-13)
        return NormCertificate(val - w, val + w, "exact-dft", tol)
    val = (4 / math.pi ** 2) * math.log(2 * n + 1) + _lebesgue_c0()
    w = 1e-8 * val
    return NormCertificate(val - w, val + w, "asymptotic", tol)


def finite_cyclic_a_norm(f) -> float:
    """Fourier-algebra norm on Z_m: (1/m) * sum_j |fhat(j)|, exact DFT.

    ``f`` is a mapping {residue: value} together with a modulus, given either
    as a dict whose keys lie in range(m) via ``finite_cyclic_a_norm((f, m))``,
    or directly as a sequence of m values.
    """
    if isinstance(f, tuple) and len(f) == 2 and isinstance(f[1], int):
        mapping, m = f
        arr = np.zeros(m, dtype=complex)
        for k, v in mapping.items():
            arr[int(k) % m] += v
    else:
        arr = np.asarray(list(f), dtype=complex)
        m = arr.size
    if m < 1:
        raise InputError("modulus must be at least 1")
    return float(np.abs(np.fft.fft(arr)).sum() / m)


def hardy_ratio(points: Iterable[int], tol: float = 1e-6) -> float:
    """a_norm lower bound of the indicator of a finite frequency set,
    divided by log of the set size."""
    pts = sorted({int(k) for k in points})
    if len(pts) < 2:
        raise InputError("hardy_ratio needs at least two frequencies")
    cert = a_norm_torus(TrigPoly.indicator(pts, dim=1), tol=tol)
    return cert.lower / math.log(len(pts))


def tensor_norm(factors: Iterable[TrigPoly], tol: float = 1e-6) -> NormCertificate:
    """Certificate for a tensor product of one-dimensional polynomials:
    bounds multiply across factors."""
    lo, up, max_tol = 1.0, 1.0, 0.0
    count = 0
    for f in factors:
        if f.dim != 1:
            raise InputError("tensor_norm factors must be one-dimensional")
        cert = a_norm_torus(f, tol=tol)
        lo *= cert.lower
        up *= cert.upper
        max_tol = max(max_tol, cert.tolerance)
        count += 1
    if count == 0:
        raise InputError("tensor_norm requires at least one factor")
    return NormCertificate(lo, up, "product-rule", max_tol)
