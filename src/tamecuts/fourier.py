"""Fourier-algebra norms of finitely supported functions on Z^d.

On an abelian group the Fourier-algebra norm of a finitely supported function
equals the L^1 norm of its transform on the torus, and (the group being
amenable) coincides with both the multiplier norm and the completely bounded
multiplier norm.  This module computes it two ways:

* ``a_norm_torus``   adaptive FFT quadrature of the transform on T^d, with an
  empirical bracketing certificate from successive grid doublings.  The
  first axis of each grid is split into cosets, each one transform of about
  the polynomial's degree in length (at least 2^12 points), and each doubling
  transforms only the points the previous grid lacks.  In two or three
  dimensions, coefficients that are a product c(k) = a_1(k_1)*...*a_d(k_d)
  (a product support, with factors from the axis lines through one corner
  whose floating-point outer product reproduces every coefficient bit for
  bit, as for a box) give |p(t)| = prod_i |p_i(t_i)|, so each grid's sum is
  the product of d one-dimensional sums;
* ``dirichlet_l1``   the interval indicator 1_{-n..n}, i.e. the Lebesgue
  constant of the order-n Dirichlet kernel.  Its exact value, with N = 2n+1,

      L_n = 1/N + (2/pi) * sum_{k=1}^{n} tan(pi k / N) / k,

  is summed term by term below order 2^10 and, from there to 2^25, taken in
  constant time from harmonic numbers plus an Euler-Maclaurin integral (see
  ``_lebesgue_exact``); larger orders use the asymptotic branch
  (4/pi^2) log(2n+1) + c0, with Watson's constant c0 as a literal.

Certificates are empirical: lower <= value <= upper at the stated grid, not
formal interval arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import BudgetExceededError, InputError

METHODS = frozenset({
    "exact-dft",
    "quadrature",
    "l2-bound",
    "product-rule",
    "translation-invariance",
    "extension-isometry",
    "asymptotic",
})

_EXACT_DIRICHLET_MAX = 1 << 25      # largest index for the exact value
# Smallest order at which the exact value comes from the Euler-Maclaurin
# route rather than term by term (see _lebesgue_exact), and the size of its
# Gauss-Legendre rule.
_EM_MIN_ORDER = 1 << 10
_GAUSS_NODES = 12
_MAX_GRID_POINTS = 1 << 24          # quadrature budget, all dimensions combined
# Grid points per quadrature batch.  While a coset transform has at most this
# many points (M <= 2^18), a batch holds at most this many (4 MiB complex,
# 4 MiB more for its transform, 2 MiB for |p|); past that it is one coset
# column of M points.  Batches this small run faster than larger ones, as
# they stay in cache.
_SLAB_POINTS = 1 << 18
# Shortest first-axis coset transform, where the grid allows.  Each batch
# costs a few Python-level numpy calls, so cosets much shorter than this
# spend more time there than in the transforms: with 16-point cosets the 2-D
# boxes of radius 2 and 6 took 2.7 and 5.3 times as long to reach the budget
# (2-vCPU VM, numpy 2.4).
_MIN_COSET = 1 << 12
# Absolute slack for lower > upper in a certificate.  It absorbs the last-place
# rounding of bounds computed by different routes that meet at the true value,
# such as the d-th powers of a bracket in a product rule.
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
        return dict(vars(self), value=self.value)


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
        if dim < 1:
            raise InputError(f"box dimension must be at least 1, got {dim}")
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


def _product_factors(f: TrigPoly) -> list[TrigPoly] | None:
    """One-dimensional a_1..a_d with c(k) = a_1(k_1)*...*a_d(k_d), or None.

    The support must be the product of its projections on the axes, which
    is checked by counting (prod |axis keys| == |keys|) before the
    coefficients are laid out on that product set.  The factors are the
    axis lines through its first point, all but the first divided by that
    point's coefficient, and their floating-point outer product must equal
    the coefficients bit for bit; otherwise (and in one dimension) the
    answer is None.  So the exact product of the factors is within half an
    ulp of every coefficient, and equal to it where the products are exact
    (boxes, dyadic weights): far below the rounding of the transforms
    themselves.
    """
    if f.dim < 2:
        return None
    keys = np.array(list(f.coeffs), dtype=np.int64)
    axes = [np.unique(keys[:, i], return_inverse=True) for i in range(f.dim)]
    if math.prod(len(u) for u, _ in axes) != len(keys):
        return None
    coeffs = np.zeros(tuple(len(u) for u, _ in axes), dtype=complex)
    coeffs[tuple(inv for _, inv in axes)] = list(f.coeffs.values())
    corner = (0,) * f.dim
    lines = [coeffs[corner[:i] + (slice(None),) + corner[i + 1:]]
             for i in range(f.dim)]
    lines[1:] = [line / coeffs[corner] for line in lines[1:]]
    if not np.array_equal(functools.reduce(np.multiply.outer, lines), coeffs):
        return None
    return [TrigPoly(dict(zip(u.tolist(), line)), dim=1)
            for (u, _), line in zip(axes, lines)]


def _grid_abs_sum(f: TrigPoly, m: int, new_only: bool = False) -> float:
    """Sum of |sum_k c_k exp(2 pi i k.t)| over the uniform m^dim grid.

    With ``new_only`` (m even) the sum runs only over the points that the
    grid of m/2 points per axis lacks: those with an odd index on some axis.

    When the coefficients are a product c(k) = a_1(k_1)*...*a_d(k_d) (see
    ``_product_factors``: a product support, and factors whose outer product
    reproduces every coefficient bit for bit), so is the polynomial, and
    |p(t)| = |p_1(t_1)|*...*|p_d(t_d)|: the sum is prod_i S_i(m), S_i(m)
    the 1-D sum of factor i over m points, and with ``new_only`` it is
    prod_i S_i(m) - prod_i S_i(m/2).  Every other input (and d = 1) takes
    the general path below.

    The coefficients are grouped into rows by their first coordinate mod m
    (at most 2*degree+1 rows), and the rows are transformed along the other
    axes; each point of those axes is a column.  The first-axis index is
    split as j = r + q*s with m = q*M: on coset r, a column's values are the
    length-M transform of its rows, each times exp(2 pi i k r / m) and added
    into bin k mod M.  M is at least max(2*degree+1, _MIN_COSET) where m
    allows, so q transforms of M points cost m log M, not m log m.  With
    ``new_only``, q >= 2 is even and the old points are the even cosets at
    columns whose indices are all even.

    Real coefficients give |p(-t)| = |p(t)|, and t -> -t maps coset r onto
    coset q - r and column c onto column -c.  So only cosets r <= q/2 are
    transformed, the others counting through their mirror images (weight
    2).  Cosets 0 and q/2 are their own mirror images: on them only columns
    with last index l <= m/2 are transformed, with weight 2 except l = 0 and
    l = m/2.  Complex coefficients transform every coset and column once.

    Units of (coset, column) are transformed in batches of about
    _SLAB_POINTS points through buffers allocated once, so the grid is
    never held.
    """
    factors = _product_factors(f)
    if factors is not None:
        total = math.prod(_grid_abs_sum(g, m) for g in factors)
        if new_only:
            total -= math.prod(_grid_abs_sum(g, m // 2) for g in factors)
        return total
    keys = np.array(list(f.coeffs), dtype=np.int64)
    degree = int(np.abs(keys).max())
    keys %= m
    vals = np.array(list(f.coeffs.values()))
    real = not vals.imag.any()
    first, row = np.unique(keys[:, 0], return_inverse=True)
    rows = np.zeros((len(first),) + (m,) * (f.dim - 1), dtype=complex)
    np.add.at(rows, (row, *keys[:, 1:].T), vals)
    if f.dim > 1:
        rows = np.fft.ifftn(rows, axes=tuple(range(1, f.dim)), norm="forward")
    rows = rows.reshape(len(first), -1)
    q = 2 if new_only else 1
    target = max(2 * degree + 1, _MIN_COSET)
    while m % (2 * q) == 0 and m // (2 * q) >= target:
        q *= 2
    big_m = m // q
    col = np.arange(rows.shape[1])
    last = col % m
    odd = np.zeros(len(col), dtype=bool)
    for axis in range(f.dim - 1):
        odd |= (col // m ** axis) % 2 == 1
    r = np.arange(q // 2 + 1 if real else q)[:, None]
    if real:
        half = np.where(2 * last > m, 0.0,
                        np.where((last == 0) | (2 * last == m), 1.0, 2.0))
        weight = np.where(2 * r % q == 0, half, 2.0)
    else:
        weight = np.ones((len(r), len(col)))
    if new_only:
        weight = np.where((r % 2 == 1) | odd, weight, 0.0)
    unit_r, unit_c = np.nonzero(weight)
    unit_w = weight[unit_r, unit_c]
    # rows sorted by bin; rows sharing a bin (only when M < 2*degree+1) are
    # added by reduceat, and bins no row reaches stay 0 in the slab
    bins = first % big_m
    order = np.argsort(bins, kind="stable")
    first, rows, bins = first[order], rows[order], bins[order]
    starts = np.flatnonzero(np.r_[True, bins[1:] != bins[:-1]])
    bins = bins[starts]
    width = min(len(unit_r), max(1, _SLAB_POINTS // big_m))
    slab = np.zeros((width, big_m), dtype=complex)
    spec = np.empty_like(slab)
    mags = np.empty(slab.shape)
    total = 0.0
    for start in range(0, len(unit_r), width):
        rr = unit_r[start:start + width]
        w = len(rr)
        twiddle = np.exp((2j * np.pi / m) * ((rr[:, None] * first) % m))
        units = rows[:, unit_c[start:start + w]].T * twiddle
        slab[:w, bins] = np.add.reduceat(units, starts, axis=1)
        np.fft.ifft(slab[:w], norm="forward", out=spec[:w])
        np.abs(spec[:w], out=mags[:w])
        total += float(unit_w[start:start + w] @ mags[:w].sum(axis=1))
    return total


def a_norm_torus(f: TrigPoly, tol: float = 1e-6,
                 max_points: int = _MAX_GRID_POINTS) -> NormCertificate:
    """Bracket the torus L^1 norm of the transform of ``f`` by FFT quadrature.

    The grid per dimension starts at max(64, 16*(degree+1)) and doubles until
    the change between successive Riemann sums drops below tol/2 relative;
    the certificate interval is the intersection of the observed brackets
    while they meet, and a bracket disjoint from it widens it to the hull of
    the two, after which refinement goes on.  The sum of |p| is kept from
    grid to grid: a doubled grid holds the previous one at its even indices,
    so each doubling transforms only its new points.  Raises
    BudgetExceededError (with the best certificate attached) if the grid
    budget runs out first.
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
    degree = f.degree
    while m < 16 * (degree + 1):
        m *= 2
    prev = None
    delta_prev = None
    total = 0.0
    while m ** f.dim <= max_points:
        total += _grid_abs_sum(f, m, new_only=prev is not None)
        s = total / m ** f.dim
        if prev is not None:
            delta = abs(s - prev)
            if delta_prev is not None:
                # the margin keeps the previous doubling's change as well, so
                # one lucky agreement (or one anomalously small step) cannot
                # end refinement with an overconfident bracket
                w = max(delta, 0.3 * delta_prev) + 1e-15 * s
                if s - w <= up and lo <= s + w:
                    lo, up = max(lo, s - w), min(up, s + w)
                else:  # disjoint brackets: keep their hull and refine on
                    lo = max(f.linf, min(lo, s - w))
                    up = min(f.l1, max(up, s + w))
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


@functools.cache
def _gauss_legendre() -> tuple[tuple[float, float], ...]:
    """(node, weight) pairs of the _GAUSS_NODES-point Gauss-Legendre rule on
    [-1, 1], positive nodes only (the rule is symmetric), by Newton's method
    on the Legendre polynomial from Tricomi's initial guesses."""
    m = _GAUSS_NODES
    rule = []
    for i in range(1, m // 2 + 1):
        x = math.cos(math.pi * (i - 0.25) / (m + 0.5))
        for _ in range(6):
            p0, p1 = 1.0, x
            for k in range(2, m + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = m * (x * p1 - p0) / (x * x - 1)
            x -= p1 / dp
        rule.append((x, 2 / ((1 - x * x) * dp * dp)))
    return tuple(rule)


def _cot_remainder(x: float) -> float:
    """q(x) = (cot x - 1/x + 2/pi) / (1 - 2x/pi) for 0 < x < pi/2.

    Numerator and denominator both vanish at pi/2, so on the upper half q is
    evaluated as (pi/2) tan(t)/t - 1/x with t = pi/2 - x, where nothing
    cancels.
    """
    if x <= 0.25 * math.pi:
        return (1 / math.tan(x) - 1 / x + 2 / math.pi) / (1 - 2 * x / math.pi)
    t = 0.5 * math.pi - x
    return 0.5 * math.pi * math.tan(t) / t - 1 / x


def _lebesgue_exact(n: int) -> float:
    """L^1 norm of the order-n Dirichlet kernel, from its exact tangent sum.

    With N = 2n+1 and h = pi/N, L_n = 1/N + (2/pi) sum_{k=1}^{n} tan(pi k/N)/k.
    Put j = N - 2k = 2i + 1: tan(pi k/N) = cot(x_i) at x_i = (i + 1/2) h,
    and 1/k = (2h/pi) / (1 - 2 x_i/pi).  Splitting cot x = 1/x + (cot x - 1/x)
    and adding and removing 2/pi gives, exactly,

        L_n = 1/N + (4/pi^2) (2 H_{2n} - H_n + sum_{i=0}^{n-1} h q(x_i)),
        q(x) = (cot x - 1/x + 2/pi) / (1 - 2x/pi),

    H_m the m-th harmonic number.  q has a removable point at pi/2 and is
    analytic on |x| < pi.  Its Taylor coefficients at 0 are all positive:
    the m-th is (2/pi)^m times minus the tail past x^m of the numerator's
    series, whose coefficients past the constant are negative and whose sum
    at pi/2 is 0.  So q and every derivative of q are positive and
    increasing on [0, pi), and |q(z)| <= q(|z|) for |z| < pi.

    Below order _EM_MIN_ORDER = 2^10 the terms 1/(k tan(x_i)) are summed one
    by one; they take the tangent of the small angle x_i, since tan near
    pi/2 magnifies the rounding of its argument about N-fold.  From 2^10 on
    the value takes constant time (about 10 microseconds):

    * 2 H_{2n} - H_n = ln(4n) + gamma + 1/(24 n^2) - 7/(960 n^4) + e_H;
    * the midpoint sum over [0, b], b = n h = pi/2 - h/2, is
      int_0^b q - (h^2/24) (q'(b) - q'(0)) + R_EM, with q'(0) = 4/pi^2 - 1/3
      and q'(b) from the Taylor series of tan(t)/t at t = h/2;
    * int_0^b q by the 12-point Gauss-Legendre rule, with error e_GL.

    Error budget on L_n, where each term enters times 4/pi^2 < 0.41, for
    every n >= 2^10 (h <= pi/2049):

    * R_EM: the midpoint Euler-Maclaurin remainder after the h^2 term is
      (h^4/24) int_0^b (B_4(1/2) - B~_4(x/h)) q^(4)(x) dx, with B~_4 the
      periodic Bernoulli function and 0 <= B_4(1/2) - B~_4 <= 1/16, so
      0 <= R_EM <= (h^4/384) (q'''(pi/2) - q'''(0)) = (h^4/384) 0.9439:
      below 1.0e-3 h^4 on L_n, that is 5.6e-15 (1.4e-15 relative) at
      n = 2^10, falling as n^-4;
    * e_GL: the Bernstein ellipse rho = 5 of [0, b] reaches out to
      3.6 b/2 <= 0.9 pi, where |q| <= q(0.9 pi) < 3.5, so the 12-point
      bound (b/2) (64/15) M rho^-24 / (rho^2 - 1) (Trefethen, Approximation
      Theory and Approximation Practice, Thm 19.3) is below 1e-17;
    * e_H: each H_m series is enveloped by its first omitted term,
      1/(252 m^6), so |e_H| <= 1/(252 n^6) < 4e-21; cutting the tan(t)/t
      series after t^4 moves q'(b) by under 0.6 t^5, below 1e-22 after
      the h^2/24;
    * rounding: about 30 operations on values below 20, plus the cot - 1/x
      cancellation at the smallest node (x near 0.0145: about 4e-14 in q,
      at weight 0.037): below 2e-14.

    The sum, below 3e-14, is under 1% of the certificate's half-width
    max(1e-12 L_n, 5e-13) > 4e-12 (L_n > 4.07 for n >= 2^10).
    """
    if n == 0:
        return 1.0
    big_n = 2 * n + 1
    if n < _EM_MIN_ORDER:
        k = np.arange(1, n + 1, dtype=float)
        term = k * np.tan((big_n - 2 * k) * (math.pi / (2 * big_n)))
        return 1.0 / big_n + (2.0 / math.pi) * float((1.0 / term).sum())
    h = math.pi / big_n
    harmonic = (math.log(4 * n) + _EULER_GAMMA
                + (1 / 24 - 7 / (960 * n * n)) / (n * n))
    half = 0.25 * (math.pi - h)  # b/2
    integral = half * sum(w * (_cot_remainder(half * (1 - x))
                               + _cot_remainder(half * (1 + x)))
                          for x, w in _gauss_legendre())
    # q'(b) = 1/(pi/2 - t)^2 - (pi/2) d/dt(tan t / t) at t = h/2
    t = 0.5 * h
    slope_b = 1 / (0.5 * math.pi - t) ** 2 - math.pi * t * (1 / 3 + 4 * t * t / 15)
    slope_0 = 4 / math.pi ** 2 - 1 / 3
    midpoint = integral - h * h / 24 * (slope_b - slope_0)
    return 1.0 / big_n + (4 / math.pi ** 2) * (harmonic + midpoint)


# Euler's constant: H_m = ln m + gamma + O(1/m), and it enters c0 below.
_EULER_GAMMA = 0.57721566490153286
# Watson's constant c0 in L_n = (4/pi^2) log(2n+1) + c0 + O(n^-2) (Watson
# 1930): c0 = (8/pi^2) sum_{k>=1} log(k)/(4k^2-1) + (4/pi^2)(gamma + 2 log 2).
_LEBESGUE_C0 = 0.98943127383114695


def dirichlet_l1(n: int, tol: float = 1e-9) -> NormCertificate:
    """Certificate for the L^1(T) norm of the Dirichlet kernel of order n.

    Up to n = 2^25 the value is the exact sum ``_lebesgue_exact``: term by
    term below n0 = 2^10, and from n0 on in constant time as
    (4/pi^2)(2 H_{2n} - H_n + midpoint sum of q), with the harmonic numbers
    from their asymptotic series and the midpoint sum as a Gauss-Legendre
    integral plus its h^2 Euler-Maclaurin term.  Its error budget (below
    3e-14 in all) is stated there; the half-width max(1e-12 L_n, 5e-13)
    covers it more than a hundredfold.  Larger orders use the asymptotic
    with Watson's constant (relative error well below 1e-8).  Strictly
    increasing in n.  ``tol`` is recorded on the certificate, not used.
    """
    if n < 0:
        raise InputError("order must be nonnegative")
    if n <= _EXACT_DIRICHLET_MAX:
        val = _lebesgue_exact(n)
        w = max(1e-12 * val, 5e-13)
        return NormCertificate(val - w, val + w, "exact-dft", tol)
    val = (4 / math.pi ** 2) * math.log(2 * n + 1) + _LEBESGUE_C0
    w = 1e-8 * val
    return NormCertificate(val - w, val + w, "asymptotic", tol)


def finite_cyclic_a_norm(values: Iterable[complex]) -> float:
    """Fourier-algebra norm on Z_m: (1/m) * sum_j |fhat(j)|, exact DFT.

    ``values`` is the sequence f(0), ..., f(m - 1), with m >= 1.
    """
    arr = np.asarray(list(values), dtype=complex)
    if arr.size < 1:
        raise InputError("modulus must be at least 1")
    return float(np.abs(np.fft.fft(arr)).sum() / arr.size)


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
