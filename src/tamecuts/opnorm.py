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
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

from .errors import BudgetExceededError, InputError
from .groups import DEFAULT_BUDGET, Element, GroupSpec, ball, identity
from .groups.balls import _get_grower


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

    @property
    def l1(self) -> float:
        return float(sum(abs(v) for v in self.values.values()))

    @property
    def l2(self) -> float:
        return math.sqrt(sum(abs(v) ** 2 for v in self.values.values()))

    def is_real(self) -> bool:
        return all(v.imag == 0 for v in self.values.values())

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
        return dict(vars(self))


class CompressedConvolution:
    """lambda(f) restricted to l2(B_R), mapping into l2(B_{R+deg f}).

    The support is given by the elements' indices in the group's ball
    growth order, and deg f is the length of the largest.  The index
    structure depends only on (group, support, R) and is reused across
    coefficient vectors, which makes repeated sampling cheap.
    """

    def __init__(self, group: GroupSpec, support: Sequence[int], radius: int,
                 budget: int = DEFAULT_BUDGET):
        self.group = group
        self.support = support
        self.radius = radius
        bin_ = ball(group, radius, budget=budget)
        self.dim_in = len(bin_)
        entries = len(support) * self.dim_in
        if entries > budget:  # before the index arrays are allocated
            raise BudgetExceededError(
                f"compression entry budget {budget} exceeded: {len(support)} "
                f"support elements x {self.dim_in} ball elements")
        # checks the indices and grows B_{R+deg}, so the degree is exact
        rows = bin_.translate_indices(support, budget=budget)
        deg = _get_grower(group).length(max(support, default=0))
        self.degree = deg
        self.dim_out = len(ball(group, radius + deg, budget=budget))
        # csc layout: column i holds the rows of y*x_i, ascending, so that
        # L @ v and the transpose view's L^H @ w add every output entry's
        # terms in ascending index order
        order = np.argsort(rows, axis=0)
        self.nnz = entries
        self._yidx = order.T.ravel()
        self._indices = np.take_along_axis(rows, order, axis=0).T.ravel()
        self._blocks = 0
        self._tile(1)

    def _tile(self, k: int) -> None:
        """Grow the index tile to at least k blocks: block b holds the first
        block's row indices shifted by b*dim_out and its column pointers
        shifted by b*nnz.  int32 whenever it fits, so that scipy takes the
        arrays without a copy; a k-block matrix uses a prefix of the tile."""
        if k <= self._blocks:
            return
        top = max(k * self.nnz, k * self.dim_out)
        dtype = np.int32 if top < 2**31 else np.int64
        shift = self.dim_out * np.arange(k, dtype=dtype)[:, None]
        self._indices = (self._indices[:self.nnz].astype(dtype)
                         + shift).ravel()
        self._indptr = len(self.support) * np.arange(k * self.dim_in + 1,
                                                     dtype=dtype)
        self._blocks = k

    def matrix(self, coeffs: np.ndarray) -> sp.csc_matrix:
        """The compression for one coefficient vector, or for a (k, |supp|)
        array the block-diagonal operator with one block per row."""
        coeffs = np.asarray(coeffs)
        k = 1 if coeffs.ndim == 1 else len(coeffs)
        self._tile(k)
        data = np.take(coeffs, self._yidx, axis=-1).ravel()  # C order
        return sp.csc_matrix(
            (data, self._indices[:k * self.nnz],
             self._indptr[:k * self.dim_in + 1]),
            shape=(k * self.dim_out, k * self.dim_in))


def _power_iteration(L: sp.spmatrix, tol: float, max_iter: int,
                     seeds) -> list[tuple[float, int, float, bool]]:
    """Top eigenvalue of B*B for each diagonal block B of L, by power
    iteration; returns one (rho, iters, residual, converged) per block.

    L is block diagonal with k = len(seeds) blocks of equal shape and
    sparsity pattern, in CSC or CSR layout, and block b starts from a
    vector drawn from ``default_rng(seeds[b])``.  One sparse product serves
    every block.  A block stops once its relative residual has stayed under
    ``tol`` for more than 20 iterations, at its first rho == 0 (B v = 0), or
    at ``max_iter``.  The stopping rule is evaluated only at the iterations
    where some block can first meet it (21 minus the largest current run of
    small residuals), from the rho values recorded since the last check, so
    a block never runs past its stop.  A stopped block's data are
    overwritten by the last active block's, in L's own data array (whose
    blocks end in no useful order: pass a matrix built for the call), and
    the products run on the prefix of the active blocks.

    The products are the compiled kernels behind scipy's ``@``, called
    directly: the adjoint reads L's index arrays in the other layout (CSC
    as CSR, or CSR as CSC), on data conjugated once per call, and each
    product adds into its own zero-filled buffer, allocated once per call.
    Every reduction is one dot per block, so each result is bit-identical
    to the k = 1 call on that block alone.  Rayleigh quotients of the PSD
    operator increase, so the last value is the best certified one."""
    k = len(seeds)
    dout, din = L.shape[0] // k, L.shape[1] // k
    if L.shape != (k * dout, k * din):  # the kernels check no bounds
        raise ValueError(f"{L.shape} is not {k} blocks of one shape")
    if din == 0:
        return [(0.0, 0, 0.0, True)] * k
    fwd, adj = ((csc_matvec, csr_matvec) if L.format == "csc"
                else (csr_matvec, csc_matvec))
    complex_data = np.iscomplexobj(L.data)
    v = np.empty((k, din), dtype=complex if complex_data else float)
    # the kernels compute in the data's type, which must be the iterates'
    fwd_data = L.data.astype(v.dtype, copy=False).reshape(k, -1)
    adj_data = fwd_data.conj() if complex_data else fwd_data
    for b, s in enumerate(seeds):
        rng = np.random.default_rng(s)
        x = rng.standard_normal(din)
        if complex_data:
            x = x + 1j * rng.standard_normal(din)
        v[b] = x / np.linalg.norm(x)
    w = np.empty((k, dout), dtype=v.dtype)
    results = [None] * k
    active = k
    ids = np.arange(k)
    rho_prev = np.full(k, -1.0)
    residual = np.full(k, math.inf)
    confirmations = np.zeros(k, dtype=np.int64)
    # rho_prev, then rho at each iteration since (complex for complex data,
    # with zero imaginary parts, so that vecdot writes into it)
    record = np.empty((22, k), dtype=v.dtype)
    it = 0
    # a block with B v = 0 turns to nan after that iteration; the next
    # check stops it at its first zero rho
    with np.errstate(divide="ignore", invalid="ignore"):
        while it < max_iter and active:
            first = it + 1
            check = min(max_iter, it + 21 - int(confirmations.max()))
            record[0, :active] = rho_prev
            rows, cols = active * dout, active * din
            va, wa = v[:active], w[:active]
            for j, it in enumerate(range(first, check + 1), 1):
                wa.fill(0)
                fwd(rows, cols, L.indptr, L.indices, fwd_data, va, wa)
                np.vecdot(wa, wa, out=record[j, :active])
                va.fill(0)
                adj(cols, rows, L.indptr, L.indices, adj_data, wa, va)
                va /= np.sqrt(np.vecdot(va, va).real)[:, None]
            rho = record[:j + 1, :active].real
            resid = np.abs(rho[1:] - rho[:-1]) / rho[1:]
            rho_prev, residual = rho[-1].copy(), resid[-1]
            small = resid < tol
            # the run of small residuals ending at this check, extending
            # the previous run when every residual since is small
            confirmations = np.where(small.all(axis=0), confirmations + j,
                                     np.argmin(small[::-1], axis=0))
            stopped = ~(rho_prev > 0.0)
            done = stopped | (confirmations > 20)
            if not done.any():
                continue
            for p in np.flatnonzero(done)[::-1]:
                if stopped[p]:
                    at = first + int(np.argmax(rho[1:, p] == 0.0))
                    results[ids[p]] = (0.0, at, 0.0, True)
                else:
                    results[ids[p]] = (float(rho_prev[p]), it,
                                       float(residual[p]), True)
                active -= 1  # the last active block takes its place
                for arr in (ids, rho_prev, residual, confirmations, v,
                            fwd_data, adj_data):
                    arr[p] = arr[active]
            ids, rho_prev, residual, confirmations = (
                ids[:active], rho_prev[:active], residual[:active],
                confirmations[:active])
    for p in range(active):
        results[ids[p]] = (float(rho_prev[p]), it, float(residual[p]), False)
    return results


def lambda_norm_lower(f: FinSuppFun, radius: int, tol: float = 1e-9,
                      max_iter: int = 2000, seed: int = 0,
                      budget: int = DEFAULT_BUDGET) -> SpectralEstimate:
    """Certified lower bound for ||lambda(f)|| from the radius-``radius``
    compression of lambda(f), built for this call over the support of f.
    Deterministic for fixed (f, radius, seed).

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
    grower = _get_grower(f.group)
    support = [grower.index(x.data, budget) for x in f.values]
    try:
        conv = CompressedConvolution(f.group, support, radius, budget=budget)
    except BudgetExceededError as exc:
        partial = SpectralEstimate(l2, l1, l2, radius, 0, 1.0, False)
        raise BudgetExceededError(str(exc), radius_reached=exc.radius_reached,
                                  partial=partial) from exc
    coeffs = np.array(list(f.values.values()))
    if f.is_real():
        coeffs = coeffs.real
    L = conv.matrix(coeffs)
    rho, iters, residual, converged = _power_iteration(L, tol, max_iter,
                                                       [seed])[0]
    lower = math.sqrt(max(rho, 0.0))
    lower = min(max(lower, l2), l1)
    return SpectralEstimate(lower, l1, l2, radius, iters, residual, converged)


class RdSample(NamedTuple):
    n: int
    l2: float
    lam_lower: float
    ratio: float
    iterations: int = 0
    converged: bool = True


# rd_test solves its samples in blocks of about this many matrix entries:
# one block-diagonal matrix of max(1, _BLOCK_ENTRIES // nnz) samples, so
# that one sparse product serves them all.  It bounds the block's data (8
# bytes an entry) and index tile (4) and, with them, its iterates.
_BLOCK_ENTRIES = 1 << 16


def rd_test(group: GroupSpec, n: int, samples: int, seed: int = 0,
            tol: float = 1e-8, max_iter: int = 600,
            budget: int = DEFAULT_BUDGET) -> list[RdSample]:
    """Ratios ||lambda(f)||_lower / ||f||_2 for random nonnegative f on B_n.

    Deterministic under a fixed seed: the coefficients of sample s are the
    s-th draw of |B_n| uniforms from ``default_rng(seed)``, and its power
    iteration starts from seed ``seed + 1 + s``, whatever the block width.
    Each sample's lower bound comes from the compression to B_radius with
    radius = max(2n, 8).  Rapid decay with exponent a bounds these ratios
    by C (1+n)^a; Cauchy-Schwarz always bounds them by |B_n|^0.5.  More
    than ``budget`` coefficients (samples x |B_n|) raise
    ``BudgetExceededError`` before any is drawn.
    """
    if n < 0 or samples < 1:
        raise InputError("need n >= 0 and at least one sample")
    radius = max(2 * n, 8)
    bn = ball(group, n, budget=budget)
    if samples * len(bn) > budget:
        raise BudgetExceededError(
            f"rd sample budget {budget} exceeded: {samples} samples x "
            f"{len(bn)} ball elements")
    # growth order lists B_n first, so its indices are 0 .. |B_n| - 1
    conv = CompressedConvolution(group, range(len(bn)), radius, budget=budget)
    width = max(1, _BLOCK_ENTRIES // conv.nnz)
    rng = np.random.default_rng(seed)
    out: list[RdSample] = []
    for first in range(0, samples, width):
        block = rng.uniform(0.0, 1.0,
                            size=(min(width, samples - first), len(bn)))
        seeds = range(seed + 1 + first, seed + 1 + first + len(block))
        solves = _power_iteration(conv.matrix(block), tol, max_iter, seeds)
        for coeffs, (rho, iters, _, converged) in zip(block, solves):
            l2 = float(np.linalg.norm(coeffs))
            lam = min(math.sqrt(max(rho, 0.0)), float(coeffs.sum()))
            lam = max(lam, l2)
            out.append(RdSample(n, l2, lam, lam / l2, iters, converged))
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
