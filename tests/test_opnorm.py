"""Truncated convolution norms, RD ratios, and the compression against
entry-by-entry references."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import eigsh

from tamecuts.cuts import (
    cut_ball,
    cut_bs,
    cut_lamplighter,
    cut_pq,
    cut_semidirect_zd,
    verify_cut,
)
from tamecuts.errors import BudgetExceededError, InputError
from tamecuts.groups import (
    Element,
    GroupSpec,
    ball,
    generators,
    identity,
    multiply,
    word_length,
)
from tamecuts import opnorm
from tamecuts.groups import balls as balls_mod
from tamecuts.opnorm import (
    FinSuppFun,
    SpectralEstimate,
    lambda_norm_lower,
    rd_fit,
    rd_test,
    RdSample,
)

Z1 = GroupSpec.free_abelian(1)
Z2 = GroupSpec.free_abelian(2)


class CompressedConvolution(opnorm.CompressedConvolution):
    """The library's compression over a support given as ``Element``s,
    converted here to the ball indices the library takes."""

    def __init__(self, group, support, radius, **kwargs):
        grower = balls_mod._get_grower(group)
        super().__init__(group, [grower.index(y.data) for y in support],
                         radius, **kwargs)


def eigsh_oracle(group, values: dict, radius: int) -> float:
    """Independent compression norm: same operator, assembled by hand and fed
    to a Lanczos eigensolver instead of the library's power iteration."""
    deg = max(word_length(y) for y in values)
    bin_ = list(ball(group, radius))
    bout = {x: i for i, x in enumerate(ball(group, radius + deg))}
    rows, cols, data = [], [], []
    for y, v in values.items():
        for i, x in enumerate(bin_):
            rows.append(bout[multiply(y, x)])
            cols.append(i)
            data.append(v)
    L = sp.csr_matrix((data, (rows, cols)), shape=(len(bout), len(bin_)))
    A = (L.conjugate().T @ L).tocsr()
    top = eigsh(A, k=1, which="LA", return_eigenvectors=False, tol=1e-13)[0]
    return math.sqrt(max(float(top), 0.0))


def transform_sup(coeffs: dict, grid=1 << 16) -> float:
    t = np.arange(grid) / grid
    vals = np.zeros(grid, dtype=complex)
    for k, c in coeffs.items():
        vals += c * np.exp(2j * np.pi * k * t)
    return float(np.abs(vals).max())


def z_fun(coeffs: dict) -> FinSuppFun:
    return FinSuppFun(Z1, {Element(Z1, (k,)): v for k, v in coeffs.items()})


def test_delta_is_one_at_any_radius():
    for radius in (0, 3, 16):
        est = lambda_norm_lower(FinSuppFun.delta(Z1), radius)
        assert est.lower == 1.0
        assert est.l1_upper == 1.0 and est.l2_lower == 1.0
        assert est.converged


def test_power_iteration_matches_eigsh_oracle():
    """The library's power iteration agrees with an independent Lanczos
    solve of the same compression, on Z and Z^2."""
    f1 = FinSuppFun.indicator(Z1, ball(Z1, 1))
    est = lambda_norm_lower(f1, 24, tol=1e-12, max_iter=4000)
    oracle = eigsh_oracle(Z1, f1.values, 24)
    assert abs(est.lower - oracle) < 1e-7

    f2 = FinSuppFun.indicator(Z2, ball(Z2, 1))
    est2 = lambda_norm_lower(f2, 16, tol=1e-12, max_iter=4000)
    oracle2 = eigsh_oracle(Z2, f2.values, 16)
    assert abs(est2.lower - oracle2) < 1e-7


def test_truncation_is_true_lower_bound_with_known_gap():
    """The radius-64 compression of 1_{B_1} sits just below the transform
    supremum: certified below it, within the Theta(R^-2) truncation gap."""
    est = lambda_norm_lower(FinSuppFun.indicator(Z1, ball(Z1, 1)), 64,
                            tol=1e-11, max_iter=6000)
    assert est.lower <= 3.0 + 1e-12
    assert 3.0 - est.lower < 2e-3  # measured gap ~5.8e-4
    est2 = lambda_norm_lower(FinSuppFun.indicator(Z2, ball(Z2, 1)), 64,
                             tol=1e-11, max_iter=8000)
    assert est2.lower <= 5.0 + 1e-12
    assert 5.0 - est2.lower < 5e-3  # measured gap ~2.3e-3


def test_abelian_oracle_agreement_band():
    """On Z, the radius-64 lower bound brackets the transform supremum from
    below within the truncation gap for random f supported in B_8."""
    rng = np.random.default_rng(12)
    for _ in range(30):
        coeffs = {k: float(v) for k, v in
                  zip(range(-8, 9), rng.uniform(0.0, 1.0, 17))}
        f = z_fun(coeffs)
        est = lambda_norm_lower(f, 64, tol=1e-10, max_iter=3000)
        sup = transform_sup(coeffs)
        assert est.lower <= sup + 1e-8
        assert sup - est.lower <= 0.15


def test_monotone_in_truncation_radius():
    f = FinSuppFun.indicator(Z2, ball(Z2, 1))
    vals = [lambda_norm_lower(f, r, tol=1e-10, max_iter=3000).lower
            for r in (2, 4, 8, 16, 32)]
    for a, b in zip(vals, vals[1:]):
        assert a <= b + 1e-9


def test_sandwich_l2_lower_l1():
    rng = np.random.default_rng(5)
    for _ in range(20):
        coeffs = {int(k): complex(rng.normal(), rng.normal())
                  for k in rng.choice(np.arange(-5, 6), size=4, replace=False)}
        f = z_fun(coeffs)
        est = lambda_norm_lower(f, 12, tol=1e-9)
        assert est.l2_lower - 1e-12 <= est.lower <= est.l1_upper + 1e-12


def test_unconverged_flag():
    f = FinSuppFun.indicator(Z1, ball(Z1, 2))
    est = lambda_norm_lower(f, 48, tol=1e-14, max_iter=3)
    assert not est.converged
    assert est.iterations == 3
    assert est.lower <= est.l1_upper


def test_rd_examples_and_bound():
    est = lambda_norm_lower(FinSuppFun.delta(Z2), 4)
    assert est.lower / est.l2_lower == 1.0
    rows = []
    for n in range(1, 6):
        rows.extend(rd_test(Z2, n, samples=20, seed=3))
    for row in rows:
        size = 2 * row.n ** 2 + 2 * row.n + 1
        assert row.ratio <= math.sqrt(size) + 1e-9
        assert row.ratio >= 1.0 - 1e-12
    # deterministic under the seed
    again = rd_test(Z2, 2, samples=20, seed=3)
    assert again == [r for r in rows if r.n == 2]


def test_rd_flat_function_saturates():
    """1_{B_n} on Z has norm 2n+1 and l2 norm sqrt(2n+1)."""
    for n in (2, 4, 8):
        f = FinSuppFun.indicator(Z1, ball(Z1, n))
        est = lambda_norm_lower(f, 8 * n, tol=1e-10, max_iter=4000)
        ratio = est.lower / est.l2_lower
        assert ratio <= math.sqrt(2 * n + 1) + 1e-9
        assert ratio >= math.sqrt(2 * n + 1) * 0.98


def test_rd_fit_cases():
    flat = [RdSample(n, 1.0, 1.0, 1.0) for n in range(1, 6)]
    c, a = rd_fit(flat)
    assert c == 1.0 and a == 0.0
    # closed-form saturating ratios sqrt(2n+1) over a window where the
    # log-log slope has settled near 1/2
    synth = [RdSample(n, 1.0, math.sqrt(2 * n + 1), math.sqrt(2 * n + 1))
             for n in range(8, 65)]
    _, a = rd_fit(synth)
    assert abs(a - 0.5) <= 0.05
    with pytest.raises(InputError):
        rd_fit(synth[:2])


def test_nonabelian_paths():
    """The estimator is group-agnostic: sandwich and radius monotonicity on
    a lamplighter and a Baumslag-Solitar group."""
    lamp = GroupSpec.lamplighter(2)
    f = FinSuppFun.indicator(lamp, ball(lamp, 1))
    vals = []
    for r in (2, 4, 6):
        est = lambda_norm_lower(f, r, tol=1e-9, max_iter=1500)
        assert est.l2_lower - 1e-12 <= est.lower <= est.l1_upper + 1e-12
        vals.append(est.lower)
    assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))

    bs = GroupSpec.baumslag_solitar(2, 3)
    g = FinSuppFun.indicator(bs, ball(bs, 1))
    est = lambda_norm_lower(g, 4, tol=1e-9, max_iter=1500)
    assert est.l2_lower - 1e-12 <= est.lower <= est.l1_upper + 1e-12
    rows = rd_test(lamp, 2, samples=10, seed=1)
    for row in rows:
        assert 1.0 - 1e-12 <= row.ratio <= math.sqrt(len(ball(lamp, 2))) + 1e-9


def test_finsuppfun_validation():
    with pytest.raises(InputError):
        FinSuppFun(Z1, {identity(Z2): 1.0})
    f = FinSuppFun(Z1, {identity(Z1): 0.0})
    assert len(f) == 0
    est = lambda_norm_lower(f, 4)
    assert est.lower == 0.0


# ---------------------------------------------------------------------------
# the table-gathered compression against an entry-by-entry reference


def reference_csr(group, support, radius):
    """CSR arrays of the compression assembled entry by entry from
    ``multiply(y, x)``, with no Cayley table: (indptr, indices, yidx), where
    yidx[k] is the support position whose coefficient entry k holds."""
    deg = max(word_length(y) for y in support)
    bin_ = list(ball(group, radius))
    out_index = {x: i for i, x in enumerate(ball(group, radius + deg))}
    entries = sorted((out_index[multiply(y, x)], i, s)
                     for s, y in enumerate(support) for i, x in enumerate(bin_))
    indptr = np.zeros(len(out_index) + 1, dtype=np.int64)
    for row, _, _ in entries:
        indptr[row + 1] += 1
    return (np.cumsum(indptr), np.array([e[1] for e in entries]),
            np.array([e[2] for e in entries]))


def assert_matches_reference(group, support, radius):
    conv = CompressedConvolution(group, support, radius)
    coeffs = np.arange(1.0, len(support) + 1.0)
    L = conv.matrix(coeffs).tocsr()
    indptr, indices, yidx = reference_csr(group, support, radius)
    assert np.array_equal(L.indptr, indptr)
    assert np.array_equal(L.indices, indices)
    assert np.array_equal(L.data, coeffs[yidx])


PROBE_CUTS = {
    "free_abelian": lambda: cut_ball(Z2, 2),
    "semidirect_zd": lambda: cut_semidirect_zd([[2, 1], [1, 1]], 2),
    "pq": lambda: cut_pq(2, 3, 2),
    "lamplighter": lambda: cut_lamplighter(2, 2),
    "baumslag_solitar": lambda: cut_bs(2, 3, 2),
}


def verify_probe_supports(family):
    """The group of the family's probe cut and two supports on it: the
    identity alone, and the cut's members in B_2, in ball order."""
    cut = PROBE_CUTS[family]()
    group = cut.group
    return group, [[identity(group)],
                   [x for x in ball(group, 2) if x in cut]]


@pytest.mark.parametrize("family", sorted(PROBE_CUTS))
def test_compression_matches_reference_on_verify_probes(family):
    """The probe-cut supports at radius 8."""
    group, supports = verify_probe_supports(family)
    for support in supports:
        assert_matches_reference(group, support, 8)


def block_diag_csr(indptr, indices, datas, ncols):
    """Block-diagonal CSR matrix with one copy of the reference pattern
    (indptr, indices) per entry of ``datas``, the b-th shifted by b rows
    and b*ncols columns of the pattern."""
    k, nrows, nnz = len(datas), len(indptr) - 1, indptr[-1]
    ptr = np.concatenate([indptr[:-1] + b * nnz for b in range(k)]
                         + [[k * nnz]])
    idx = np.concatenate([indices + b * ncols for b in range(k)])
    return sp.csr_matrix((np.concatenate(datas), idx, ptr),
                         shape=(k * nrows, k * ncols))


@pytest.mark.parametrize("family", sorted(PROBE_CUTS) + ["rd_test"])
def test_power_iteration_bit_identical_to_reference_csr(family):
    """The power iteration on the compression returns exactly what it
    returns on the row-sorted CSR matrix assembled from the reference
    arrays, for real and complex coefficients: every matvec adds each output
    entry's terms in the same order.  Cases: the probe-cut supports at
    radius 8 and tolerance 1e-6, and rd_test's Z^2 support B_2 at radius 8;
    each as one block, and as three blocks of the block-diagonal CSC
    against the block-diagonal CSR built from the reference arrays."""
    if family == "rd_test":
        group, supports = Z2, [list(ball(Z2, 2))]
    else:
        group, supports = verify_probe_supports(family)
    rng = np.random.default_rng(17)
    for support in supports:
        conv = CompressedConvolution(group, support, 8)
        indptr, indices, yidx = reference_csr(group, support, 8)
        real = rng.uniform(0.0, 1.0, len(support))
        for c in (real, real + 1j * rng.uniform(-1.0, 1.0, len(support))):
            ref = sp.csr_matrix((c[yidx], indices, indptr),
                                shape=(len(indptr) - 1, conv.dim_in))
            assert (opnorm._power_iteration(conv.matrix(c), 1e-6, 2000, [0])
                    == opnorm._power_iteration(ref, 1e-6, 2000, [0]))
        rows = rng.uniform(0.0, 1.0, (3, len(support)))
        for block in (rows, rows + 1j * rng.uniform(-1.0, 1.0, rows.shape)):
            ref = block_diag_csr(indptr, indices, [c[yidx] for c in block],
                                 conv.dim_in)
            assert (opnorm._power_iteration(conv.matrix(block), 1e-6, 2000,
                                            [0, 1, 2])
                    == opnorm._power_iteration(ref, 1e-6, 2000, [0, 1, 2]))


@pytest.mark.parametrize("layout", ["csc", "csr"])
def test_kernel_products_match_public_products(layout):
    """The compiled kernels, called as ``_power_iteration`` calls them, give
    scipy's public ``L @ v`` and ``L.conjugate().T @ w`` byte for byte, so
    a change to those private kernels fails here.  Cases: the three-block
    compression of Z^2's B_1 at radius 4, in CSC or CSR, with real and
    complex coefficients, on all blocks and on the prefix of the first two
    (the products after a block stops), against the public products of
    that leading submatrix.  A matrix that does not split into as many
    blocks as seeds is refused before any kernel runs."""
    fwd, adj = ((opnorm.csc_matvec, opnorm.csr_matvec) if layout == "csc"
                else (opnorm.csr_matvec, opnorm.csc_matvec))
    conv = CompressedConvolution(Z2, list(ball(Z2, 1)), 4)
    rng = np.random.default_rng(23)
    k, dout, din = 3, conv.dim_out, conv.dim_in
    real = rng.uniform(0.0, 1.0, (k, len(conv.support)))
    for block in (real, real + 1j * rng.uniform(-1.0, 1.0, real.shape)):
        L = conv.matrix(block).asformat(layout)
        dtype = L.data.dtype
        v = rng.standard_normal((k, din)).astype(dtype)
        w = rng.standard_normal((k, dout)).astype(dtype)
        if dtype == complex:
            v += 1j * rng.standard_normal((k, din))
            w += 1j * rng.standard_normal((k, dout))
        for active in (k, 2):
            rows, cols = active * dout, active * din
            sub = L if active == k else L[:rows, :cols]
            got_w = np.empty((k, dout), dtype=dtype)[:active]
            got_w.fill(0)
            fwd(rows, cols, L.indptr, L.indices, L.data, v[:active], got_w)
            assert got_w.tobytes() == (sub @ v[:active].ravel()).tobytes()
            got_v = np.empty((k, din), dtype=dtype)[:active]
            got_v.fill(0)
            adj(cols, rows, L.indptr, L.indices, L.data.conj(), w[:active],
                got_v)
            assert got_v.tobytes() == (
                sub.conjugate().T @ w[:active].ravel()).tobytes()
    with pytest.raises(ValueError):  # 3 blocks of B_4, 41 columns each
        opnorm._power_iteration(conv.matrix(real), 1e-6, 10, [0, 1])


def sequential_power_iteration(L, tol, max_iter, seed):
    """One power iteration at a time, written out independently of the
    library: (rho, iterations, residual, converged)."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(L.shape[1])
    if np.iscomplexobj(L.data):
        v = v + 1j * rng.standard_normal(L.shape[1])
    v = v / np.linalg.norm(v)
    Lh = L.conjugate().T
    rho_prev, residual, run = -1.0, math.inf, 0
    for it in range(1, max_iter + 1):
        w = L @ v
        rho = float(np.vdot(w, w).real)
        if rho == 0.0:
            return 0.0, it, 0.0, True
        u = Lh @ w
        v = u / np.linalg.norm(u)
        residual = abs(rho - rho_prev) / rho
        rho_prev = rho
        run = run + 1 if residual < tol else 0
        if run > 20:
            return rho, it, residual, True
    return rho_prev, max_iter, residual, False


def sequential_rd(group, n, samples, seed, tol, max_iter=600):
    """rd_test's ratios and solver diagnostics, one sample at a time."""
    support = list(ball(group, n))
    conv = CompressedConvolution(group, support, max(2 * n, 8))
    rng = np.random.default_rng(seed)
    out = []
    for s in range(samples):
        coeffs = rng.uniform(0.0, 1.0, size=len(support))
        l2 = float(np.linalg.norm(coeffs))
        rho, iters, _, converged = sequential_power_iteration(
            conv.matrix(coeffs), tol, max_iter, seed + 1 + s)
        lam = max(min(math.sqrt(rho), float(coeffs.sum())), l2)
        out.append((lam / l2, iters, converged))
    return out


BATCH_GROUPS = [Z2, GroupSpec.lamplighter(2)]


@pytest.mark.parametrize("group", BATCH_GROUPS, ids=lambda g: g.family)
def test_power_iteration_batch_invariant(group):
    """Every block of a k = 3 or k = 7 block-diagonal solve returns, bit for
    bit, what the k = 1 call on that block alone returns, for real and
    complex coefficients.  The rows stop at different iterations (the real
    zero row at the first, the tighter tolerance leaves some at max_iter),
    so blocks leave the active set in every position."""
    conv = CompressedConvolution(group, list(ball(group, 1)), 8)
    rng = np.random.default_rng(3)
    real = rng.uniform(0.0, 1.0, (7, len(conv.support)))
    real[4] = 0.0
    seeds = [11 + 5 * b for b in range(7)]
    for coeffs in (real, real + 1j * rng.uniform(-1.0, 1.0, real.shape)):
        for tol, max_iter in ((1e-6, 2000), (1e-8, 200)):
            single = [opnorm._power_iteration(conv.matrix(c), tol, max_iter,
                                              [s])[0]
                      for c, s in zip(coeffs, seeds)]
            assert len({r[1] for r in single}) >= 3
            if max_iter == 200:
                assert {r[3] for r in single} == {True, False}
            if coeffs is real:
                assert single[4] == (0.0, 1, 0.0, True)
            for k in (3, 7):
                for first in range(0, 7, k):
                    block = opnorm._power_iteration(
                        conv.matrix(coeffs[first:first + k]), tol, max_iter,
                        seeds[first:first + k])
                    assert block == single[first:first + k]


@pytest.mark.parametrize("group", BATCH_GROUPS, ids=lambda g: g.family)
def test_rd_test_matches_sequential_loop(group):
    """rd_test's blocked solves against the per-sample loop written above:
    the same iteration counts and convergence flags, ratios within 1e-13
    relative, at a block width that leaves a partial last block."""
    for n in (1, 2):
        rows = rd_test(group, n, samples=23, seed=5, tol=1e-8)
        ref = sequential_rd(group, n, 23, 5, 1e-8)
        assert [(r.iterations, r.converged) for r in rows] == \
            [(it, conv) for _, it, conv in ref]
        for row, (ratio, _, _) in zip(rows, ref):
            assert abs(row.ratio - ratio) <= 1e-13 * ratio


def test_rd_unconverged_count_matches_sequential_loop():
    """Lamplighter(2), n = 1, seed 0: some samples stop at max_iter, and
    rd_test reports as many unconverged samples as the sequential loop."""
    rows = rd_test(GroupSpec.lamplighter(2), 1, samples=100, seed=0)
    ref = sequential_rd(GroupSpec.lamplighter(2), 1, 100, 0, 1e-8)
    unconverged = sum(not r.converged for r in rows)
    assert unconverged == sum(not conv for _, _, conv in ref)
    assert unconverged > 0
    assert all(r.iterations == 600 for r in rows if not r.converged)


REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs"


@pytest.mark.parametrize("argv", [
    "rd-fit --group lamplighter --p 2 --nmax 4 --samples 100 --seed 0",
    "rd-fit --group free_abelian --d 2 --nmax 6 --samples 100 --seed 0",
])
def test_rd_matches_benchmark_reference(argv):
    """max_ratio_per_n for n <= 2 recomputed from rd_test agrees with the
    recorded benchmark reference at its relative tolerance 1e-9, so a solver
    change that would move the rd-sampling references fails here."""
    report = json.loads((REFS / "rd-sampling.json").read_text())[argv]["report"]
    config = report["config"]
    group = (GroupSpec.lamplighter(config["p"]) if config["group"] == "lamplighter"
             else GroupSpec.free_abelian(config["d"]))
    recorded = report["results"][0]["max_ratio_per_n"]
    for n in (1, 2):
        rows = rd_test(group, n, config["samples"], seed=config["seed"],
                       tol=config["tol"])
        got = max(r.ratio for r in rows)
        assert abs(got - recorded[str(n)]) <= 1e-9 * recorded[str(n)]


def count_builds(monkeypatch) -> list:
    """Replace opnorm.CompressedConvolution by a subclass that appends to
    the returned list on every build."""
    builds = []

    class CountingConvolution(opnorm.CompressedConvolution):
        def __init__(self, *args, **kwargs):
            builds.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(opnorm, "CompressedConvolution", CountingConvolution)
    return builds


def test_cuts_build_no_compression(monkeypatch):
    """verify_cut and cut_ball take their lower bounds from the cut's own
    values and never build a compression."""
    builds = count_builds(monkeypatch)
    for make in PROBE_CUTS.values():
        assert verify_cut(make()).norm_lower == 1.0
    for group in (GroupSpec.lamplighter(2), GroupSpec.pq(2, 3),
                  GroupSpec.baumslag_solitar(2, 3)):
        assert cut_ball(group, 2).certificate.lower == 1.0
    assert builds == []


@pytest.mark.parametrize("group", [Z2, GroupSpec.lamplighter(2)],
                         ids=lambda g: g.family)
def test_compression_matches_reference_on_rd_support(group):
    """rd_test's support (all of B_n) at its default radius max(2n, 8)."""
    assert_matches_reference(group, list(ball(group, 2)), 8)


SPECS = [Z2, GroupSpec.semidirect_zd([[2, 1], [1, 1]]), GroupSpec.pq(2, 3),
         GroupSpec.lamplighter(3), GroupSpec.baumslag_solitar(2, 3)]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(family=st.integers(0, len(SPECS) - 1), radius=st.integers(0, 3),
       words=st.lists(st.lists(st.integers(0, 63), max_size=3),
                      min_size=1, max_size=4))
def test_compression_matches_reference_on_random_words(family, radius, words):
    spec = SPECS[family]
    gens = [g for _, g in generators(spec)]
    support = {}
    for word in words:
        x = identity(spec)
        for letter in word:
            x = multiply(x, gens[letter % len(gens)])
        support[x] = None
    assert_matches_reference(spec, list(support), radius)


def test_compressions_look_up_each_support_element_at_most_once(monkeypatch):
    """rd_test's support is the first |B_n| indices of the growth order, so
    it builds its compression with no ``word_length`` call and no sorted
    lookup (``find_row``; 44 support elements on lamplighter(2) at n = 4);
    lambda_norm_lower converts each support element of f to its index with
    one lookup."""
    counts = {"word_length": 0, "find_row": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(balls_mod, "word_length",
                        counted("word_length", balls_mod.word_length))
    monkeypatch.setattr(balls_mod._BallGrower, "find_row",
                        counted("find_row", balls_mod._BallGrower.find_row))
    group = GroupSpec.lamplighter(2)
    assert len(rd_test(group, 4, samples=1)) == 1
    assert len(ball(group, 4)) == 44
    assert counts == {"word_length": 0, "find_row": 0}
    f = FinSuppFun.indicator(group, ball(group, 2))
    lambda_norm_lower(f, 4)
    assert counts == {"word_length": 0, "find_row": len(f)} and len(f) == 10


def test_compression_refuses_indices_of_no_grown_element():
    """A support index past the grown elements is refused before the
    output ball grows; the same index, once grown, builds."""
    balls_mod._growers.clear()
    count = len(ball(Z2, 4))
    grower = balls_mod._get_grower(Z2)
    with pytest.raises(InputError):
        opnorm.CompressedConvolution(Z2, [0, 10 ** 6], 2)
    assert grower.radius == 4
    conv = opnorm.CompressedConvolution(Z2, [count - 1], 2)
    assert conv.degree == 4 and conv.dim_out == len(ball(Z2, 6))


def test_compression_entry_budget():
    """25 support elements x |B_40| = 3281 entries exceed a budget that
    every ball involved fits; the error carries the l2/l1 bracket."""
    f = FinSuppFun.indicator(Z2, ball(Z2, 3))
    with pytest.raises(BudgetExceededError) as exc:
        lambda_norm_lower(f, 40, budget=50_000)
    partial = exc.value.partial
    assert isinstance(partial, SpectralEstimate)
    assert (partial.lower, partial.l2_lower, partial.l1_upper) == (5.0, 5.0, 25.0)
    assert partial.iterations == 0 and not partial.converged
    with pytest.raises(BudgetExceededError):
        CompressedConvolution(Z2, list(ball(Z2, 3)), 40, budget=82_024)
    assert CompressedConvolution(Z2, [identity(Z2)], 40, budget=50_000).dim_in == 3281
