"""Truncated convolution norms, RD ratios, and multiplier lower bounds."""

import math

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
from tamecuts.fourier import TrigPoly, a_norm_torus, dirichlet_l1
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
from tamecuts.opnorm import (
    CompressedConvolution,
    FinSuppFun,
    SpectralEstimate,
    default_probes,
    lambda_norm_lower,
    ma_ball_norm_lower,
    multiplier_lower,
    rd_fit,
    rd_test,
    RdSample,
)

Z1 = GroupSpec.free_abelian(1)
Z2 = GroupSpec.free_abelian(2)


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
    conv = CompressedConvolution(Z1, list(ball(Z1, 8)), 64)
    for _ in range(30):
        coeffs = {k: float(v) for k, v in
                  zip(range(-8, 9), rng.uniform(0.0, 1.0, 17))}
        f = z_fun(coeffs)
        est = lambda_norm_lower(f, 64, tol=1e-10, max_iter=3000,
                                conv=conv if len(f.values) == 17 else None)
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


def test_multiplier_lower_examples():
    bn = ball(Z1, 4)
    probes = default_probes(Z1, 4, count=2, seed=1)
    # phi identically 1 on a superset of every probe support
    val = multiplier_lower(lambda x: 1.0, probes, radius=8)
    assert abs(val - 1.0) < 1e-9
    # phi = delta_0: m_phi f = f(0) delta_0, norm 1, attained at the delta probe
    phi = FinSuppFun.delta(Z1)
    val = multiplier_lower(phi, probes, radius=8)
    assert abs(val - 1.0) < 1e-9
    # interval cut: at least 1, at most the certified A-norm upper bound
    n = 4
    cut_fn = lambda x: 1.0 if abs(x.data[0]) <= n else 0.0
    probes_wide = default_probes(Z1, 4 * n, count=3, seed=2)
    val = multiplier_lower(cut_fn, probes_wide, radius=24)
    assert 1.0 - 1e-9 <= val <= dirichlet_l1(n).upper + 1e-6


def test_multiplier_lower_below_a_norm_upper():
    """On abelian groups the multiplier norm equals the Fourier-algebra
    norm, so the empirical lower bound must respect the certified upper."""
    rng = np.random.default_rng(9)
    probes = default_probes(Z1, 6, count=3, seed=4)
    for _ in range(5):
        keys = rng.choice(np.arange(-4, 5), size=3, replace=False)
        coeffs = {int(k): float(rng.uniform(0.2, 1.0)) for k in keys}
        phi = z_fun(coeffs)
        upper = a_norm_torus(TrigPoly(coeffs), tol=1e-7).upper
        val = multiplier_lower(phi, probes, radius=16)
        assert val <= upper + 1e-6


def test_ma_ball_norm_lower():
    probes_in = [FinSuppFun.delta(Z1),
                 FinSuppFun.indicator(Z1, ball(Z1, 3))]
    val = ma_ball_norm_lower(lambda x: 1.0, Z1, 3, probes_in, radius=8)
    assert abs(val - 1.0) < 1e-9
    # 1_{B_m} with m >= n acts as the identity on admissible probes
    for m in (3, 5):
        fn = lambda x, mm=m: 1.0 if abs(x.data[0]) <= mm else 0.0
        assert abs(ma_ball_norm_lower(fn, Z1, 3, probes_in, radius=8) - 1.0) < 1e-9
    # probe support outside B_n is an input error
    wide = [FinSuppFun.indicator(Z1, ball(Z1, 5))]
    with pytest.raises(InputError):
        ma_ball_norm_lower(lambda x: 1.0, Z1, 3, wide, radius=8)
    # restricted probes never beat unrestricted ones
    phi = lambda x: 1.0 if abs(x.data[0]) <= 2 else 0.0
    wide_probes = probes_in + [FinSuppFun.indicator(Z1, ball(Z1, 6))]
    v_restricted = ma_ball_norm_lower(phi, Z1, 3, probes_in, radius=10)
    v_unrestricted = multiplier_lower(phi, wide_probes, radius=10)
    assert v_restricted <= v_unrestricted + 1e-12


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
    L = conv.matrix(coeffs)
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


@pytest.mark.parametrize("family", sorted(PROBE_CUTS))
def test_compression_matches_reference_on_verify_probes(family):
    """The supports verify_cut hands to lambda_norm_lower (cut times each
    default probe), at its probe radius 8."""
    cut = PROBE_CUTS[family]()
    supports = {}
    for f in default_probes(cut.group, min(cut.index, 2), seed=0):
        g = f.pointwise(cut.indicator())
        if g.values:
            supports[tuple(g.support())] = None
    assert supports
    for support in supports:
        assert_matches_reference(cut.group, list(support), 8)


@pytest.mark.parametrize("family", sorted(PROBE_CUTS))
def test_verify_cut_builds_one_compression_per_support(family, monkeypatch):
    """Of verify_cut's four default probes, the flat and the two random ones
    share a support once the cut is applied: two compressions are built, and
    norm_lower equals the maximum of per-probe bounds each computed on its
    own freshly built compression."""
    cut = PROBE_CUTS[family]()
    phi = cut.indicator()
    expected = max(lambda_norm_lower(f.pointwise(phi), 8, tol=1e-6).lower / f.l1
                   for f in default_probes(cut.group, min(cut.index, 2), seed=0))
    builds = []

    class CountingConvolution(CompressedConvolution):
        def __init__(self, *args, **kwargs):
            builds.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(opnorm, "CompressedConvolution", CountingConvolution)
    report = verify_cut(cut)
    assert len(builds) == 2
    assert report.norm_lower == expected


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
