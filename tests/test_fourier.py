"""Fourier-algebra norms: closed forms, certificates, and invariants."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from tamecuts import fourier
from tamecuts.errors import BudgetExceededError, InputError
from tamecuts.fourier import (
    _BRACKET_SLACK,
    NormCertificate,
    TrigPoly,
    a_norm_torus,
    dirichlet_l1,
    finite_cyclic_a_norm,
    hardy_ratio,
    tensor_norm,
)

L1_CLOSED_FORM = 1 / 3 + 2 * math.sqrt(3) / math.pi  # integral of |1 + 2cos|


def brute_l1_norm(coeffs, grid=1 << 16):
    """Independent quadrature oracle: midpoint rule on a fine fixed grid."""
    t = (np.arange(grid) + 0.5) / grid
    vals = np.zeros(grid, dtype=complex)
    for k, c in coeffs.items():
        kk = k[0] if isinstance(k, tuple) else k
        vals += c * np.exp(2j * np.pi * kk * t)
    return float(np.abs(vals).mean())


def dense_mean_abs(f, m):
    """Reference for the slab quadrature: the whole m^dim grid at once."""
    buf = np.zeros((m,) * f.dim, dtype=complex)
    for k, v in f.coeffs.items():
        buf[tuple(x % m for x in k)] += v
    return float(np.abs(np.fft.ifftn(buf) * (m ** f.dim)).mean())


def tan_sum_lebesgue(r):
    """||D_r||_1 = 1/(2r+1) + (2/pi) sum_{k=1}^{r} tan(pi k/(2r+1)) / k."""
    big_n = 2 * r + 1
    return 1 / big_n + (2 / math.pi) * math.fsum(
        math.tan(math.pi * k / big_n) / k for k in range(1, r + 1))


def random_poly(rng, dim, span, real, extra=None):
    """15 frequencies in -span..span, plus ``extra(first frequency)``."""
    keys = {tuple(int(x) for x in rng.integers(-span, span + 1, size=dim))
            for _ in range(15)}
    if extra is not None:
        keys.add(extra(next(iter(keys))))
    return TrigPoly({k: rng.normal() if real else
                     complex(rng.normal(), rng.normal()) for k in keys},
                    dim=dim)


# (dim, grid, slab points, cosets q).  With q = 1 a coset is the whole first
# axis: on the 20-point 1-D grid frequencies in -25..25 share residues, and a
# key k - m lands on the row of k; slabs of 5 of the 48 columns (2-D) and 7
# of the 400 (3-D) leave a partial last slab.  Each case draws four complex
# and four real coefficient sets.  Real ones keep the columns with last index
# at most m/2, so there slabs of 7 of the 23 columns (m = 45), 120 (m = 15)
# and 220 (m = 20) leave a partial last slab; odd m has no m/2 point.  With
# q >= 2 (cosets of at least 8 points here) one key at the largest span with
# 2*span+1 <= m/q pins the degree, so cosets have m/q points; slabs of 3
# 64-point cosets (1-D) and of 7 columns (2-D, 3-D) leave partial batches.
SLAB_CASES = [(1, 20, None, 1), (1, 256, None, 1), (2, 48, 5 * 48, 1),
              (2, 64, None, 1), (3, 20, 7 * 20, 1), (3, 16, None, 1),
              (1, 21, None, 1), (2, 45, 7 * 45, 1), (3, 15, 7 * 15, 1),
              (1, 256, None, 4), (1, 1024, 3 * 64, 16), (2, 128, 7 * 64, 2),
              (2, 256, None, 4), (3, 32, 7 * 16, 2), (3, 64, None, 4)]


@pytest.mark.parametrize(
    "dim,m,slab,q", SLAB_CASES,
    ids=[f"{d}-{m}-{s}" + (f"-q{q}" if q > 1 else "")
         for d, m, s, q in SLAB_CASES])
def test_slab_mean_matches_dense_reference(dim, m, slab, q, monkeypatch):
    if slab is not None:
        monkeypatch.setattr(fourier, "_SLAB_POINTS", slab)
    monkeypatch.setattr(fourier, "_MIN_COSET", 8)
    lengths = []
    ifft = np.fft.ifft  # ifftn, as in dense_mean_abs, does not come here

    def spy(a, *args, **kwargs):
        lengths.append(a.shape[-1])
        return ifft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", spy)
    span = 25 if q == 1 else (m // q - 1) // 2

    def extra(base):
        if q == 1:  # first coordinates k and k - m land on the same row
            return (base[0] - m,) + base[1:]
        return (span,) + (0,) * (dim - 1)  # the degree is span

    rng = np.random.default_rng(100 + dim * m)
    for real in (False,) * 4 + (True,) * 4:
        f = random_poly(rng, dim, span, real, extra)
        lengths.clear()
        got = fourier._grid_abs_sum(f, m) / m ** dim
        assert set(lengths) == {m // q}
        want = dense_mean_abs(f, m)
        assert math.isclose(got, want, rel_tol=1e-12), (got, want)


# (dim, grid m, span): the m-point sum, then the new points of the 2m grid
# (cosets of at least 8 points).  In the first three the m grid is one coset
# and the 2m grid two cosets of m points, so frequencies alias mod m, mod M
# and mod 2m; (2, 64) goes from one coset to two without aliasing, and the
# last three from two cosets to four.
DOUBLING_CASES = [(1, 10, 25), (2, 12, 25), (3, 8, 25), (1, 128, 25),
                  (2, 64, 25), (2, 128, 25), (3, 32, 7)]


@pytest.mark.parametrize("dim,m,span", DOUBLING_CASES)
def test_doubling_adds_new_points_to_dense_reference(dim, m, span,
                                                    monkeypatch):
    monkeypatch.setattr(fourier, "_MIN_COSET", 8)
    rng = np.random.default_rng(200 + dim * m)
    for real in (False, True) * 2:
        f = random_poly(rng, dim, span, real)
        total = (fourier._grid_abs_sum(f, m)
                 + fourier._grid_abs_sum(f, 2 * m, new_only=True))
        got = total / (2 * m) ** dim
        want = dense_mean_abs(f, 2 * m)
        assert math.isclose(got, want, rel_tol=1e-12), (got, want)


def rank_one(*lines):
    """The polynomial with coefficient lines[0][k_0] * lines[1][k_1] * ...
    at k, each line a {frequency: value} dict."""
    coeffs = {}
    for combo in itertools.product(*(line.items() for line in lines)):
        keys, vals = zip(*combo)
        coeffs[keys] = math.prod(vals)
    return TrigPoly(coeffs, dim=len(lines))


def bumped_square():
    """1 on {-2..2}^2 but 2 at the centre: a product support whose
    coefficients have rank 2."""
    box = TrigPoly.box(2, dim=2)
    return TrigPoly({**box.coeffs, (0, 0): 2.0}, dim=2)


# (polynomial, grid m, whether its coefficients factor).  The weights are
# dyadic multiples of small integers, so their products are exact.
PRODUCT_CASES = {
    "box-2d": (TrigPoly.box(3, dim=2), 32, True),
    "box-3d": (TrigPoly.box(2, dim=3), 16, True),
    "rectangle": (rank_one(dict(zip(range(-2, 4),
                                    (1, 0.5, 2, 3, 0.25, 1.5))),
                           {-1: 2, 0: 1, 1: -0.75}), 32, True),
    "complex-3d": (rank_one({-1: 1 + 1j, 0: 2, 2: -1j},
                            {0: 0.5, 1: 1j, 3: 1 - 1j, 4: 2},
                            {-2: 1, 1: -2 + 1j}), 16, True),
    "rank-2": (bumped_square(), 32, False),
}


@pytest.mark.parametrize("name", PRODUCT_CASES)
def test_product_sum_matches_dense_reference(name, monkeypatch):
    """Coefficients that factor bit for bit are summed as a product of 1-D
    sums, on a full grid and on a doubling's new points, and agree with the
    whole grid transformed at once; the rank-2 square takes the general
    path.  A 1-D sum over m points transforms at most m of them, so the
    factored sums at m and at the new points of 2m (which also takes the
    m-point sums) transform at most 4*dim*m, the general path over half of
    the m^dim grid."""
    f, m, factored = PRODUCT_CASES[name]
    points = []
    ifft = np.fft.ifft

    def spy(a, *args, **kwargs):
        points.append(np.asarray(a).size)
        return ifft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", spy)
    full = fourier._grid_abs_sum(f, m)
    assert math.isclose(full / m ** f.dim, dense_mean_abs(f, m),
                        rel_tol=1e-12)
    total = full + fourier._grid_abs_sum(f, 2 * m, new_only=True)
    assert math.isclose(total / (2 * m) ** f.dim, dense_mean_abs(f, 2 * m),
                        rel_tol=1e-12)
    assert (fourier._product_factors(f) is not None) == factored
    assert (sum(points) <= 4 * f.dim * m) == factored, sum(points)


def test_product_check_allocates_by_support_size():
    """Supports spanning -2048..2048 on both axes are factored, or refused,
    without allocating anything of the 4097^2 span."""
    corners = {(a, b): 1.0 for a in (-2048, 2048) for b in (-2048, 2048)}
    cross = {(a, b): 1.0 for a, b in ((-2048, 0), (2048, 0), (0, -2048),
                                      (0, 2048), (0, 0))}
    tracemalloc.start()
    try:
        factors = fourier._product_factors(TrigPoly(corners, dim=2))
        refused = fourier._product_factors(TrigPoly(cross, dim=2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [g.coeffs for g in factors] == [{(-2048,): 1, (2048,): 1}] * 2
    assert refused is None
    assert peak < 1e6, f"traced peak {peak / 1e6:.1f} MB"


def test_box_grids_are_summed_as_products(monkeypatch):
    """The square of radius 6 reaches the 4096^2 budget grid through 1-D
    sums only: fewer than 10^5 points transformed in all, where its 2-D
    grids hold 2.2e7."""
    points = []
    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn",
                 "irfftn"):
        def spy(a, *args, _func=getattr(np.fft, name), **kwargs):
            points.append(np.asarray(a).size)
            return _func(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, spy)
    with pytest.raises(BudgetExceededError) as exc:
        a_norm_torus(TrigPoly.box(6, dim=2))
    part = exc.value.partial
    assert part.grid == 4096
    assert part.lower <= tan_sum_lebesgue(6) ** 2 <= part.upper
    assert sum(points) < 1e5, sum(points)


def test_doubling_transforms_fewer_points_than_its_final_grid(monkeypatch):
    """Each doubling transforms only the points the previous grid lacks, and
    real coefficients only one point of each mirror pair, so all the grids
    of a 1-D quadrature together cost fewer points than its last grid."""
    points = []
    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn",
                 "irfftn"):
        def spy(a, *args, _func=getattr(np.fft, name), **kwargs):
            points.append(np.asarray(a).size)
            return _func(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, spy)
    rng = np.random.default_rng(7)
    pts = {4096, *(int(k) for k in rng.choice(np.arange(-4096, 4097), 300,
                                              replace=False))}
    cert = a_norm_torus(TrigPoly.indicator(pts))
    first = 1 << 17  # the first grid of 64 * 2^j >= 16 * (4096 + 1) points
    assert cert.grid >= 4 * first, cert.grid  # three grids or more
    assert sum(points) < cert.grid, (sum(points), cert.grid)


def test_quadrature_memory_at_budget():
    """The 4096^2 grid of the r = 2 square is summed without being held, and
    so is that of the same square with a centre coefficient 2, whose rank-2
    coefficients take the general 2-D path and converge on that grid."""
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as exc:
            a_norm_torus(TrigPoly.box(2, dim=2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    part = exc.value.partial
    assert part.grid == 4096
    assert part.lower <= tan_sum_lebesgue(2) ** 2 <= part.upper
    assert peak < 96e6, f"traced peak {peak / 1e6:.1f} MB"

    f = bumped_square()
    assert fourier._product_factors(f) is None
    tracemalloc.start()
    try:
        cert = a_norm_torus(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.grid == 4096
    assert f.linf <= cert.lower <= cert.upper <= f.l1
    assert peak < 96e6, f"traced peak {peak / 1e6:.1f} MB"


def test_certificate_validation():
    with pytest.raises(InputError):
        NormCertificate(2.0, 1.0, "quadrature")
    with pytest.raises(InputError):
        NormCertificate(1.0 + 2 * _BRACKET_SLACK, 1.0, "quadrature")
    NormCertificate(1.0 + 0.5 * _BRACKET_SLACK, 1.0, "quadrature")
    with pytest.raises(InputError):
        NormCertificate(0.0, 1.0, "made-up")
    with pytest.raises(InputError):  # the l2 bound replaced it
        NormCertificate(1.0, 2.0, "l1-bound", 0.1)
    c = NormCertificate(1.0, 2.0, "l2-bound", 0.1)
    assert c.value == 1.5 and c.width == 1.0


def test_trigpoly_basics():
    f = TrigPoly({0: 1.0, 3: 0.0, -2: 2.0})
    assert f.dim == 1 and f.degree == 2 and len(f) == 2
    assert f.l1 == 3.0 and f.linf == 2.0
    box = TrigPoly.box(1, dim=2)
    assert len(box) == 9 and box.degree == 1
    with pytest.raises(InputError):
        TrigPoly({})
    with pytest.raises(InputError):
        TrigPoly({(1, 2): 1.0, 3: 1.0})
    for dim in (0, -1):
        with pytest.raises(InputError):
            TrigPoly.box(1, dim=dim)


def test_a_norm_delta_exact():
    cert = a_norm_torus(TrigPoly.delta())
    assert cert.lower == cert.upper == 1.0
    shifted = a_norm_torus(TrigPoly({17: 3.0}))
    assert shifted.lower == shifted.upper == 3.0


def test_a_norm_closed_form_box1():
    cert = a_norm_torus(TrigPoly.box(1), tol=1e-8)
    assert cert.lower - 1e-9 <= L1_CLOSED_FORM <= cert.upper + 1e-9
    assert abs(cert.value - L1_CLOSED_FORM) <= 1e-7
    assert cert.method == "quadrature" and cert.grid is not None


def test_a_norm_interval_large_matches_growth():
    """1 on {-n..n} for n = 1000 sits in a small band around the measured
    Lebesgue-constant growth (4/pi^2) ln n + c0."""
    cert = a_norm_torus(TrigPoly.box(1000), tol=1e-6)
    predicted = (4 / math.pi ** 2) * math.log(2001) + 0.9894312738
    assert abs(cert.value - predicted) < 0.02
    exact = dirichlet_l1(1000)
    assert abs(cert.value - exact.value) <= 1e-4 * exact.value


@pytest.mark.parametrize("r, tol", [(1000, 1e-6), (3000, 1e-7)])
def test_a_norm_bracket_contains_lebesgue_constant(r, tol):
    """Successive brackets that do not meet are kept as their hull, so the
    certificate contains the exact L_r, summed here by its tangent form; at
    (1000, 1e-6) two successive brackets are disjoint."""
    cert = a_norm_torus(TrigPoly.box(r), tol=tol)
    exact = tan_sum_lebesgue(r)
    assert cert.lower <= exact <= cert.upper
    assert cert.width <= tol * cert.upper


def test_a_norm_dimension_guard():
    with pytest.raises(InputError):
        a_norm_torus(TrigPoly.box(1, dim=4))


def test_a_norm_budget_error():
    with pytest.raises(BudgetExceededError) as exc:
        a_norm_torus(TrigPoly.box(2), tol=1e-15, max_points=256)
    part = exc.value.partial
    assert part is not None and part.lower <= part.upper


def test_sandwich_invariant():
    """max|coefficient| <= A-norm certificate <= sum|coefficients|."""
    rng = np.random.default_rng(0)
    for _ in range(25):
        size = int(rng.integers(2, 9))
        keys = rng.choice(np.arange(-12, 13), size=size, replace=False)
        coeffs = {int(k): complex(rng.normal(), rng.normal()) for k in keys}
        f = TrigPoly(coeffs)
        cert = a_norm_torus(f, tol=1e-6)
        assert cert.lower >= f.linf - 1e-12
        assert cert.upper <= f.l1 + 1e-12
        oracle = brute_l1_norm(coeffs)
        assert cert.lower - 1e-4 <= oracle <= cert.upper + 1e-4


def test_translation_and_modulation_invariance():
    rng = np.random.default_rng(1)
    f = TrigPoly({int(k): float(v) for k, v in
                  zip(range(-3, 4), rng.uniform(0.2, 1.0, 7))})
    base = a_norm_torus(f, tol=1e-7)
    for shift in (1, -5, 40):
        moved = a_norm_torus(f.translated(shift), tol=1e-7)
        assert abs(moved.value - base.value) <= 2e-7 * base.value


def test_grid_refinement_monotonicity():
    f = TrigPoly.box(3)
    loose = a_norm_torus(f, tol=1e-3)
    tight = a_norm_torus(f, tol=1e-9)
    assert tight.lower >= loose.lower - 1e-12
    assert tight.upper <= loose.upper + 1e-12
    assert tight.width <= loose.width


def test_dirichlet_examples():
    assert dirichlet_l1(0).value == 1.0
    assert abs(dirichlet_l1(1).value - L1_CLOSED_FORM) < 1e-12
    # exact formula vs the independent quadrature oracle
    for n in range(2, 9):
        oracle = brute_l1_norm({k: 1.0 for k in range(-n, n + 1)}, grid=1 << 18)
        assert abs(dirichlet_l1(n).value - oracle) < 1e-6
    with pytest.raises(InputError):
        dirichlet_l1(-1)


def test_dirichlet_exact_contains_high_precision_value():
    """At n = 2^17 the double-precision tan sum is off by 2.8e-12 relative,
    beyond the certified half-width of 1e-12; the certificate must contain
    the same sum taken to 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    n = 1 << 17
    with mpmath.workdps(30):
        big_n = 2 * n + 1
        tan_sum = mpmath.fsum(mpmath.tan(mpmath.pi * k / big_n) / k
                              for k in range(1, n + 1))
        want = float(1 / mpmath.mpf(big_n) + 2 / mpmath.pi * tan_sum)
    cert = dirichlet_l1(n)
    assert cert.method == "exact-dft"
    assert cert.lower <= want <= cert.upper, (cert, want)


def test_dirichlet_strictly_increasing_to_256():
    vals = [dirichlet_l1(n).value for n in range(257)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_dirichlet_asymptotic_branch_consistency():
    """The large-order branch continues the exact formula smoothly."""
    n = 1 << 25  # last exact index
    exact = dirichlet_l1(n)
    asym = dirichlet_l1(n + 1)
    assert asym.method == "asymptotic" and exact.method == "exact-dft"
    assert asym.value > exact.value
    assert abs(asym.value - exact.value) < 1e-6
    big = dirichlet_l1(10 ** 13)
    assert big.lower <= (4 / math.pi ** 2) * math.log(2e13) + 1.0 <= big.upper + 1.5


@functools.cache
def watson_c0(mpmath):
    """c0 = (8/pi^2) sum_{k>=1} ln k / (4k^2 - 1) + (4/pi^2)(gamma + 2 ln 2),
    the constant of L_n = (4/pi^2) ln(2n+1) + c0 + O(n^-2) (Watson 1930),
    to 30 digits."""
    with mpmath.workdps(30):
        tail = mpmath.nsum(lambda k: mpmath.log(k) / (4 * k * k - 1),
                           [1, mpmath.inf], method="euler-maclaurin")
        return float(8 / mpmath.pi ** 2 * tail
                     + 4 / mpmath.pi ** 2 * (mpmath.euler + 2 * mpmath.log(2)))


def test_watson_constant_matches_closed_form():
    mpmath = pytest.importorskip("mpmath")
    assert math.isclose(fourier._LEBESGUE_C0, watson_c0(mpmath), rel_tol=1e-15)


N0 = fourier._EM_MIN_ORDER


@pytest.mark.parametrize("n", [N0 - 1, N0, N0 + 1, N0 + 7, 2 * N0])
def test_dirichlet_switch_orders_match_high_precision_sum(n):
    """Around the switch from the term-by-term sum to the Euler-Maclaurin
    route, the value is the tangent sum taken to 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        big_n = 2 * n + 1
        tan_sum = mpmath.fsum(mpmath.tan(mpmath.pi * k / big_n) / k
                              for k in range(1, n + 1))
        want = float(1 / mpmath.mpf(big_n) + 2 / mpmath.pi * tan_sum)
    cert = dirichlet_l1(n)
    assert cert.method == "exact-dft"
    assert cert.lower <= want <= cert.upper, (cert, want)
    assert math.isclose(cert.value, want, rel_tol=1e-14), (cert.value, want)


@pytest.mark.parametrize("n", [1 << 25, (1 << 25) - 1, (1 << 25) - 7,
                               (1 << 25) - 12345, 6718464])
def test_dirichlet_bench_orders_match_watson(n):
    """At these orders Watson's O(n^-2) term is below 1e-13, so the exact
    value is (4/pi^2) ln(2n+1) + c0 within 1e-12 relative."""
    mpmath = pytest.importorskip("mpmath")
    want = 4 / math.pi ** 2 * math.log(2 * n + 1) + watson_c0(mpmath)
    cert = dirichlet_l1(n)
    assert cert.method == "exact-dft"
    assert math.isclose(cert.value, want, rel_tol=1e-12), (cert.value, want)


def test_dirichlet_increasing_across_switch():
    vals = [dirichlet_l1(n).value for n in range(N0 - 3, N0 + 4)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("n", [(1 << 25) + 1, 1 << 26, 10 ** 13])
def test_dirichlet_asymptotic_contains_exact_value(n):
    """The asymptotic branch's 1e-8 half-width holds the exact value, which
    the Euler-Maclaurin route gives at any order."""
    cert = dirichlet_l1(n)
    assert cert.method == "asymptotic"
    assert cert.lower <= fourier._lebesgue_exact(n) <= cert.upper


def test_gauss_legendre_rule_matches_numpy():
    xs, ws = np.polynomial.legendre.leggauss(fourier._GAUSS_NODES)
    want = sorted((x, w) for x, w in zip(xs, ws) if x > 0)
    got = sorted(fourier._gauss_legendre())
    assert len(got) == len(want)
    for (x, w), (x_ref, w_ref) in zip(got, want):
        assert abs(x - x_ref) < 1e-15 and abs(w - w_ref) < 1e-14


def test_dirichlet_error_budget_constants():
    """The constants of _lebesgue_exact's error budget, to 30 digits: q's
    Taylor coefficients at 0 are positive (checked to x^40), the third
    derivatives in the Euler-Maclaurin bound differ by less than 0.944, and
    q(0.9 pi) in the Gauss-Legendre bound is below 3.5."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        pi = mpmath.pi
        # numerator 2/pi + (cot x - 1/x): x^(2j-1) has -2^(2j)|B_2j|/(2j)!
        num = [2 / pi] + [mpmath.mpf(0)] * 40
        for j in range(1, 21):
            num[2 * j - 1] = -(2 ** (2 * j) * abs(mpmath.bernoulli(2 * j))
                               / mpmath.factorial(2 * j))
        coeffs = [sum(num[i] * (2 / pi) ** (m - i) for i in range(m + 1))
                  for m in range(41)]
        assert all(c > 0 for c in coeffs)

        def q_at(t):  # q(pi/2 - t)
            return pi / 2 * mpmath.tan(t) / t - 1 / (pi / 2 - t)
        third_at_half = -mpmath.diff(q_at, mpmath.mpf("1e-12"), 3)
        assert third_at_half - 6 * coeffs[3] < 0.944
        x = 0.9 * pi
        assert (mpmath.cot(x) - 1 / x + 2 / pi) / (1 - 2 * x / pi) < 3.5


def test_finite_cyclic_examples():
    for m in (1, 2, 5, 12):
        assert abs(finite_cyclic_a_norm([1.0] + [0.0] * (m - 1)) - 1.0) < 1e-12
        assert abs(finite_cyclic_a_norm([1.0] * m) - 1.0) < 1e-12
    # 1 on {0,1} in Z_4: transform magnitudes {2, sqrt2, 0, sqrt2}
    f = {0: 1.0, 1: 1.0}
    val = finite_cyclic_a_norm([f.get(k, 0) for k in range(4)])
    assert abs(val - (1 + math.sqrt(2)) / 2) < 1e-12
    assert abs(finite_cyclic_a_norm([1.0, 1.0, 0.0, 0.0]) - val) < 1e-12
    # a 2-tuple of values is a sequence of values, like a list
    assert finite_cyclic_a_norm((1.0, 2)) == 2.0
    assert finite_cyclic_a_norm((1, 2)) == 2.0
    # an empty sequence, of any iterable kind, has no modulus
    for bad in ([], (), iter([])):
        with pytest.raises(InputError, match="modulus must be at least 1"):
            finite_cyclic_a_norm(bad)


def test_cyclic_torus_agreement():
    """Embedding a short-support function in a long enough cycle reproduces
    the torus value within twice the quadrature tolerance."""
    rng = np.random.default_rng(3)
    tol = 1e-5
    for trial in range(10):
        deg = int(rng.integers(1, 5))
        coeffs = {k: float(rng.uniform(0.1, 1)) for k in range(deg + 1)}
        m = 16 * (deg + 1)
        emb = finite_cyclic_a_norm([coeffs.get(k, 0) for k in range(m)])
        cert = a_norm_torus(TrigPoly(coeffs), tol=tol)
        assert abs(emb - cert.value) <= 2 * tol * cert.value + 1e-3


def test_hardy_examples():
    assert abs(hardy_ratio([0, 1]) - (4 / math.pi) / math.log(2)) < 1e-5
    # modulation/dilation invariance of a pair
    assert abs(hardy_ratio([0, 3 ** 4]) - hardy_ratio([0, 1])) < 1e-5
    with pytest.raises(InputError):
        hardy_ratio([5])
    # large interval: ratio equals L_n / log(2n+1)
    n = 512
    expected = dirichlet_l1(n).value / math.log(2 * n + 1)
    assert abs(hardy_ratio(range(-n, n + 1), tol=1e-6) - expected) < 1e-3


def test_tensor_norm():
    one = tensor_norm([TrigPoly.delta(), TrigPoly.delta()])
    assert one.lower == one.upper == 1.0
    two = tensor_norm([TrigPoly.box(1), TrigPoly.box(1)], tol=1e-7)
    assert abs(two.value - L1_CLOSED_FORM ** 2) < 1e-5
    assert two.method == "product-rule"
    d4 = dirichlet_l1(4).value
    box44 = tensor_norm([TrigPoly.box(4), TrigPoly.box(4)], tol=1e-7)
    assert abs(box44.value - d4 ** 2) < 1e-4
    with pytest.raises(InputError):
        tensor_norm([TrigPoly.box(1, dim=2)])
