"""Fourier-algebra norms: closed forms, certificates, and invariants."""

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


# (dim, grid, slab points): on the 20-point 1-D grid frequencies in -25..25
# share residues; slabs of 5 of the 48 columns (2-D) and 7 of the 400 (3-D)
# leave a partial last slab
SLAB_CASES = [(1, 20, None), (1, 256, None), (2, 48, 5 * 48), (2, 64, None),
              (3, 20, 7 * 20), (3, 16, None)]


@pytest.mark.parametrize("dim,m,slab", SLAB_CASES)
def test_slab_mean_matches_dense_reference(dim, m, slab, monkeypatch):
    if slab is not None:
        monkeypatch.setattr(fourier, "_SLAB_POINTS", slab)
    rng = np.random.default_rng(100 + dim * m)
    for _ in range(4):
        keys = {tuple(int(x) for x in rng.integers(-25, 26, size=dim))
                for _ in range(15)}
        # first coordinates k and k - m land on the same row
        base = next(iter(keys))
        keys.add((base[0] - m,) + base[1:])
        f = TrigPoly({k: complex(rng.normal(), rng.normal()) for k in keys},
                     dim=dim)
        got = fourier._mean_abs_on_grid(f, m)
        want = dense_mean_abs(f, m)
        assert math.isclose(got, want, rel_tol=1e-12), (got, want)


def test_quadrature_memory_at_budget():
    """The 4096^2 grid of the r = 2 square is summed without being held."""
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


def test_certificate_validation():
    with pytest.raises(InputError):
        NormCertificate(2.0, 1.0, "quadrature")
    with pytest.raises(InputError):
        NormCertificate(1.0 + 2 * _BRACKET_SLACK, 1.0, "quadrature")
    NormCertificate(1.0 + 0.5 * _BRACKET_SLACK, 1.0, "quadrature")
    with pytest.raises(InputError):
        NormCertificate(0.0, 1.0, "made-up")
    c = NormCertificate(1.0, 2.0, "l1-bound", 0.1)
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


def test_finite_cyclic_examples():
    for m in (1, 2, 5, 12):
        assert abs(finite_cyclic_a_norm(({0: 1.0}, m)) - 1.0) < 1e-12
        assert abs(finite_cyclic_a_norm(({k: 1.0 for k in range(m)}, m)) - 1.0) < 1e-12
    # 1 on {0,1} in Z_4: transform magnitudes {2, sqrt2, 0, sqrt2}
    val = finite_cyclic_a_norm(({0: 1.0, 1: 1.0}, 4))
    assert abs(val - (1 + math.sqrt(2)) / 2) < 1e-12
    assert abs(finite_cyclic_a_norm([1.0, 1.0, 0.0, 0.0]) - val) < 1e-12


def test_cyclic_torus_agreement():
    """Embedding a short-support function in a long enough cycle reproduces
    the torus value within twice the quadrature tolerance."""
    rng = np.random.default_rng(3)
    tol = 1e-5
    for trial in range(10):
        deg = int(rng.integers(1, 5))
        coeffs = {k: float(rng.uniform(0.1, 1)) for k in range(deg + 1)}
        m = 16 * (deg + 1)
        emb = finite_cyclic_a_norm(({k: v for k, v in coeffs.items()}, m))
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
