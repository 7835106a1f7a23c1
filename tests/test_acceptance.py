"""End-to-end acceptance checklist.

Each test prints one ``ACCEPTANCE <name>: PASS/FAIL (...)`` line (run with
``-s`` to see them live), with every measured value next to its target, and
asserts the criterion at its stated tolerance.

Every target is derived without calling ``tamecuts``: from closed forms,
classical constants, or matrices built here from integer coordinates.  The
growth of Dirichlet-kernel L1 norms (Lebesgue constants) is

    L_n = (4/pi^2) ln(2n+1) + c0 + O(n^-2)

(Fejer 1910; Watson 1930, "The constants of Landau and Lebesgue"), so the
prefactor is 4/pi^2, not 4/pi.  The operator-norm estimates compress
lambda(f) to l2(B_R); such a compression sits below the full norm by
Theta(R^-2), so it is compared with the same compression built here.
"""

import math
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from tamecuts.cli import main as cli_main
from tamecuts.fourier import TrigPoly, a_norm_torus, dirichlet_l1, hardy_ratio
from tamecuts.groups import (
    Element,
    GroupSpec,
    ball,
    canonicalize,
    invert,
    multiply,
)
from tamecuts.opnorm import FinSuppFun, lambda_norm_lower, rd_fit, rd_test
from tamecuts.cuts import (
    cut_bs,
    cut_lamplighter,
    cut_pq,
    cut_semidirect_zd,
    extend_by_cogrowth,
    fit_growth,
    verify_cut,
)

FOUR_OVER_PI_SQ = 4 / math.pi ** 2

# Constant term of the Lebesgue constants, Watson (1930):
#   c0 = (8/pi^2) sum_{k>=1} ln k / (4k^2 - 1) + (4/pi^2)(gamma + 2 ln 2).
# To recompute it with mpmath, pass method='euler-maclaurin' to nsum; the
# default method misses this slowly converging series by 1.2e-4.
WATSON_C0 = 0.98943127383114695


def _lebesgue_two_term(n: int) -> float:
    """(4/pi^2) ln(2n+1) + c0: the Lebesgue constant L_n up to O(n^-2)."""
    return FOUR_OVER_PI_SQ * math.log(2 * n + 1) + WATSON_C0


def _report(name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_01_dirichlet_slope():
    """Least-squares slope of ||D_n||_1 against ln n over n in
    {16, 64, 256, 1024, 4096} at tol 1e-6.  Targets: within 3% of the
    classical prefactor 4/pi^2 = 0.40528, and within 1e-4 of 0.4032794, the
    slope of the two-term expansion (4/pi^2) ln(2n+1) + c0 over the same n
    (c0 cancels from the slope).  Measured slope 0.4032778, 1.6e-6 from the
    expansion and 0.5% from 4/pi^2; ||D_n||_1 itself matches Fejer's tan sum
    evaluated in 30-digit arithmetic to 2e-14 at n in {1, 16, 256, 1024}."""
    t0 = time.perf_counter()
    ns = [16, 64, 256, 1024, 4096]
    certs = [dirichlet_l1(n, tol=1e-6) for n in ns]
    elapsed = time.perf_counter() - t0
    widths_ok = all(c.width <= 1e-6 * c.upper for c in certs)
    log_ns = np.log(ns)
    slope = float(np.polyfit(log_ns, [c.value for c in certs], 1)[0])
    predicted = float(np.polyfit(log_ns, [_lebesgue_two_term(n) for n in ns], 1)[0])
    ok = (abs(slope - FOUR_OVER_PI_SQ) <= 0.03 * FOUR_OVER_PI_SQ
          and abs(slope - predicted) <= 1e-4
          and elapsed < 30.0 and widths_ok)
    _report("dirichlet-slope", ok,
            f"slope={slope:.7f} target 4/pi^2={FOUR_OVER_PI_SQ:.5f}+-3% and "
            f"two-term expansion={predicted:.7f}+-1e-4 time={elapsed:.2f}s")


def test_02_closed_form_anchor():
    """||D_1||_1 equals 1/3 + 2*sqrt(3)/pi to 1e-8."""
    target = 1 / 3 + 2 * math.sqrt(3) / math.pi
    value = dirichlet_l1(1).value
    _report("closed-form-anchor", abs(value - target) <= 1e-8,
            f"value={value!r} target={target!r}")


def test_03_lamplighter_cuts():
    """For p in {2,3} and n <= 9: exhaustive coverage, certificate exactly 1,
    and growth exponent exactly 0."""
    ok = True
    detail = []
    for p in (2, 3):
        family = [cut_lamplighter(p, n) for n in range(1, 10)]
        for cut in family:
            rep = verify_cut(cut)
            ok &= rep.covers_ball and rep.consistent
            ok &= (cut.certificate.lower == 1.0 == cut.certificate.upper)
        c, a = fit_growth(family)
        ok &= (a == 0.0)
        detail.append(f"p={p}: coverage+unit-norm n<=9, fit a={a}")
    _report("lamplighter-cuts", ok, "; ".join(detail))


def test_04_pq_cut_growth():
    """(p,q) = (2,3), n <= 6: coverage exact; the least-squares slope of the
    certificate uppers in n is within 1% of the slope predicted by
    (4/pi^2) ln(2N+1) + c0 at the Dirichlet order N = n 6^(2n) stated in the
    cut_pq docstring.  The prediction is 1.590441: the leading term
    (8/pi^2) ln 6 = 1.4523 plus the contribution of (4/pi^2) ln n.  Measured
    slope 1.5904408, 2e-7 from the prediction relatively."""
    family = [cut_pq(2, 3, n) for n in range(1, 7)]
    coverage = all(verify_cut(c).covers_ball for c in family)
    ns = np.arange(1, 7, dtype=float)
    ups = np.array([c.certificate.upper for c in family])
    slope = float(np.polyfit(ns, ups, 1)[0])
    orders = [n * 6 ** (2 * n) for n in range(1, 7)]
    target = float(np.polyfit(ns, [_lebesgue_two_term(m) for m in orders], 1)[0])
    ok = coverage and abs(slope - target) <= 0.01 * target
    _report("pq-cut-growth", ok,
            f"coverage={coverage} slope={slope:.7f} target={target:.7f}+-1% "
            f"[leading term (8/pi^2)ln6={(8 / math.pi ** 2) * math.log(6):.4f}]")


def test_05_semidirect_cuts():
    """A = [[1,1],[0,1]], n <= 6: coverage exact, certificate equals the
    squared Dirichlet norm of order ceil(n C^n), and C within 1e-9 above
    the golden ratio."""
    golden = (1 + math.sqrt(5)) / 2
    matrix = [[1, 1], [0, 1]]
    ok = True
    c_val = None
    for n in range(1, 7):
        cut = cut_semidirect_zd(matrix, n)
        rep = verify_cut(cut)
        ok &= rep.covers_ball and rep.consistent
        c_val = cut.provenance["operator_norm"]
        ok &= (c_val - golden <= 1e-9) and (c_val >= golden - 1e-12)
        ref = dirichlet_l1(cut.provenance["box_radius"])
        ok &= math.isclose(cut.certificate.upper, ref.upper ** 2, rel_tol=1e-12)
        ok &= math.isclose(cut.certificate.lower, ref.lower ** 2, rel_tol=1e-12)
    _report("semidirect-cuts", ok,
            f"coverage n<=6, C={c_val!r} golden={golden!r}, cert = D^2")


def test_06_bs_cuts():
    """BS(2,3), n <= 4: exhaustive coverage and upper bound equal to
    (2n+1) times the whole-group (p,q)-cut upper; BS(1,1) ball sizes match
    Z^2 for n <= 6."""
    ok = True
    for n in range(1, 5):
        cut = cut_bs(2, 3, n)
        rep = verify_cut(cut)
        ok &= rep.covers_ball and rep.consistent
        psi = extend_by_cogrowth(cut_pq(2, 3, 2 * n), n)
        ok &= psi.group == GroupSpec.pq(2, 3)
        ok &= math.isclose(cut.certificate.upper,
                           (2 * n + 1) * psi.certificate.upper, rel_tol=1e-12)
    sizes_bs = ball(GroupSpec.baumslag_solitar(1, 1), 6).level_sizes()
    sizes_z2 = ball(GroupSpec.free_abelian(2), 6).level_sizes()
    ok &= (sizes_bs == sizes_z2)
    _report("bs-cuts", ok,
            f"coverage+upper n<=4; BS(1,1) sizes {sizes_bs} == Z^2 {sizes_z2}")


def _diamond(radius: int) -> list[tuple[int, int]]:
    """Points of Z^2 with |x| + |y| <= radius."""
    return [(x, y) for x in range(-radius, radius + 1)
            for y in range(abs(x) - radius, radius - abs(x) + 1)]


def _z2_cross_compression_norm(radius: int) -> float:
    """||lambda(1_{B_1}) P_R|| on Z^2: the sparse map l2(B_R) -> l2(B_{R+1})
    built from integer coordinates and the five shifts, normed through the
    top eigenvalue of L^T L."""
    src = _diamond(radius)
    dst = {p: i for i, p in enumerate(_diamond(radius + 1))}
    shifts = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))
    rows = [dst[(x + dx, y + dy)] for x, y in src for dx, dy in shifts]
    cols = [j for j in range(len(src)) for _ in shifts]
    op = sp.csr_matrix((np.ones(len(rows)), (rows, cols)),
                       shape=(len(dst), len(src)))
    top = eigsh((op.T @ op).tocsc(), k=1, which="LA", v0=np.ones(len(src)),
                return_eigenvectors=False)[0]
    return math.sqrt(top)


def _z_compression_norm(coeffs: np.ndarray, radius: int) -> float:
    """||lambda(f) P_R|| on Z for f = sum_k coeffs[k] delta_{k - deg}: the
    spectral norm of the dense banded matrix T[j + k, j] = coeffs[k]."""
    width = 2 * radius + 1
    band = np.zeros((width + len(coeffs) - 1, width))
    for j in range(width):
        band[j:j + len(coeffs), j] = coeffs
    return float(np.linalg.norm(band, 2))


def test_07_operator_norm_oracle():
    """The radius-64 compression estimates against the same compressions
    built without the package.  lambda_norm_lower estimates ||lambda(f) P_R||,
    which sits below ||lambda(f)|| by Theta(R^-2), so the full norms are not
    targets: 5 on Z^2 is missed by 2.3e-3 and sup|f^| on Z by 0.031-0.075.

    * Z^2, f = 1_{B_1}: within 1e-6 of the sparse eigensolver value
      4.9976841878 (measured 8.5e-9 apart), which itself lies in
      [1 + 4cos^2(pi/(2R+2)), 5] = [4.99766445, 5].  The lower end is
      ||P_R lambda(f) P_R||: under u = x+y, v = x-y the diamond becomes the
      box max(|u|,|v|) <= R and the Z^2 adjacency the tensor product of two
      path graphs.
    * Z, 100 seeded random f >= 0 supported in B_8: within 1e-4 of the dense
      banded 145 x 129 matrix norm (measured worst 2.5e-8), and never above
      the transform supremum sup|f^| + 1e-9."""
    radius = 64
    z2 = GroupSpec.free_abelian(2)
    f2 = FinSuppFun.indicator(z2, ball(z2, 1))
    est = lambda_norm_lower(f2, radius, tol=1e-11, max_iter=9000)
    oracle_z2 = _z2_cross_compression_norm(radius)
    dev_z2 = abs(est.lower - oracle_z2)
    inner = 1 + 4 * math.cos(math.pi / (2 * radius + 2)) ** 2
    bracket_ok = inner <= oracle_z2 <= 5.0

    z1 = GroupSpec.free_abelian(1)
    rng = np.random.default_rng(0)
    worst = 0.0
    gaps = []
    grid_t = np.arange(1 << 14) / (1 << 14)
    for _ in range(100):
        coeffs = rng.uniform(0.0, 1.0, 17)
        f = FinSuppFun(z1, {Element(z1, (k - 8,)): coeffs[k] for k in range(17)})
        est1 = lambda_norm_lower(f, radius, tol=1e-9, max_iter=2500)
        vals = np.zeros_like(grid_t, dtype=complex)
        for k in range(17):
            vals += coeffs[k] * np.exp(2j * np.pi * (k - 8) * grid_t)
        sup = float(np.abs(vals).max())
        worst = max(worst, abs(_z_compression_norm(coeffs, radius) - est1.lower))
        gaps.append(sup - est1.lower)
    below_sup = min(gaps) >= -1e-9
    ok = dev_z2 <= 1e-6 and bracket_ok and worst <= 1e-4 and below_sup
    _report("operator-norm-oracle", ok,
            f"Z^2 R=64 value={est.lower:.10f} oracle={oracle_z2:.10f} "
            f"|dev|={dev_z2:.2e} (tol 1e-6), oracle in "
            f"[{inner:.8f}, 5]={bracket_ok}; Z max |matrix norm - est| over "
            f"100 random f = {worst:.2e} (tol 1e-4), sup - est in "
            f"[{min(gaps):.4f}, {max(gaps):.4f}] (>= -1e-9)")


def test_08_rd_suite():
    """Z^2, 100 random samples per n <= 10: no ratio exceeds |B_n|^(1/2),
    and the fitted growth exponent is at most 1.1."""
    z2 = GroupSpec.free_abelian(2)
    rows = []
    for n in range(1, 11):
        rows.extend(rd_test(z2, n, samples=100, seed=7))
    violations = sum(
        1 for r in rows
        if r.ratio > math.sqrt(2 * r.n ** 2 + 2 * r.n + 1) + 1e-9)
    c, a = rd_fit(rows)
    ok = violations == 0 and a <= 1.1
    _report("rd-suite", ok,
            f"violations={violations}/1000, fitted a={a:.4f} (<= 1.1), C={c:.3f}")


def test_09_hardy_probe():
    """200 seeded random subsets of [-4096, 4096] with 2 <= |B| <= 512:
    ratios finite and positive, minimum reported.  Interval clause at
    |B| = 2n+1, n in {256, 512, 1024}: the ratio L_n / ln(2n+1) is within
    relative 1e-6 of 4/pi^2 + c0/ln(2n+1) with Watson's c0 (the remainder is
    O(n^-2); measured 1.3e-8, 3.0e-9, 7.0e-10), and the three ratios
    strictly decrease while staying above their limit 4/pi^2."""
    rng = np.random.default_rng(2024)
    values = []
    for _ in range(200):
        size = int(rng.integers(2, 513))
        pts = rng.choice(np.arange(-4096, 4097), size=size, replace=False)
        values.append(hardy_ratio([int(x) for x in pts], tol=1e-4))
    finite_positive = all(math.isfinite(v) and v > 0 for v in values)
    vmin = min(values)

    ns = (256, 512, 1024)
    ratios = [dirichlet_l1(n).lower / math.log(2 * n + 1) for n in ns]
    targets = [_lebesgue_two_term(n) / math.log(2 * n + 1) for n in ns]
    rel_devs = [abs(r - t) / t for r, t in zip(ratios, targets)]
    decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
    above_limit = all(r > FOUR_OVER_PI_SQ for r in ratios)
    ok = (finite_positive and max(rel_devs) <= 1e-6
          and decreasing and above_limit)
    _report("hardy-probe", ok,
            f"200 random subsets finite+positive={finite_positive}, min={vmin:.4f}; "
            f"interval ratios |B|=513,1025,2049: {[round(r, 8) for r in ratios]} "
            f"vs 4/pi^2+c0/ln|B|={[round(t, 8) for t in targets]} "
            f"rel dev {max(rel_devs):.1e} (tol 1e-6), decreasing={decreasing}, "
            f"above 4/pi^2={FOUR_OVER_PI_SQ:.5f}: {above_limit}")


def test_10_invariant_suites_and_determinism(tmp_path):
    """Cross-module invariant sweep plus byte-identical CLI reports.  The
    full per-module invariant suites live in the other test files; this
    re-runs a representative slice end to end."""
    ok = True
    notes = []

    # canonical-form soundness: free cancellation leaves canonical forms fixed
    import random
    rng = random.Random(99)
    for spec in (GroupSpec.free_abelian(2), GroupSpec.pq(2, 3),
                 GroupSpec.lamplighter(2), GroupSpec.baumslag_solitar(2, 3),
                 GroupSpec.semidirect_zd([[1, 1], [0, 1]])):
        syms = spec.symbols()
        for _ in range(200):
            w = [rng.choice(syms) for _ in range(rng.randint(0, 12))]
            s = rng.choice(syms)
            pair = [s, s + "^-1"] if not s.endswith("^-1") else [s, s[:-3]]
            j = rng.randint(0, len(w))
            ok &= canonicalize(w[:j] + pair + w[j:], spec) == canonicalize(w, spec)
    notes.append("canonical soundness")

    # ball nesting, inverse closure, submultiplicativity (n <= 3)
    for spec in (GroupSpec.free_abelian(2), GroupSpec.lamplighter(2),
                 GroupSpec.baumslag_solitar(2, 3)):
        b3 = ball(spec, 3)
        items = list(b3.items())
        ok &= all(invert(x) in b3 and b3.length(invert(x)) == lx
                  for x, lx in items)
        ok &= all(b3.length(multiply(x, y)) <= lx + ly
                  for x, lx in items for y, ly in items if lx + ly <= 3)
    notes.append("ball invariants")

    # certificate sandwich and refinement nesting
    rng2 = np.random.default_rng(1)
    for _ in range(10):
        keys = rng2.choice(np.arange(-10, 11), size=5, replace=False)
        f = TrigPoly({int(k): complex(rng2.normal(), rng2.normal())
                      for k in keys})
        loose = a_norm_torus(f, tol=1e-3)
        tight = a_norm_torus(f, tol=1e-8)
        ok &= loose.lower >= f.linf - 1e-12 and loose.upper <= f.l1 + 1e-12
        ok &= tight.lower >= loose.lower - 1e-12
        ok &= tight.upper <= loose.upper + 1e-12
    notes.append("certificate sandwich+nesting")

    # truncation-radius monotonicity
    z2 = GroupSpec.free_abelian(2)
    flat = FinSuppFun.indicator(z2, ball(z2, 1))
    vals = [lambda_norm_lower(flat, r, tol=1e-10, max_iter=3000).lower
            for r in (4, 8, 16)]
    ok &= all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))
    notes.append("truncation monotonicity")

    # dirichlet strictly increasing through 256
    seq = [dirichlet_l1(n).value for n in range(257)]
    ok &= all(b > a for a, b in zip(seq, seq[1:]))
    notes.append("dirichlet monotone")

    # CLI determinism: identical argv+seed => byte-identical reports
    argv = ["rd-fit", "--group", "free_abelian", "--d", "2", "--nmax", "3",
            "--samples", "5", "--seed", "3"]
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    ok &= cli_main(argv + ["--out", str(f1)]) == 0
    ok &= cli_main(argv + ["--out", str(f2)]) == 0
    ok &= f1.read_bytes() == f2.read_bytes()
    notes.append("CLI byte-determinism")

    _report("invariant-suites", ok, ", ".join(notes))
