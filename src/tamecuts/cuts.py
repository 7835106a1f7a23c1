"""Characteristic tame-cut families on the supported group families.

A cut of index n is a {0,1}-valued finitely supported function that equals 1
on the whole ball B_n.  A family of cuts is a plain sequence of ``Cut``s in
increasing index, and it is *tame* when the multiplier norms grow at most
polynomially in n.  Each construction here produces its support
together with a norm certificate assembled only from composition rules whose
validity is structural:

* extension by zero from a subgroup is isometric for completely bounded
  multiplier norms, and for MA norms from amenable subgroups (every subgroup
  used here), so the indicator of a finite subgroup has norm exactly 1; for
  MA norms in general the extension map MA(H) -> MA(G) need not even be
  continuous;
* the indicator of a power interval in an infinite cyclic subgroup has the
  Dirichlet-kernel L^1 norm of the matching order;
* box indicators on Z^d factor, so their norm is a product of
  one-dimensional Dirichlet norms;
* left translation is isometric, so a disjoint union of coset translates
  costs at most (number of translates) times the subgroup cut norm;
* a tree-ball indicator for a group acting on its Bass-Serre tree is a
  completely bounded multiplier of norm at most 2n+1, which multiplies
  against the matrix-part cut for the HNN families.

Every support is one ``PredicateSupport``: a predicate on canonical
``data`` tuples with its size, composed with the group's ``FamilyOps``
arithmetic, so no membership query builds an ``Element``.  The ball cut's
predicate looks the data up in the ball's member set.  A support knows no
group; ``x in cut`` asks that ``x`` lie in the cut's group and that the
predicate accept its data.  Verification is exhaustive: ``verify_cut``
walks the full BFS ball's data and produces a concrete witness on any
coverage failure.  Its norm lower bound is the supremum of the cut over
the checked ball, certified by ||phi||_inf <= ||phi||_MA <= ||phi||_cb,
and it must sit below the certified upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import InputError
from .fourier import NormCertificate, TrigPoly, a_norm_torus, dirichlet_l1
from .groups import Element, GroupSpec, ball, coset_section
from .groups.elements import family_ops, in_subgroup, j2_data, j2_target
from .groups.intmat import as_int_matrix, certified_operator_norm_pair


# ---------------------------------------------------------------------------
# supports


@dataclass(frozen=True)
class PredicateSupport:
    """Support given by a decidable membership predicate on canonical data.

    ``test`` takes an element's canonical ``data`` tuple.  A support holds
    no group and tests no ``Element``: ask the ``Cut`` that carries it
    (``x in cut``).  ``size`` is the exact cardinality when it is known
    analytically, else None; the member set itself may be far too large to
    enumerate.
    """

    test: Callable[[tuple], bool]
    size: int | None = None
    description: str = ""


@dataclass
class Cut:
    """A characteristic function equal to 1 on its support, with provenance.

    ``x in cut`` holds for an element ``x`` of the cut's group whose data
    the support's predicate accepts; an element of another group is never
    in the cut."""

    group: GroupSpec
    index: int
    support: PredicateSupport
    certificate: NormCertificate
    provenance: Mapping = field(default_factory=dict)
    subgroup_only: bool = False  # support lies in the designated subgroup H

    def __contains__(self, x: Element) -> bool:
        return x.group == self.group and bool(self.support.test(x.data))


@dataclass(frozen=True)
class VerificationReport:
    covers_ball: bool
    witness: Element | None
    norm_upper: NormCertificate
    norm_lower: float
    consistent: bool
    checked: int

    def to_dict(self) -> dict:
        return dict(vars(self), norm_upper=self.norm_upper.to_dict(),
                    witness=None if self.witness is None else repr(self.witness))


# ---------------------------------------------------------------------------
# constructions


def cut_lamplighter(p: int, n: int) -> Cut:
    """Indicator of the finite subgroup generated by B_n inside the lamp
    subgroup of Z_p wr Z.  Its multiplier norm is exactly 1: the indicator of
    a finite subgroup acts as the identity on that subgroup's Fourier algebra
    and extends isometrically.

    The subgroup is in closed form.  A cursor-0 element with a lamp lit at
    j has word length at least 2|j| + 1, and t^j a t^-j has exactly that
    length, so B_n generates all lamp configurations on |j| <= w with
    w = (n - 1) // 2: p^(2w + 1) elements, cursor 0."""
    if n < 1:
        raise InputError("cut index must be positive")
    group = GroupSpec.lamplighter(p)
    w = (n - 1) // 2
    order = p ** (2 * w + 1)

    def contains(x: tuple) -> bool:
        lamps, shift = x
        return shift == 0 and all(abs(j) <= w for j, _ in lamps)

    cert = NormCertificate(1.0, 1.0, "extension-isometry", 0.0)
    return Cut(group, n,
               PredicateSupport(contains, size=order,
                                description=f"lamps at |j| <= {w}, cursor 0"),
               cert,
               provenance={"construction": "lamplighter", "p": p, "n": n,
                           "subgroup_order": order,
                           "norm_chain": ["finite-subgroup-identity",
                                          "extension-isometry"]},
               subgroup_only=True)


def cut_pq(p: int, q: int, n: int) -> Cut:
    """Power-interval cut inside the translation subgroup of the (p,q)
    matrix group.

    The cyclic subgroup generated by the translation by 1/(pq)^n contains
    every translation of word length at most n, with power at most
    n q^{2n} p^{2n} in absolute value; the indicator of that power interval
    has the Dirichlet L^1 norm of matching order (cyclic-interval
    identification plus isometric extension)."""
    if n < 1:
        raise InputError("cut index must be positive")
    group = j2_target(p, q)  # one spec per (p, q), shared with cut_bs
    bound = n * q ** (2 * n) * p ** (2 * n)
    pq = p * q

    def contains(x: tuple) -> bool:
        m, e, k = x
        if k != 0 or e > n:
            return False
        power = m * pq ** (n - e)
        return abs(power) <= bound

    cert = dirichlet_l1(bound)
    return Cut(group, n,
               PredicateSupport(contains, size=2 * bound + 1,
                                description=f"powers |j| <= {bound} of the "
                                            f"translation by 1/{pq}^{n}"),
               cert,
               provenance={"construction": "pq", "p": p, "q": q, "n": n,
                           "power_bound": bound,
                           "norm_chain": ["cyclic-interval-identification",
                                          "extension-isometry"],
                           "dirichlet_order": bound},
               subgroup_only=True)


def cut_semidirect_zd(matrix, n: int) -> Cut:
    """Box cut inside the Z^d kernel of the matrix semidirect product.

    Every kernel element of word length at most n has sup-norm at most
    n C^n with C = max(||A||, ||A^{-1}||); C is computed as a certified
    rational overestimate of the top singular value, so the containment
    stays valid.  The box indicator factors, so its norm is the d-th power
    of a Dirichlet L^1 norm."""
    if n < 1:
        raise InputError("cut index must be positive")
    mat = as_int_matrix(matrix)
    group = GroupSpec.semidirect_zd(mat)
    d = group.d
    c = certified_operator_norm_pair(mat)
    radius = math.ceil(n * c ** n - 1e-12)

    def contains(x: tuple) -> bool:
        v, k = x
        return k == 0 and all(abs(t) <= radius for t in v)

    one_dim = dirichlet_l1(radius)
    cert = NormCertificate(one_dim.lower ** d, one_dim.upper ** d,
                           "product-rule", one_dim.tolerance)
    return Cut(group, n,
               PredicateSupport(contains, size=(2 * radius + 1) ** d,
                                description=f"box sup-norm <= {radius} in Z^{d}"),
               cert,
               provenance={"construction": "semidirect_zd",
                           "matrix": [list(r) for r in mat], "n": n,
                           "operator_norm": c, "box_radius": radius,
                           "norm_chain": ["box-tensor-factorization",
                                          "product-rule", "extension-isometry"],
                           "dirichlet_order": radius},
               subgroup_only=True)


def extend_by_cogrowth(sub: Cut, n: int) -> Cut:
    """Promote the subgroup cut ``sub`` of index 2n to a cut of index n on
    the whole group ``sub.group``, along a minimal-length coset section.

    The new support is the disjoint union of the translates y * supp(sub)
    over section representatives y of length at most n; any x of length at
    most n factors as x = y h with y its coset representative and h in the
    subgroup of length at most 2n, so coverage is inherited.  Translation
    is isometric, so the norm is at most |S_n| times the subgroup bound.
    The translates lie in distinct cosets, so x can only lie in that of
    the representative with its coset key: one product per query."""
    if n < 1:
        raise InputError("cut index must be positive")
    if sub.index != 2 * n or not sub.subgroup_only:
        raise InputError(f"extend_by_cogrowth needs a cut of index {2 * n} "
                         "on the designated subgroup")
    group = sub.group
    ops = family_ops(group)
    reps = list(coset_section(group, n))
    key, mul, test = ops.coset_key, ops.mul, sub.support.test
    inv_reps = {key(y.data): ops.inv(y.data) for y in reps}

    def contains(x: tuple) -> bool:
        yi = inv_reps.get(key(x))
        return yi is not None and test(mul(yi, x))

    size = None if sub.support.size is None else len(reps) * sub.support.size
    support = PredicateSupport(
        contains, size=size,
        description=f"{len(reps)} coset translates of a subgroup cut")

    cert = NormCertificate(1.0, len(reps) * sub.certificate.upper,
                           "translation-invariance",
                           sub.certificate.tolerance)
    return Cut(group, n, support, cert,
               provenance={"construction": "cogrowth-extension",
                           "section_size": len(reps), "subcut_index": 2 * n,
                           "subcut": dict(sub.provenance),
                           "norm_chain": ["translation-isometry",
                                          "triangle-inequality"]},
               subgroup_only=False)


def cut_bs(p: int, q: int, n: int) -> Cut:
    """Tree-ball times matrix-part cut for BS(p,q).

    An element lies in the support when its Britton-reduced form uses at most
    n stable letters (the Bass-Serre tree ball, a completely bounded
    multiplier of norm at most 2n+1) and its matrix-group image lies in the
    whole-group (p,q) cut of index n.  Both coordinates of the embedding are
    1-Lipschitz on generators, so the ball B_n is covered."""
    if n < 1:
        raise InputError("cut index must be positive")
    group = GroupSpec.baumslag_solitar(p, q)
    psi = extend_by_cogrowth(cut_pq(p, q, 2 * n), n)
    pq_group, psi_test = psi.group, psi.support.test

    def contains(x: tuple) -> bool:
        return len(x[1]) <= n and psi_test(j2_data(pq_group, x))

    tree_bound = 2 * n + 1
    cert = NormCertificate(1.0, tree_bound * psi.certificate.upper,
                           "product-rule", psi.certificate.tolerance)
    return Cut(group, n,
               PredicateSupport(contains,
                                description=f"tree ball {n} x matrix-part cut"),
               cert,
               provenance={"construction": "baumslag_solitar", "p": p, "q": q,
                           "n": n, "tree_bound": tree_bound,
                           "matrix_part": dict(psi.provenance),
                           "matrix_part_upper": psi.certificate.upper,
                           "norm_chain": ["tree-ball-multiplier",
                                          "product-rule", "restriction"]},
               subgroup_only=False)


def cut_ball(group: GroupSpec, n: int, tol: float = 1e-6) -> Cut:
    """The ball indicator itself as a cut (the rapid-decay route).

    On Z the norm certificate is the exact Dirichlet norm of order n.  On
    Z^2 and Z^3 it brackets the Fourier-algebra norm of the indicator by
    torus quadrature to relative ``tol``; the quadrature raises
    BudgetExceededError when its grid budget runs out first (Z^3 does at
    the default tol from n = 1 on, and converges at tol 1e-4).

    Elsewhere the upper bound is the l2 bound sqrt|B_n|.  For discrete G,
    A(G) = l2(G) * l2(G)^ with ||xi * eta^||_A <= ||xi||_2 ||eta||_2
    (Eymard 1964), and f = f * delta_e^, so ||f||_A <= ||f||_2, which is
    sqrt|B_n| for the indicator.  The inclusions A(G) in B(G) in M_cbA(G)
    in MA(G) are contractive (De Canniere-Haagerup 1985), so the cb and
    multiplier norms are at most sqrt|B_n| as well.  The square root is
    rounded up to the least float at or above it.  The lower bound is
    phi(e) = 1 <= ||phi||_inf <= ||phi||_MA."""
    if n < 0:
        raise InputError("index must be nonnegative")
    bn = ball(group, n)
    if group.family == "free_abelian" and group.d <= 3:
        if n == 0:
            cert = NormCertificate(1.0, 1.0, "exact-dft", tol)
        elif group.d == 1:
            cert = dirichlet_l1(n, tol=tol)
        else:
            poly = TrigPoly.indicator(bn.data(), dim=group.d)
            cert = a_norm_torus(poly, tol=tol)
    else:
        upper = math.sqrt(len(bn))  # correctly rounded: at most 1 ulp low
        num, den = upper.as_integer_ratio()
        if num * num < len(bn) * den * den:
            upper = math.nextafter(upper, math.inf)
        cert = NormCertificate(1.0, upper, "l2-bound", tol)
    support = PredicateSupport(frozenset(bn.data()).__contains__, len(bn),
                               f"the ball B_{n}")
    return Cut(group, n, support, cert,
               provenance={"construction": "ball-indicator", "n": n,
                           "ball_size": len(bn),
                           "norm_chain": (["abelian-transform"]
                                          if group.family == "free_abelian"
                                          else ["l2-bound"])},
               subgroup_only=False)


def interval_cut_family(radii: Iterable[int]) -> tuple[Cut, ...]:
    """Interval indicators 1_{[-r, r]} on Z, indexed 1, 2, ... in the order
    given.  With radii r_n = 3^n these are cuts for the logarithmic length
    log(1 + |k|), and their certified norms grow linearly in the index."""
    group = GroupSpec.free_abelian(1)
    cuts = []
    for i, r in enumerate(radii, start=1):
        cert = dirichlet_l1(r)
        def contains(x: tuple, rr=int(r)) -> bool:
            return abs(x[0]) <= rr
        cuts.append(Cut(group, i,
                        PredicateSupport(contains, size=2 * int(r) + 1,
                                         description=f"|k| <= {r} in Z"),
                        cert,
                        provenance={"construction": "interval", "radius": int(r),
                                    "norm_chain": ["abelian-transform"]},
                        subgroup_only=False))
    return tuple(cuts)


# ---------------------------------------------------------------------------
# verification and growth fitting


def verify_cut(cut: Cut) -> VerificationReport:
    """Exhaustive coverage check against the BFS ball plus a norm
    consistency check.

    Coverage means the cut equals 1 on every element of B_n (intersected
    with the designated subgroup for subgroup-level cuts); the first missing
    element, if any, is returned as a witness.  The norm lower bound is the
    supremum of the cut over those checked elements, a certified bound since
    ||phi||_inf <= ||phi||_MA <= ||phi||_cb: 1.0 as soon as one of them lies
    in the support (for a covering cut, the identity, checked first), 0.0
    only when the cut vanishes on all of them."""
    members = list(ball(cut.group, cut.index).data())
    if cut.subgroup_only:
        ops = family_ops(cut.group)
        members = [x for x in members if in_subgroup(ops, x)]
    test = cut.support.test
    witness = next((x for x in members if not test(x)), None)
    lower = 1.0 if witness is None or any(map(test, members)) else 0.0
    upper = cut.certificate
    return VerificationReport(
        covers_ball=witness is None,
        witness=None if witness is None else Element(cut.group, witness),
        norm_upper=upper,
        norm_lower=lower,
        consistent=lower <= upper.upper + 1e-9,
        checked=len(members),
    )


def fit_growth(cuts: Iterable[Cut]) -> tuple[float, float]:
    """Fit certificate uppers to C n^a by log-log least squares over a
    family of at least three cuts, given in strictly increasing index order.

    Families whose uppers are constant to within 1% report a = 0 exactly,
    with C their geometric mean."""
    cuts = list(cuts)
    if len(cuts) < 3:
        raise InputError("growth fit needs at least three cuts")
    ns = np.array([c.index for c in cuts], dtype=float)
    if np.any(np.diff(ns) <= 0):
        raise InputError("cut indices must be strictly increasing")
    ups = np.array([c.certificate.upper for c in cuts], dtype=float)
    if ups.max() <= 1.01 * ups.min():
        return float(np.exp(np.mean(np.log(ups)))), 0.0
    a, logc = np.polyfit(np.log(ns), np.log(ups), 1)
    return float(math.exp(logc)), float(a)
