"""Tame-cut constructions: coverage, certificates, and growth fits."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from tamecuts import cuts as cuts_mod
from tamecuts.errors import InputError
from tamecuts.fourier import NormCertificate, dirichlet_l1
from tamecuts.groups import (
    Element,
    GroupSpec,
    ball,
    generators,
    identity,
    multiply,
    subgroup_ball,
)
from tamecuts.groups import balls as balls_mod
from tamecuts.groups import elements as elements_mod
from tamecuts.cuts import (
    Cut,
    PredicateSupport,
    cut_ball,
    cut_bs,
    cut_lamplighter,
    cut_pq,
    cut_semidirect_zd,
    extend_by_cogrowth,
    fit_growth,
    interval_cut_family,
    verify_cut,
)

GOLDEN = (1 + math.sqrt(5)) / 2
SHEAR = [[1, 1], [0, 1]]


def _member_support(members):
    """The support whose predicate looks the data up among ``members``."""
    data = frozenset(x.data for x in members)
    return PredicateSupport(data.__contains__, len(data))


# ---------------------------------------------------------------------------
# lamplighter


def test_lamplighter_cut_examples():
    c1 = cut_lamplighter(2, 1)
    assert c1.support.size == 2  # {e, lamp at 0}
    assert c1.certificate.lower == c1.certificate.upper == 1.0
    assert c1.certificate.method == "extension-isometry"
    c3 = cut_lamplighter(2, 3)
    assert c3.support.size == 8  # lamps at {-1,0,1}
    # a lamp at position j costs 2|j| + 1, so positions reach (n-1)/2
    c5 = cut_lamplighter(2, 5)
    assert c5.support.size == 2 ** 5


def _lamp_closure(spec, n):
    """The subgroup generated by the lamp-subgroup part of B_n, closed by
    generic BFS over those generators."""
    gens = [x for x in subgroup_ball(ball(spec, n)) if not x.is_identity()]
    members = {identity(spec)}
    frontier = [identity(spec)]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = multiply(x, g)
                if y not in members:
                    members.add(y)
                    fresh.append(y)
        frontier = fresh
    return members


def test_lamplighter_closure_matches_generic_bfs():
    """The closed-form support agrees with the BFS closure on the closure
    and on every neighbour of it, and its size is the closure's."""
    for p, n in [(3, 4), (2, 5), (2, 6)]:
        spec = GroupSpec.lamplighter(p)
        cut = cut_lamplighter(p, n)
        members = _lamp_closure(spec, n)
        assert cut.support.size == len(members)
        assert cut.provenance["subgroup_order"] == len(members)
        steps = [g for _, g in generators(spec)]
        for x in members:
            assert x in cut
            for g in steps:
                y = multiply(x, g)
                assert (y in cut) == (y in members), y


def test_lamplighter_verify_and_fit():
    fam = [cut_lamplighter(2, n) for n in range(1, 6)]
    for cut in fam:
        report = verify_cut(cut)
        assert report.covers_ball and report.witness is None
        assert report.consistent
        assert report.norm_lower <= 1.0 + 1e-9
    for small, large in zip(fam, fam[1:]):
        closure = _lamp_closure(large.group, large.index)
        assert all(x in large for x in closure)
        assert ({x for x in closure if x in small}
                == _lamp_closure(small.group, small.index))
    c, a = fit_growth(fam)
    assert a == 0.0 and abs(c - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# pq


def test_pq_cut_examples():
    cut = cut_pq(2, 3, 1)
    assert cut.provenance["power_bound"] == 36  # 1 * 3^2 * 2^2
    assert cut.support.size == 73
    # the translation by 1 is the 6th power of the generator of the cyclic
    # subgroup, well inside the bound
    t = Element(GroupSpec.pq(2, 3), (1, 0, 0))
    assert t in cut
    assert Element(GroupSpec.pq(2, 3), (0, 0, 1)) not in cut  # k != 0
    # norm certificate is the Dirichlet value of the matching order
    ref = dirichlet_l1(36)
    assert cut.certificate.upper == ref.upper
    # too-fine denominators are excluded
    fine = Element(GroupSpec.pq(2, 3), (1, 2, 0))  # 1/36, needs e <= 1
    assert fine not in cut


def test_pq_coverage_exhaustive():
    for n in range(1, 5):
        report = verify_cut(cut_pq(2, 3, n))
        assert report.covers_ball, n
        assert report.consistent


def test_pq_supports_nested():
    group = GroupSpec.pq(2, 3)
    cuts = [cut_pq(2, 3, n) for n in (1, 2, 3)]
    window = ball(group, 4)
    for small, large in zip(cuts, cuts[1:]):
        for x in window:
            if x in small:
                assert x in large


def test_pq_uppers_affine_in_index():
    """Certificate uppers grow linearly in n (slope ~ (8/pi^2) ln 6 plus the
    slowly varying ln n term); the log-log exponent over 1..6 sits below 1
    and approaches it from below on longer windows."""
    fam = [cut_pq(2, 3, n) for n in range(1, 7)]
    ups = np.array([c.certificate.upper for c in fam])
    ns = np.arange(1, 7, dtype=float)
    slope, intercept = np.polyfit(ns, ups, 1)
    residual = ups - (slope * ns + intercept)
    assert np.abs(residual).max() < 0.05 * ups.max()
    assert abs(slope - (8 / math.pi ** 2) * math.log(6)) < 0.25
    c, a = fit_growth(fam)
    assert 0.6 <= a <= 1.05


# ---------------------------------------------------------------------------
# semidirect


def test_semidirect_cut_examples():
    cut = cut_semidirect_zd(SHEAR, 1)
    c = cut.provenance["operator_norm"]
    assert c >= GOLDEN - 1e-15
    assert c - GOLDEN <= 1e-9
    ident = cut_semidirect_zd([[1, 0], [0, 1]], 3)
    assert ident.provenance["operator_norm"] == 1.0
    assert ident.provenance["box_radius"] == 3
    ref = dirichlet_l1(cut.provenance["box_radius"])
    assert abs(cut.certificate.upper - ref.upper ** 2) < 1e-12


def test_semidirect_coverage_exhaustive():
    for n in range(1, 7):
        report = verify_cut(cut_semidirect_zd(SHEAR, n))
        assert report.covers_ball, n
        assert report.consistent


def test_semidirect_box_radii_nested():
    radii = [cut_semidirect_zd(SHEAR, n).provenance["box_radius"]
             for n in range(1, 7)]
    assert radii == sorted(radii)


# ---------------------------------------------------------------------------
# cogrowth extension


def test_extend_trivial_quotient():
    """On Z the designated subgroup is the whole group: the section is {e}
    and the extension is just the subgroup cut of doubled index."""
    base = interval_cut_family([1, 2, 3, 4])
    psi = dataclasses.replace(base[3], subgroup_only=True)
    assert psi.index == 4
    ext = extend_by_cogrowth(psi, 2)
    assert ext.group == GroupSpec.free_abelian(1)
    assert ext.provenance["section_size"] == 1
    assert ext.certificate.upper == psi.certificate.upper
    window = ball(GroupSpec.free_abelian(1), 6)
    assert {x for x in window if x in ext} == \
        {x for x in window if x in psi}


def test_extend_missing_index_errors():
    for n in (1, 2, 3):
        with pytest.raises(InputError):
            extend_by_cogrowth(cut_lamplighter(2, n), 2)  # needs index 4
    # a whole-group cut of the right index is not a subgroup cut
    with pytest.raises(InputError):
        extend_by_cogrowth(interval_cut_family([1, 2, 3, 4])[3], 2)


def test_extend_lamplighter_support_and_coverage():
    group = GroupSpec.lamplighter(2)
    for n in range(1, 6):
        sub = cut_lamplighter(2, 2 * n)
        ext = extend_by_cogrowth(sub, n)
        assert ext.group == group
        assert ext.support.size == (2 * n + 1) * sub.support.size
        report = verify_cut(ext)
        assert report.covers_ball, n
        assert report.consistent
    # certified upper is the section size times the subgroup bound (= 1)
    ext3 = extend_by_cogrowth(cut_lamplighter(2, 6), 3)
    assert ext3.certificate.upper == 7.0


def test_extend_pq_whole_group_coverage():
    group = GroupSpec.pq(2, 3)
    for n in (1, 2, 3):
        ext = extend_by_cogrowth(cut_pq(2, 3, 2 * n), n)
        assert ext.group == group
        assert ext.provenance["section_size"] == 2 * n + 1
        report = verify_cut(ext)
        assert report.covers_ball, n
        assert report.consistent


def test_extend_semidirect_section_size():
    group = GroupSpec.semidirect_zd(SHEAR)
    for n in (1, 2, 3):
        sub = cut_semidirect_zd(SHEAR, 2 * n)
        ext = extend_by_cogrowth(sub, n)
        assert ext.group == group
        assert ext.provenance["section_size"] == 2 * n + 1
        assert ext.certificate.upper == (2 * n + 1) * sub.certificate.upper
        report = verify_cut(ext)
        assert report.covers_ball


def _bs_power_cut(p, q, index, bound):
    """The powers a^c, |c| <= bound, of BS(p,q)'s subgroup H = <a>."""
    def contains(x):
        return not x[1] and abs(x[0]) <= bound
    return Cut(GroupSpec.baumslag_solitar(p, q), index,
               PredicateSupport(contains, 2 * bound + 1), dirichlet_l1(bound),
               subgroup_only=True)


@pytest.mark.parametrize("sub, n", [
    (cut_pq(2, 3, 4), 2),
    (cut_lamplighter(3, 6), 3),
    (cut_semidirect_zd(SHEAR, 4), 2),
    (dataclasses.replace(interval_cut_family([1, 2, 3, 4])[3],
                         subgroup_only=True), 2),
    (_bs_power_cut(2, 3, 6, 10 ** 6), 3),  # |c| <= 6 * 3^6 on B_6
], ids=lambda v: v.group.family if isinstance(v, Cut) else str(v))
def test_extend_makes_one_product_per_query(sub, n):
    """An extended cut multiplies at most once per membership query, and
    answers as the union of the translates y * supp(sub) over the whole
    section does."""
    group = dataclasses.replace(sub.group)  # an equal spec, its own record
    ops = elements_mod.family_ops(group)
    calls = [0]

    def counted(x, y):
        calls[0] += 1
        return ops.mul(x, y)

    object.__setattr__(group, "_ops", ops._replace(mul=counted))
    ext = extend_by_cogrowth(dataclasses.replace(sub, group=group), n)
    inv_reps = [ops.inv(y.data) for y in balls_mod.coset_section(group, n)]
    test = sub.support.test
    window = list(ball(group, n + 2).data())
    for x in window:
        before = calls[0]
        inside = Element(group, x) in ext
        assert calls[0] - before <= 1
        assert inside == any(test(ops.mul(yi, x)) for yi in inv_reps), x
    assert all(Element(group, x) in ext
               for x in window[:len(ball(group, n))])


# ---------------------------------------------------------------------------
# Baumslag-Solitar


def test_bs_cut_coverage_and_certificate():
    for n in (1, 2, 3):
        cut = cut_bs(2, 3, n)
        report = verify_cut(cut)
        assert report.covers_ball, n
        assert report.consistent
        # upper = (2n+1) * (whole-group pq cut upper at the same index)
        psi = extend_by_cogrowth(cut_pq(2, 3, 2 * n), n)
        assert psi.group == GroupSpec.pq(2, 3)
        assert abs(cut.certificate.upper
                   - (2 * n + 1) * psi.certificate.upper) < 1e-9
        assert cut.provenance["tree_bound"] == 2 * n + 1


def test_bs11_cut_matches_z2_cut_coverage():
    """BS(1,1) is Z^2; its cut covers the ball exactly as a Z^2 ball cut
    does, radius for radius."""
    z2 = GroupSpec.free_abelian(2)
    for n in range(1, 6):
        cut = cut_bs(1, 1, n)
        report = verify_cut(cut)
        assert report.covers_ball, n
        assert len(ball(GroupSpec.baumslag_solitar(1, 1), n)) == len(ball(z2, n))


def test_bs_support_monotone_on_window():
    cuts = [cut_bs(2, 3, n) for n in (1, 2)]
    window = ball(GroupSpec.baumslag_solitar(2, 3), 3)
    for x in window:
        if x in cuts[0]:
            assert x in cuts[1]


# ---------------------------------------------------------------------------
# ball cuts and interval families


def test_cut_ball_z():
    cut = cut_ball(GroupSpec.free_abelian(1), 3)
    ref = dirichlet_l1(3)
    assert abs(cut.certificate.value - ref.value) < 1e-12
    report = verify_cut(cut)
    assert report.covers_ball and report.consistent


def test_cut_ball_index_zero():
    cut = cut_ball(GroupSpec.free_abelian(1), 0)
    assert cut.support.size == 1
    assert cut.certificate.lower == cut.certificate.upper == 1.0


def test_cut_ball_z2_certificate_brackets():
    cut = cut_ball(GroupSpec.free_abelian(2), 2)
    assert cut.certificate.lower >= 1.0
    assert cut.certificate.upper <= 13.0 + 1e-12  # l1 bound
    assert verify_cut(cut).covers_ball


def test_cut_ball_nonabelian_uses_l2_bound():
    """Off Z^d the ball cut certifies [1, sqrt|B_2|] (||f||_A <= ||f||_2),
    with |B_2| counted here from products of the generators, and the upper
    end is the least float whose square is at least |B_2|."""
    for group in (GroupSpec.lamplighter(2), GroupSpec.pq(2, 3),
                  GroupSpec.baumslag_solitar(2, 3),
                  GroupSpec.semidirect_zd(SHEAR)):
        gens = [g for _, g in generators(group)]
        sphere = seen = {identity(group)}
        for _ in range(2):
            sphere = {multiply(x, g) for x in sphere for g in gens} - seen
            seen = seen | sphere
        cert = cut_ball(group, 2).certificate
        assert cert.method == "l2-bound" and cert.lower == 1.0
        assert Fraction(cert.upper) ** 2 >= len(seen)
        assert Fraction(math.nextafter(cert.upper, 0.0)) ** 2 < len(seen)
        assert cert.upper == pytest.approx(math.sqrt(len(seen)), rel=1e-15)


@pytest.mark.parametrize("d, n", [(1, 1), (1, 2), (1, 5), (1, 40),
                                  (2, 1), (2, 2), (2, 5)])
def test_l2_bound_holds_where_the_norm_is_known(d, n):
    """On Z and Z^2 the A-norm of the ball indicator is known, and it lies
    below sqrt|B_n|: on Z it is the Lebesgue constant, by Fejer's sum
    1/(2n+1) + (2/pi) sum_k tan(pi k/(2n+1))/k; on Z^2 it is the mean of
    |p| over a 512 x 512 torus grid (the FFT of the indicator).  Both lie
    in the bracket that ``cut_ball`` certifies."""
    if d == 1:
        size = 2 * n + 1
        norm = 1 / size + (2 / math.pi) * sum(
            math.tan(math.pi * k / size) / k for k in range(1, n + 1))
        slack = 1e-9
    else:
        grid = np.zeros((512, 512))
        points = [(a, b) for a in range(-n, n + 1) for b in range(-n, n + 1)
                  if abs(a) + abs(b) <= n]
        for a, b in points:
            grid[a, b] = 1.0
        size, norm = len(points), float(np.abs(np.fft.fft2(grid)).mean())
        slack = 1e-3
    cert = cut_ball(GroupSpec.free_abelian(d), n).certificate
    assert cert.lower * (1 - slack) <= norm <= cert.upper * (1 + slack)
    assert norm < math.sqrt(size)


def test_interval_family_linear_growth():
    """Radii 3^n realize cuts for the logarithmic length; certified norms
    grow linearly in the index with increment (4/pi^2) ln 3."""
    fam = interval_cut_family([3 ** k for k in range(1, 8)])
    ups = [c.certificate.upper for c in fam]
    diffs = [b - a for a, b in zip(ups, ups[1:])]
    target = (4 / math.pi ** 2) * math.log(3)
    for d in diffs[2:]:
        assert abs(d - target) < 0.15 * target
    slope, _ = np.polyfit(np.arange(1, 8), ups, 1)
    assert abs(slope - target) < 0.15 * target


# ---------------------------------------------------------------------------
# verification details


def test_verify_adversarial_cut_produces_witness():
    group = GroupSpec.free_abelian(2)
    bn = ball(group, 2)
    removed = next(x for x in bn if x.data == (1, 1))
    members = [x for x in bn if x != removed]
    bad = Cut(group, 2, _member_support(members),
              dirichlet_l1(2), provenance={"construction": "adversarial"})
    report = verify_cut(bad)
    assert not report.covers_ball
    assert report.witness == removed

    e = identity(group)
    no_identity = Cut(group, 2, _member_support(x for x in bn if x != e),
                      dirichlet_l1(2), provenance={"construction": "adversarial"})
    report = verify_cut(no_identity)
    assert not report.covers_ball
    assert report.witness == e
    assert report.norm_lower == 1.0

    empty = Cut(group, 2, _member_support([]), dirichlet_l1(2),
                provenance={"construction": "adversarial"})
    report = verify_cut(empty)
    assert report.witness == e
    assert report.norm_lower == 0.0 and report.consistent


def test_ball_cut_excludes_other_groups():
    """The ball cut holds elements of its own group only: s of pq(2,3) is in
    it, the element of Z^3 with the same data is not."""
    cut = cut_ball(GroupSpec.pq(2, 3), 2)
    assert Element(GroupSpec.pq(2, 3), (0, 0, 1)) in cut
    assert cut.support.test((0, 0, 1))
    assert Element(GroupSpec.free_abelian(3), (0, 0, 1)) not in cut


def test_cut_ball_enumerates_no_elements(monkeypatch):
    """cut_ball reads the ball's data: iterating the ball as ``Element``s
    may raise."""
    def refuse(self):
        raise AssertionError("Ball.__iter__ called")

    monkeypatch.setattr(balls_mod.Ball, "__iter__", refuse)
    for group in (GroupSpec.free_abelian(2), GroupSpec.pq(2, 3)):
        cut = cut_ball(group, 3)
        data = list(ball(group, 3).data())
        assert cut.support.size == len(data)
        assert all(Element(group, x) in cut for x in data)
        assert verify_cut(cut).covers_ball


def test_support_is_a_plain_predicate():
    """A support is an immutable (test, size, description) value; element
    membership is asked of the cut, and ``x in support`` is a TypeError."""
    cut = cut_pq(2, 3, 1)
    assert [f.name for f in dataclasses.fields(cut.support)] == \
        ["test", "size", "description"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        cut.support.size = 0
    e = identity(cut.group)
    assert e in cut
    with pytest.raises(TypeError):
        e in cut.support


def test_predicate_supports_exclude_other_groups():
    """A cut holds elements of its own group only: an element of another
    group whose data the predicate would accept is not in it."""
    z3 = Element(GroupSpec.free_abelian(3), (0, 0, 0))
    assert cut_pq(2, 3, 1).support.test(z3.data)
    assert z3 not in cut_pq(2, 3, 1)
    assert Element(GroupSpec.pq(2, 3), (0, 0, 0)) in cut_pq(2, 3, 1)
    semidirect = Element(GroupSpec.semidirect_zd([[2, 1], [1, 1]]), ((), 0))
    assert cut_lamplighter(2, 1).support.test(semidirect.data)
    assert semidirect not in cut_lamplighter(2, 1)
    for cut in (cut_bs(2, 3, 1), cut_semidirect_zd([[1, 1], [0, 1]], 1),
                extend_by_cogrowth(cut_pq(2, 3, 2), 1),
                *interval_cut_family([1, 3])):
        assert identity(cut.group) in cut
    # one predicate shared by cuts on Z and Z^2: each cut holds the elements
    # of its own group only
    shared = PredicateSupport(lambda x: True)
    on_z = Cut(GroupSpec.free_abelian(1), 1, shared, dirichlet_l1(1))
    on_z2 = Cut(GroupSpec.free_abelian(2), 1, shared, dirichlet_l1(1))
    z, z2 = identity(on_z.group), identity(on_z2.group)
    assert z in on_z and z not in on_z2
    assert z2 in on_z2 and z2 not in on_z


def test_cuts_query_canonical_data(monkeypatch):
    """Constructing and verifying the composed cuts multiplies, inverts and
    embeds no ``Element``: the public element operations may all raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("Element operation called")

    for module in (elements_mod, cuts_mod):
        for name in ("multiply", "invert", "embed_j2", "t_length"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    for make in (lambda: cut_bs(2, 3, 3), lambda: cut_pq(2, 3, 3),
                 lambda: cut_lamplighter(2, 3),
                 lambda: cut_semidirect_zd([[2, 1], [1, 1]], 3)):
        assert verify_cut(make()).covers_ball


def test_verify_flags_certificate_below_lower_bound():
    """A certificate upper below the cut's sup norm 1 is inconsistent."""
    (cut,) = interval_cut_family([3])
    understated = dataclasses.replace(
        cut, certificate=NormCertificate(0.5, 0.5, "product-rule", 0.0))
    report = verify_cut(understated)
    assert report.covers_ball
    assert report.norm_lower == 1.0
    assert not report.consistent
    assert verify_cut(cut).consistent


def test_cut_family_indices_strictly_increasing():
    c1, c2 = cut_lamplighter(2, 1), cut_lamplighter(2, 2)
    for cuts in ((c1, c1, c2), (c1, c2, c2), (c2, c1, c2)):
        with pytest.raises(InputError, match="strictly increasing"):
            fit_growth(cuts)


def test_fit_growth_cases():
    const = [Cut(GroupSpec.free_abelian(1), n, PredicateSupport(lambda x: True),
                 dirichlet_l1(0), provenance={}) for n in (1, 2, 3)]
    c, a = fit_growth(const)
    assert a == 0.0 and abs(c - 1.0) < 1e-9
    with pytest.raises(InputError):
        fit_growth([cut_lamplighter(2, 1)])
