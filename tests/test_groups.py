"""Group arithmetic, canonical forms, balls, sections, and the cache."""

import json
import pickle
import random
from bisect import bisect_right
from fractions import Fraction
from functools import partial
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tamecuts
import tamecuts.groups
from tamecuts.errors import BudgetExceededError, ElementNotFoundError, InputError
from tamecuts.groups import (
    BallCache,
    Element,
    GroupSpec,
    ball,
    canonicalize,
    coset_section,
    embed_j2,
    generators,
    identity,
    invert,
    multiply,
    subgroup_ball,
    subgroup_membership,
    t_length,
    word_length,
)
from tamecuts.cli import main
from tamecuts.groups import balls as balls_mod
from tamecuts.groups import cache as cache_mod
from tamecuts.groups import elements as elements_mod
from tamecuts.groups.elements import family_ops

Z1 = GroupSpec.free_abelian(1)
Z2 = GroupSpec.free_abelian(2)
SD = GroupSpec.semidirect_zd([[1, 1], [0, 1]])
PQ23 = GroupSpec.pq(2, 3)
LAMP2 = GroupSpec.lamplighter(2)
LAMP3 = GroupSpec.lamplighter(3)
BS23 = GroupSpec.baumslag_solitar(2, 3)
BS11 = GroupSpec.baumslag_solitar(1, 1)

ALL_FAMILIES = [Z2, SD, PQ23, LAMP2, BS23]


def random_word(spec, rng, max_len=12):
    syms = spec.symbols()
    return [rng.choice(syms) for _ in range(rng.randint(0, max_len))]


@pytest.mark.parametrize("module", [tamecuts, tamecuts.groups],
                         ids=lambda m: m.__name__)
def test_export_list_resolves(module):
    """Every name in the package's export list is defined on the module,
    and none is listed twice."""
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


# ---------------------------------------------------------------------------
# spec validation


def test_spec_validation():
    with pytest.raises(InputError):
        GroupSpec.semidirect_zd([[2, 0], [0, 1]])  # det 2
    with pytest.raises(InputError):
        GroupSpec.pq(2, 4)  # not coprime
    with pytest.raises(InputError):
        GroupSpec.lamplighter(1)
    with pytest.raises(InputError):
        GroupSpec.free_abelian(0)
    with pytest.raises(InputError):
        GroupSpec.baumslag_solitar(0, 3)


def test_spec_roundtrip_and_hash():
    for spec in ALL_FAMILIES + [Z1, BS11, LAMP3]:
        again = GroupSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        assert again.spec_hash() == spec.spec_hash()
    assert Z1.spec_hash() != Z2.spec_hash()


def test_generator_symbols_closed_under_inversion():
    for spec in ALL_FAMILIES:
        syms = spec.symbols()
        for s in spec.base_symbols():
            assert s in syms and s + "^-1" in syms
            g = canonicalize([s], spec)
            gi = canonicalize([s + "^-1"], spec)
            assert multiply(g, gi) == identity(spec)


# ---------------------------------------------------------------------------
# canonicalize / multiply / invert worked examples


def test_canonicalize_examples():
    # pinch: t a^2 t^-1 = a^3 in BS(2,3)
    assert canonicalize("t a a t^-1", BS23).data == (3, ())
    # empty word is the identity, for every family
    for spec in ALL_FAMILIES:
        assert canonicalize([], spec) == identity(spec)
    # a^1 between t and t^-1 is not pinchable (2 does not divide 1)
    y = canonicalize("t a t^-1", BS23)
    assert y.data == (0, ((1, 1), (-1, 0)))
    with pytest.raises(InputError):
        canonicalize(["nope"], Z2)


def test_pq_matrix_oracle():
    """Canonical forms agree with exact 2x2 rational matrix products."""

    def as_matrix(x):
        m, e, k = x.data
        p, q = x.group.p, x.group.q
        return (Fraction(p, q) ** k, Fraction(m, (p * q) ** e))

    def mat_mul(a, b):
        # [[alpha, P],[0,1]] * [[beta, Q],[0,1]] = [[alpha*beta, alpha*Q+P],[0,1]]
        return (a[0] * b[0], a[0] * b[1] + a[1])

    s, t = canonicalize(["s"], PQ23), canonicalize(["t"], PQ23)
    x = canonicalize("s t s^-1", PQ23)
    assert x.data == (4, 1, 0)  # P = 2/3 = 4/6 with minimal denominator exponent
    assert as_matrix(x) == (Fraction(1), Fraction(2, 3))

    rng = random.Random(11)
    for _ in range(300):
        w1, w2 = random_word(PQ23, rng, 8), random_word(PQ23, rng, 8)
        a, b = canonicalize(w1, PQ23), canonicalize(w2, PQ23)
        assert as_matrix(multiply(a, b)) == mat_mul(as_matrix(a), as_matrix(b))


# ---------------------------------------------------------------------------
# independent oracles: matrices and norms built here from the generators


WORDS = st.lists(st.integers(0, 63), max_size=12)
ORACLE_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                           database=None)


def word_of(spec, letters):
    syms = spec.symbols()
    return [syms[i % len(syms)] for i in letters]


def mat_product(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def word_matrix(gens, word, size):
    out = [[int(i == j) for j in range(size)] for i in range(size)]
    for sym in word:
        out = mat_product(out, gens[sym])
    return out


@ORACLE_SETTINGS
@given(pq=st.sampled_from([(2, 3), (1, 2), (5, 3)]), w1=WORDS, w2=WORDS)
def test_pq_words_match_fraction_matrices(pq, w1, w2):
    """Canonical forms of words in s, t, their products and inverses equal
    the exact 2x2 matrices [[(p/q)^k, P], [0, 1]] multiplied out here."""
    p, q = pq
    spec = GroupSpec.pq(p, q)
    one, zero = Fraction(1), Fraction(0)
    gens = {"s": [[Fraction(p, q), zero], [zero, one]],
            "s^-1": [[Fraction(q, p), zero], [zero, one]],
            "t": [[one, one], [zero, one]],
            "t^-1": [[one, -one], [zero, one]]}

    def decoded(x):
        m, e, k = x.data
        assert e >= 0 and (e == 0 or m % (p * q) != 0)  # minimal exponent
        return [[Fraction(p, q) ** k, Fraction(m, (p * q) ** e)], [zero, one]]

    a, b = word_of(spec, w1), word_of(spec, w2)
    ma, mb = word_matrix(gens, a, 2), word_matrix(gens, b, 2)
    x, y = canonicalize(a, spec), canonicalize(b, spec)
    assert decoded(x) == ma
    assert decoded(multiply(x, y)) == mat_product(ma, mb)
    inv = [[1 / ma[0][0], -ma[0][1] / ma[0][0]], [zero, one]]
    assert decoded(invert(x)) == inv


SD_ORACLE_MATRICES = [  # (A, A^-1), both checked below
    ([[1, 1], [0, 1]], [[1, -1], [0, 1]]),
    ([[2, 1], [1, 1]], [[1, -1], [-1, 2]]),
    ([[1, 1, 0], [0, 1, 1], [0, 0, 1]], [[1, -1, 1], [0, 1, -1], [0, 0, 1]]),
]


@ORACLE_SETTINGS
@given(pair=st.sampled_from(SD_ORACLE_MATRICES), w1=WORDS, w2=WORDS)
def test_semidirect_words_match_affine_matrices(pair, w1, w2):
    """Canonical forms (v, k) of words in e1..ed, t, their products and
    inverses equal the integer affine matrices [[A^k, v], [0, 1]] multiplied
    out here."""
    a_mat, a_inv = pair
    d = len(a_mat)
    assert mat_product(a_mat, a_inv) == [[int(i == j) for j in range(d)]
                                         for i in range(d)]
    spec = GroupSpec.semidirect_zd(a_mat)

    def affine(block, v):
        return [list(block[i]) + [v[i]] for i in range(d)] + [[0] * d + [1]]

    ident = [[int(i == j) for j in range(d)] for i in range(d)]
    gens = {"t": affine(a_mat, [0] * d), "t^-1": affine(a_inv, [0] * d)}
    for i in range(d):
        unit = [int(j == i) for j in range(d)]
        gens[f"e{i + 1}"] = affine(ident, unit)
        gens[f"e{i + 1}^-1"] = affine(ident, [-c for c in unit])

    def decoded(x):
        v, k = x.data
        block = ident
        for _ in range(abs(k)):
            block = mat_product(block, a_mat if k > 0 else a_inv)
        return affine(block, v)

    a, b = word_of(spec, w1), word_of(spec, w2)
    ma, mb = word_matrix(gens, a, d + 1), word_matrix(gens, b, d + 1)
    x, y = canonicalize(a, spec), canonicalize(b, spec)
    assert decoded(x) == ma
    assert decoded(multiply(x, y)) == mat_product(ma, mb)
    assert mat_product(decoded(invert(x)), ma) == word_matrix(gens, [], d + 1)


@ORACLE_SETTINGS
@given(d=st.integers(1, 3), letters=WORDS)
def test_free_abelian_word_length_is_l1_norm(d, letters):
    """In Z^d a word's canonical form is its net letter count, and its word
    length is the l1 norm of that count."""
    spec = GroupSpec.free_abelian(d)
    word = word_of(spec, letters)
    count = [word.count(f"e{i + 1}") - word.count(f"e{i + 1}^-1")
             for i in range(d)]
    x = canonicalize(word, spec)
    assert list(x.data) == count
    assert word_length(x) == sum(abs(c) for c in count)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(family=st.integers(0, len(ALL_FAMILIES) - 1), letters=WORDS)
def test_ops_inverse_is_an_involution(family, letters):
    """Through each family's arithmetic record, inversion is an involution
    and x * x^-1 = x^-1 * x is the identity; the data of x survives the
    cache's JSON round trip."""
    spec = ALL_FAMILIES[family]
    ops = family_ops(spec)
    x = canonicalize(word_of(spec, letters), spec).data
    xi = ops.inv(x)
    assert ops.inv(xi) == x
    assert ops.mul(x, xi) == ops.identity == ops.mul(xi, x)
    assert invert(Element(spec, x)) == Element(spec, xi)
    payload = json.loads(json.dumps(x))
    assert cache_mod._data(payload) == x


def test_pq_denominator_minimal():
    rng = random.Random(5)
    for _ in range(500):
        x = canonicalize(random_word(PQ23, rng), PQ23)
        m, e, _ = x.data
        assert e >= 0
        assert e == 0 or m % 6 != 0


def test_multiply_examples():
    a = Element(SD, ((1, 0), 1))
    b = Element(SD, ((0, 1), 0))
    assert multiply(a, b).data == ((2, 1), 1)
    u = Element(LAMP2, (((0, 1),), 1))
    v = Element(LAMP2, (((0, 1),), -1))
    assert multiply(u, v).data == (((0, 1), (1, 1)), 0)
    rng = random.Random(2)
    for spec in ALL_FAMILIES:
        for _ in range(50):
            x = canonicalize(random_word(spec, rng), spec)
            assert multiply(x, invert(x)) == identity(spec)
    with pytest.raises(InputError):
        multiply(identity(Z1), identity(Z2))


def test_invert_examples():
    x = Element(SD, ((2, 1), 1))
    assert invert(x).data == ((-1, -1), -1)
    assert multiply(x, invert(x)) == identity(SD)
    assert invert(identity(BS23)) == identity(BS23)
    t = canonicalize(["t"], BS23)
    assert invert(t) == canonicalize(["t^-1"], BS23)
    rng = random.Random(3)
    for spec in ALL_FAMILIES:
        for _ in range(100):
            x = canonicalize(random_word(spec, rng), spec)
            assert invert(invert(x)) == x


RELATORS = {
    Z2: [["e1", "e2", "e1^-1", "e2^-1"]],
    SD: [["e1", "e2", "e1^-1", "e2^-1"],
         # t e1 t^-1 = e1 (first column of A), t e2 t^-1 = e1 e2
         ["t", "e1", "t^-1", "e1^-1"],
         ["t", "e2", "t^-1", "e2^-1", "e1^-1"]],
    PQ23: [["s", "t", "t", "t", "s^-1", "t^-1", "t^-1"],  # s t^q s^-1 = t^p
           ["t", "s", "t", "s^-1", "t^-1", "s", "t^-1", "s^-1"]],
    LAMP2: [["a", "a"],
            ["a", "t", "a", "t^-1", "a^-1", "t", "a^-1", "t^-1"]],
    BS23: [["t", "a", "a", "t^-1", "a^-1", "a^-1", "a^-1"]],
}


def test_relators_are_trivial():
    for spec, rels in RELATORS.items():
        for rel in rels:
            assert canonicalize(rel, spec) == identity(spec), (spec.family, rel)


def test_canonical_form_soundness():
    """Inserting a free cancellation or a defining relator anywhere in a word
    does not change its canonical form: 1000 random words per family."""
    rng = random.Random(41)
    for spec, rels in RELATORS.items():
        syms = spec.symbols()
        for _ in range(1000):
            w = random_word(spec, rng)
            if rng.random() < 0.5:
                s = rng.choice(syms)
                ins = [s, s + "^-1"] if not s.endswith("^-1") else [s, s[:-3]]
            else:
                ins = rng.choice(rels)
            j = rng.randint(0, len(w))
            w2 = w[:j] + list(ins) + w[j:]
            assert canonicalize(w2, spec) == canonicalize(w, spec)


def _assert_britton_form(spec, x):
    """Interior exponents of the BS data ``x`` lie in their coset ranges,
    and no pinch is left."""
    c0, tail = x
    exps = [c0] + [c for _, c in tail]
    for i, (eps, _) in enumerate(tail):
        before = exps[i]
        # in {0..q-1} before a t, in {0..p-1} before a t^-1
        assert 0 <= before < (spec.q if eps == 1 else spec.p), x
        # no pinch: at a t^{+-1} t^{-+1} site the exponent between them,
        # already reduced to its coset range, must be nonzero
        if i > 0 and tail[i - 1][0] == -eps:
            assert before != 0, x


def test_bs_canonical_invariants():
    """Britton form: interior exponents in coset ranges, no pinches."""
    rng = random.Random(7)
    for _ in range(1000):
        _assert_britton_form(BS23, canonicalize(random_word(BS23, rng), BS23).data)


# ---------------------------------------------------------------------------
# balls


def test_ball_size_examples():
    assert len(ball(Z1, 3)) == 7
    assert len(ball(Z2, 2)) == 13  # 2n^2 + 2n + 1
    b1 = ball(LAMP2, 1)
    assert len(b1) == 4
    expected = {identity(LAMP2).data, (((0, 1),), 0), ((), 1), ((), -1)}
    assert {x.data for x in b1} == expected


def test_ball_oracle_independent_bfs():
    """Library balls match a from-scratch BFS written directly in the test."""
    for spec, n in [(Z2, 4), (PQ23, 4), (LAMP2, 4), (BS23, 4), (SD, 4)]:
        gens = [g for _, g in generators(spec)]
        seen = {identity(spec): 0}
        frontier = [identity(spec)]
        for level in range(1, n + 1):
            nxt = []
            for x in frontier:
                for g in gens:
                    y = multiply(x, g)
                    if y not in seen:
                        seen[y] = level
                        nxt.append(y)
            frontier = nxt
        bn = ball(spec, n)
        assert len(bn) == len(seen)
        assert dict(bn.items()) == seen


# ---------------------------------------------------------------------------
# closed-form right steps against the general product

STEP_GROUPS = [
    GroupSpec.free_abelian(1),
    GroupSpec.free_abelian(3),
    GroupSpec.semidirect_zd([[2, 1], [1, 1]]),
    GroupSpec.semidirect_zd([[1, 1, 0], [0, 0, 1], [0, 1, 0]]),  # det -1
    GroupSpec.pq(2, 3),
    GroupSpec.pq(2, 5),
    GroupSpec.pq(1, 1),
    GroupSpec.lamplighter(2),
    GroupSpec.lamplighter(3),
    GroupSpec.baumslag_solitar(1, 2),
    GroupSpec.baumslag_solitar(2, 3),
    GroupSpec.baumslag_solitar(3, 2),
]


def _power(spec, symbol, n):
    """Data of the generator ``symbol`` raised to the integer power n."""
    letter = symbol if n >= 0 else symbol + "^-1"
    return canonicalize([letter] * abs(n), spec).data


def _far_elements(spec, rng):
    """Seeded canonical forms far from the identity, with the cases each
    family's right steps treat separately."""
    ops = family_ops(spec)
    if spec.family == "free_abelian":
        return [tuple(rng.randint(-40, 40) for _ in range(spec.d))
                for _ in range(20)]
    ks = [s * rng.randint(20, 30) for s in (1, -1) for _ in range(5)]
    if spec.family == "semidirect_zd":
        return [(tuple(rng.randint(-50, 50) for _ in range(spec.d)), k)
                for k in ks]
    if spec.family == "pq":
        out = []
        for k in ks:
            # x = +-(p/q)^k * a, with a = 1 (x * t^-+1 is 0), a = -1 and
            # a random unit-free a, all with the exponent e_k of (p/q)^k
            for a in (1, -1, rng.randint(-50, 50) or 1):
                m, e, _ = ops.mul(_power(spec, "s", k), (a, 0, 0))
                out.append((m, e, k))
            # m/(pq)^e, normalized by the product with the identity
            for e in (rng.randint(0, 4), rng.randint(0, 30)):
                shift = ops.mul(ops.identity, (rng.randint(-999, 999), e, 0))
                out.append(ops.mul(_power(spec, "s", k), shift))
                out.append(ops.mul(shift, _power(spec, "s", k)))
        return out
    if spec.family == "lamplighter":
        p, out = spec.p, []
        for k in ks:
            around = rng.sample(range(k - 6, k + 7), 6)
            lamps = {pos: rng.randint(1, p - 1) for pos in around}
            for cursor in (1, p - 1):  # the cursor lamp switches off under a^-+1
                lamps[k] = cursor
                out.append((tuple(sorted(lamps.items())), k))
            del lamps[k]  # cursor dark, lamps on both sides
            out.append((tuple(sorted(lamps.items())), k))
        return out
    p, q = spec.p, spec.q
    out = []
    for _ in range(12):
        word = [rng.choice(spec.symbols()) for _ in range(rng.randint(0, 30))]
        y = canonicalize(word, spec).data
        out.append(y)
        # y t^-+1 a^{div m}: right-multiplying by t^+-1 pinches; from a
        # t-free y, the pinch empties the tail
        for eps, div in ((1, q), (-1, p)):
            for base in (y, (y[0], ())):
                x = ops.mul(base, _power(spec, "t", -eps))
                out.append(ops.mul(x, (div * rng.randint(-4, 4), ())))
    return out


def _row_step(rows, j, x):
    """x * g_j by the codec's batch step on the one row of x, in Python
    ints."""
    one = np.array(rows.encode(x), dtype=object).reshape(-1, 1)
    return rows.decode(rows.step(one, None)[:, j:j + 1])[0]


def _right_steps(spec):
    """One function per symbol of ``spec.symbols()``, taking canonical
    data x to that of x * g_j: the batch step of the family's codec on one
    row."""
    rows = family_ops(spec).rows
    return [partial(_row_step, rows, j) for j in range(len(spec.symbols()))]


@pytest.mark.parametrize("spec", STEP_GROUPS, ids=lambda s: s.label())
def test_right_steps_match_mul(spec):
    """The right step by g_j takes x to ``mul(x, g_j)`` on all of B_3 and
    on seeded far elements."""
    ops = family_ops(spec)
    steps = _right_steps(spec)
    gens = [elem.data for _, elem in generators(spec)]
    assert len(steps) == len(gens) == len(spec.symbols())
    far = _far_elements(spec, random.Random(f"steps-{spec.label()}"))
    assert far
    for x in list(ball(spec, 3).data()) + far:
        for step, g in zip(steps, gens):
            assert step(x) == ops.mul(x, g), (x, g)
    # the steps and their caches pickle with the spec
    again = _right_steps(pickle.loads(pickle.dumps(spec)))
    assert [step(x) for step in again for x in far] == [
        step(x) for step in steps for x in far]


def test_right_steps_reach_the_cases():
    """The far elements include a t-step of pq adding terms with equal
    exponents, lamps switched off, and BS pinches that empty the tail."""
    pq = GroupSpec.pq(2, 3)
    steps = _right_steps(pq)
    far = _far_elements(pq, random.Random(f"steps-{pq.label()}"))
    assert any(steps[3](x)[:2] == (0, 0) for x in far)  # t^-1 cancels
    lamp = GroupSpec.lamplighter(3)
    steps = _right_steps(lamp)
    far = _far_elements(lamp, random.Random(f"steps-{lamp.label()}"))
    assert any(len(steps[j](x)[0]) < len(x[0]) for x in far for j in (0, 1))
    bs = GroupSpec.baumslag_solitar(2, 3)
    steps = _right_steps(bs)
    far = _far_elements(bs, random.Random(f"steps-{bs.label()}"))
    for j in (2, 3):
        assert any(x[1] and not steps[j](x)[1] for x in far)
        assert any(len(steps[j](x)[1]) == len(x[1]) - 1 >= 1 for x in far)


def _plain_bfs(spec, radius, budget=None):
    """Growth state of a BFS written with public ``multiply``: (elements,
    right, level_end) at ``radius``, or at the last radius whose ball has
    at most ``budget`` elements.  ``right[k*i + j]`` is the index of
    x_i * g_j, over the elements of length below that radius."""
    gens = [elem for _, elem in generators(spec)]
    elems, index_of = [identity(spec)], {identity(spec): 0}
    right, level_end = [], [1]
    for _ in range(radius):
        start = level_end[-2] if len(level_end) >= 2 else 0
        grown = (list(elems), list(right))
        for i in range(start, level_end[-1]):
            for g in gens:
                y = multiply(elems[i], g)
                if y not in index_of:
                    index_of[y] = len(elems)
                    elems.append(y)
                right.append(index_of[y])
        if budget is not None and len(elems) > budget:
            elems, right = grown
            break
        level_end.append(len(elems))
    return [x.data for x in elems], right, level_end


def _growth_state(spec):
    """(elements, level_end) of the shared state."""
    g = balls_mod._get_grower(spec)
    return list(g.decoded(g.radius)), list(g.level_end)


def assert_matches_plain_bfs(spec, radius, budget=None):
    """The shared state, grown or rolled back by a budget stop, holds the
    elements and levels of a plain BFS with ``multiply``, and its lookup
    finds every product x_i * g_j at the plain BFS's index."""
    elements, right, level_end = plain = _plain_bfs(spec, radius, budget)
    assert _growth_state(spec) == (elements, level_end)
    grower = balls_mod._get_grower(spec)
    assert [grower.find(x) for x in elements] == list(range(len(elements)))
    gens = [elem for _, elem in generators(spec)]
    k = len(gens)
    for n, i in enumerate(right):
        x = multiply(Element(spec, elements[n // k]), gens[n % k])
        assert grower.find(x.data) == i
    return plain


@pytest.mark.parametrize("spec", STEP_GROUPS, ids=lambda s: s.label())
def test_growth_state_matches_plain_bfs(spec):
    """The grown state, and the state rolled back after a budget stop in
    the middle of a level, are those of a plain BFS with ``multiply``."""
    _reset_growers()
    ball(spec, 4)
    level_end = assert_matches_plain_bfs(spec, 4)[2]

    budget = (level_end[2] + level_end[3]) // 2
    _reset_growers()
    with pytest.raises(BudgetExceededError) as exc:
        ball(spec, 4, budget=budget)
    rolled = assert_matches_plain_bfs(spec, 4, budget=budget)
    assert exc.value.radius_reached == len(rolled[2]) - 1


@pytest.mark.parametrize("spec", STEP_GROUPS, ids=lambda s: s.label())
def test_batch_steps_agree_in_int64_and_python_ints(spec):
    """The int64 batch step on B_4 and the same step on the rows widened
    to Python ints give the same products."""
    rows = family_ops(spec).rows
    grower = balls_mod._get_grower(spec)
    ball(spec, 4)
    level = grower.rows_of(0, len(ball(spec, 4)))
    assert level.dtype == np.int64
    narrow = rows.step(level, 4)
    wide = rows.step(level.astype(object), None)
    assert narrow.dtype == np.int64 and wide.dtype == object
    assert narrow.tolist() == wide.tolist()


WIDE_GROUPS = [
    GroupSpec.lamplighter(2 ** 20),  # lamps pass 2^63 from radius 2 on
    GroupSpec.semidirect_zd([[2 ** 40 + 1, 2 ** 40], [1, 1]]),
    GroupSpec.baumslag_solitar(2, 2 ** 32),  # a t t t packs to (p + q)^2
]


@pytest.mark.parametrize("spec", WIDE_GROUPS, ids=lambda s: s.family)
def test_widened_rows_match_plain_bfs(spec):
    """Rows whose entries leave int64 widen to Python ints, and the grown
    state still equals a plain BFS with ``multiply``."""
    _reset_growers()
    ball(spec, 4)
    assert_matches_plain_bfs(spec, 4)
    levels = balls_mod._get_grower(spec).levels
    assert levels[-1].dtype == object
    assert max(abs(v) for v in levels[-1].ravel().tolist()) >= 2 ** 63


def indices(elements):
    """The ball indices of ``elements``, the support ``translate_indices``
    takes."""
    return [balls_mod._get_grower(y.group).index(y.data) for y in elements]


def assert_translates_match_multiply(bn, support):
    """Row s, column i of ``translate_indices`` is the index of
    ``multiply(support[s], x_i)`` in the ball that holds every product."""
    spec = bn.group
    deg = max((word_length(y) for y in support), default=0)
    index = {x: i for i, x in enumerate(ball(spec, bn.radius + deg))}
    assert bn.translate_indices(indices(support)).tolist() == [
        [index[multiply(y, x)] for x in bn] for y in support]


@pytest.mark.parametrize("spec", STEP_GROUPS + WIDE_GROUPS,
                         ids=lambda s: s.label())
def test_translate_indices_match_multiply(spec):
    """Translating B_0 .. B_3 by every element of B_2 (so the support can
    reach past the ball) gives the indices of the ``multiply`` products,
    and grows the shared state to radius + 2 and no further."""
    _reset_growers()
    support = list(ball(spec, 2))
    grower = balls_mod._get_grower(spec)
    for radius in range(4):
        bn = ball(spec, radius)
        rows = bn.translate_indices(indices(support))
        assert grower.radius == radius + 2
        assert rows.shape == (len(support), len(bn))
        assert_translates_match_multiply(bn, support)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(family=st.integers(0, len(ALL_FAMILIES) - 1),
       radius=st.integers(0, 3),
       words=st.lists(st.lists(st.integers(0, 63), max_size=5),
                      min_size=1, max_size=3))
def test_translate_indices_random_supports(family, radius, words):
    """Supports of random words of length <= 5, repeats and the identity
    included, translate B_radius onto the ``multiply`` products."""
    spec = ALL_FAMILIES[family]
    support = [canonicalize(word_of(spec, w), spec) for w in words]
    assert_translates_match_multiply(ball(spec, radius), support)


@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
def test_translate_indices_step_count(spec):
    """At radius R = 2, 4, 6 with support B_1, a first ``translate_indices``
    steps k|B_(R-1)| ball rows (to recompute growth's masks) and
    k|B_1||B_(R-1)| translate rows, a second one only the translate rows
    (the masks are kept), and neither grows a state grown to R + 1."""
    support = indices(ball(spec, 1))
    k, calls = len(spec.symbols()), [0]

    def counted(step):
        def call(rows, *args):
            out = step(rows, *args)
            calls[0] += out.shape[1]  # rows are stored field-major
            return out
        return call

    for radius in (2, 4, 6):
        _reset_growers()
        ball(spec, radius + 1)
        bn = ball(spec, radius)
        g = balls_mod._get_grower(spec)
        below = bn.level_sizes()[-2]
        plain = g.rows
        g.rows = plain._replace(step=counted(plain.step))
        try:
            for ball_rows in (k * below, 0):
                calls[0] = 0
                first = bn.translate_indices(support)
                assert calls[0] == ball_rows + k * len(support) * below
        finally:
            g.rows = plain
        assert np.array_equal(bn.translate_indices(support), first)
        assert g.radius == radius + 1


@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
def test_translate_indices_empty_support(spec):
    """An empty support translates to an empty (0, |B_R|) array."""
    for radius in (0, 2):
        bn = ball(spec, radius)
        rows = bn.translate_indices([])
        assert rows.shape == (0, len(bn)) and rows.dtype == np.int64


def test_translate_indices_reject_indices_of_no_grown_element():
    """A support index below 0 or past the grown elements is refused
    before anything grows."""
    bn = ball(Z2, 2)
    grower = balls_mod._get_grower(Z2)
    radius, count = grower.radius, grower.level_end[-1]
    for support in ([0, -1], [count], [1, count + 5]):
        with pytest.raises(InputError):
            bn.translate_indices(support)
    assert grower.radius == radius


@pytest.mark.parametrize("spec", STEP_GROUPS + WIDE_GROUPS,
                         ids=lambda s: s.label())
def test_rows_stay_field_major(spec):
    """Every grown level, every batch step output (on int64 rows and on
    rows widened to Python ints) and every ``rows_of`` slice is one
    C-contiguous (width, n) array, each field contiguous."""
    _reset_growers()
    ball(spec, 4)
    grower = balls_mod._get_grower(spec)
    rows, end = grower.rows, grower.level_end
    width = len(rows.encode(family_ops(spec).identity))
    k = len(spec.symbols())

    def field_major(a, n):
        return a.flags.c_contiguous and a.shape == (width, n)

    for r, level in enumerate(grower.levels):
        n = end[r] - (end[r - 1] if r else 0)
        assert field_major(level, n)
        assert field_major(rows.step(level, r), k * n)
        assert field_major(rows.step(level.astype(object), None), k * n)
    for start, stop in [(0, end[-1]), (0, 1), (end[2] - 1, end[2]),
                        (1, end[2] + 1), (end[1], end[3]), (end[3], end[4])]:
        assert field_major(grower.rows_of(start, stop), stop - start)


def test_pq_rows_widen_past_int64():
    """pq(97, 101) numerators pass 2^63 from radius 6 on.  The grown state
    of B_8 still equals a plain BFS with ``multiply``, its widened levels
    hold Python ints, and every element's data is the 2x2 matrix
    [[(p/q)^k, m/(pq)^e], [0, 1]] of its BFS word, multiplied out here in
    Fractions."""
    p, q = 97, 101
    spec = GroupSpec.pq(p, q)
    _reset_growers()
    ball(spec, 8)
    elements, right, _ = assert_matches_plain_bfs(spec, 8)
    assert max(abs(m) for m, _, _ in elements) >= 2 ** 63
    levels = balls_mod._get_grower(spec).levels
    assert levels[5].dtype == np.int64 and levels[6].dtype == object
    one, zero = Fraction(1), Fraction(0)
    gens = [[[Fraction(p, q), zero], [zero, one]],
            [[Fraction(q, p), zero], [zero, one]],
            [[one, one], [zero, one]], [[one, -one], [zero, one]]]
    mats = [[[one, zero], [zero, one]]]
    for n, i in enumerate(right):  # x_i is first met as x_(n // 4) g_(n % 4)
        if i == len(mats):
            mats.append(mat_product(mats[n // 4], gens[n % 4]))
    for (m, e, k), mat in zip(elements, mats):
        assert e >= 0 and (e == 0 or m % (p * q) != 0)  # minimal exponent
        assert mat == [[Fraction(p, q) ** k, Fraction(m, (p * q) ** e)],
                       [zero, one]]


@pytest.mark.parametrize("spec, data", [
    (PQ23, (2 ** 64 + 1, 0, 0)),  # would wrap to t = (1, 0, 0)
    (PQ23, (1 - 2 ** 64, 0, 0)),
    (PQ23, (6, 1, 0)),  # exponent not minimal
    (PQ23, (0, 1, 0)),
    (PQ23, (1, -1, 0)),
    (PQ23, (1.0, 0, 0)),
    (PQ23, (1, 0)),
    (LAMP2, (((0, 2),), 0)),  # lamp value out of range
    (LAMP2, (((0, 1), (0, 1)), 0)),  # position repeated
    (LAMP2, (((1, 1), (0, 1)), 0)),  # positions not sorted
    (LAMP2, (((0, 1),), 2 ** 64)),
    (LAMP2, (((40, 1),), 0)),  # a lamp outside every grown row's window
    (Z2, (0, 0, 0)),
    (SD, ((0,), 0)),
    (BS23, (5, ((1, 0),))),  # exponent before t not reduced mod q
    (BS23, (0, ((1, 2), (-1, 0)))),  # t a^2 t^-1 = a^3 would pack as a t t
    (BS23, (0, ((1, 0), (-1, 0)))),  # t t^-1 pinches
    (BS23, (2, ((-1, 0),))),  # exponent before t^-1 not reduced mod p
    (BS23, (0, ((2, 0),))),  # not a stable letter
    (BS23, "not data"),
], ids=repr)
def test_data_that_cannot_be_encoded_is_not_a_member(spec, data):
    """Malformed, non-canonical or out-of-range data is not a member, and
    never matches an element through a wrapped value."""
    bn = ball(spec, 4)
    assert balls_mod._get_grower(spec).find(data) is None
    x = Element(spec, data)
    assert x not in bn
    with pytest.raises(ElementNotFoundError):
        bn.length(x)
    assert Element(PQ23, (1, 0, 0)) in ball(PQ23, 4)


def test_bs_encode_rejects_words_that_are_not_reduced():
    """The BS codec encodes only Britton-reduced data, also where the
    digits could not alias a member (t t^-1 packs to no reduced row)."""
    encode = family_ops(BS23).rows.encode
    assert encode((1, ((1, 0), (1, 0)))) == (5, 2, 0)  # a t t
    for data in [(0, ((1, 2), (-1, 0))), (0, ((1, 0), (-1, 0))),
                 (2, ((-1, 0),)), (0, ((2, 0),)), (5, ((1, 0),))]:
        assert encode(data) is None, data


def test_lookup_keys_out_of_range_never_alias():
    """A row with a field outside the grown rows' ranges is not a member,
    although its mixed-radix key equals a member's: in pq(2,3)'s B_4, with
    k in [-4, 4] and e in [0, e_max], (-1, e_max, 5) packs to the key of
    s^-4 = (0, 0, -4)."""
    _reset_growers()
    bn = ball(PQ23, 4)
    e_max = max(e for _, e, _ in bn.data())
    assert min(k for _, _, k in bn.data()) == -4 and e_max > 0
    assert Element(PQ23, (0, 0, -4)) in bn
    assert Element(PQ23, (-1, e_max, 5)) not in bn
    _reset_growers()


def _first_positions(keys):
    """The oracle: the position of the first occurrence of each key, from
    a dict over Python ints."""
    first = {}
    for i, key in enumerate(keys):
        first.setdefault(int(key), i)
    return sorted(first.values())


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(length=st.one_of(st.sampled_from([0, 1]), st.integers(2, 400)),
       pool=st.lists(st.integers(0, 2 ** 70), min_size=1, max_size=4),
       rng=st.randoms(use_true_random=False),
       path=st.sampled_from(["packed", "argsort", "object"]))
def test_first_occurrences_match_a_dict_of_first_positions(length, pool, rng,
                                                           path):
    """Few distinct keys over many positions, the largest key at
    2^(63-b) - 1 (b the bit length of the last position), where the words
    key << b | position fit in int64 and one sort groups the keys, or at
    2^(63-b) or with object keys, where an argsort does: the marked
    positions are the first ones, and the packed sort orders the positions
    by (key, position)."""
    b = max(length - 1, 0).bit_length()
    top = {"packed": 2 ** (63 - b) - 1, "argsort": 2 ** (63 - b),
           "object": 2 ** 64}[path]
    keys = [rng.choice([v % top for v in pool] + [top])
            for _ in range(length)]
    if keys:
        keys[rng.randrange(length)] = top
    # the packing of keys whose largest is top has size top + 1
    dtype = object if top >= 2 ** 63 else np.int64
    words, order, packed = balls_mod._sort_keys(np.array(keys, dtype=dtype),
                                                top + 1)
    assert packed == (path == "packed")
    assert words.tolist() == sorted(keys)
    assert [keys[i] for i in order] == sorted(keys)
    if packed:
        assert order.tolist() == sorted(range(length),
                                        key=lambda i: (keys[i], i))
    first = balls_mod._first_occurrences(np.array(keys, dtype=dtype), top + 1)
    assert first.dtype == bool and len(first) == length
    assert first.nonzero()[0].tolist() == _first_positions(keys)


@pytest.mark.parametrize("radius, path", [
    (4, "packed"), (5, "argsort"), (6, "object")])
def test_find_on_each_lookup_path(radius, path):
    """pq(97,101) sorts its lookup keys as packed words at radius 4, with
    an argsort at 5 (int64 keys of up to 61 bits over 421 positions) and
    on object keys from 6 on: each member is found at its index, and the
    products of the last sphere by the generators that leave the ball are
    not found."""
    spec = GroupSpec.pq(97, 101)
    _reset_growers()
    bn = ball(spec, radius)
    g = balls_mod._get_grower(spec)
    lookup = g._lookup_over(len(bn))
    b = (len(bn) - 1).bit_length()
    assert (lookup.keys.dtype == object) == (path == "object")
    assert (lookup.packing.size <= 2 ** (63 - b)) == (path == "packed")
    members = list(bn.data())
    assert [g.find(x) for x in members] == list(range(len(bn)))
    last = members[bn.level_sizes()[-2]:]
    outside = {multiply(Element(spec, x), s).data
               for x in last for _, s in generators(spec)} - set(members)
    assert outside and all(g.find(x) is None for x in outside)
    _reset_growers()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_free_abelian_sizes_match_closed_form(d):
    """|B_r| of Z^d is the sum over k of 2^k C(d, k) C(r, k): choose the k
    nonzero coordinates, their signs, and positive values summing to at
    most r (Stanley, Enumerative Combinatorics I, ex. 1.3)."""
    spec = GroupSpec.free_abelian(d)
    expected = [sum(2 ** k * comb(d, k) * comb(r, k) for k in range(d + 1))
                for r in range(31)]
    assert list(ball(spec, 30).level_sizes()) == expected
    _reset_growers()


@pytest.mark.parametrize("spec", STEP_GROUPS + [Z2], ids=lambda s: s.label())
def test_coset_sections_are_first_occurrences(spec):
    """The section of B_n is the first element of each coset met in BFS
    order (closed forms outside BS, the ball's rows for BS).  Here x opens
    a new coset xH unless y^-1 x lies in H for an earlier first y."""
    for n in range(5):
        first: list = []
        for x in ball(spec, n):
            if not any(subgroup_membership(multiply(invert(y), x))
                       for y in first):
                first.append(x)
        assert coset_section(spec, n).representatives == tuple(first)


def test_bs11_is_z2():
    assert ball(BS11, 6).level_sizes() == ball(Z2, 6).level_sizes()


def test_ball_invariants_nesting_inverse_submultiplicative():
    for spec in ALL_FAMILIES:
        b4 = ball(spec, 4)
        assert identity(spec) in b4 and b4.length(identity(spec)) == 0
        for n in range(4):
            small, large = ball(spec, n), ball(spec, n + 1)
            assert all(x in large for x in small)
        pairs = list(b4.items())
        for x, lx in pairs:
            assert invert(x) in b4
            assert b4.length(invert(x)) == lx
        for x, lx in pairs:
            for y, ly in pairs:
                if lx + ly <= 4:
                    assert b4.length(multiply(x, y)) <= lx + ly


def test_word_length_examples():
    assert word_length(identity(LAMP2)) == 0
    assert word_length(Element(LAMP2, (((1, 1),), 0))) == 3  # t a t^-1
    assert word_length(Element(Z2, (2, -1))) == 3
    rng = random.Random(9)
    for spec in ALL_FAMILIES:
        for _ in range(100):
            x = canonicalize(random_word(spec, rng, 6), spec)
            y = canonicalize(random_word(spec, rng, 6), spec)
            assert word_length(x) == word_length(invert(x))
            assert word_length(multiply(x, y)) <= word_length(x) + word_length(y)


def test_t_length():
    assert t_length(canonicalize(["a"] * 5, BS23)) == 0
    assert t_length(canonicalize(["t"] * 3, BS23)) == 3
    assert t_length(canonicalize("t a t^-1", BS23)) == 2
    with pytest.raises(InputError):
        t_length(identity(Z1))
    rng = random.Random(13)
    for _ in range(1000):
        x = canonicalize(random_word(BS23, rng), BS23)
        y = canonicalize(random_word(BS23, rng), BS23)
        assert t_length(multiply(x, y)) <= t_length(x) + t_length(y)
    for x, lx in ball(BS23, 5).items():
        assert t_length(x) <= lx


def test_embed_j2():
    a = canonicalize(["a"], BS23)
    t = canonicalize(["t"], BS23)
    assert embed_j2(a).data == (1, 0, 0)
    assert embed_j2(identity(BS23)) == identity(PQ23)
    # t a t^-1 maps to translation by q/p = 3/2 = 9/6
    assert embed_j2(canonicalize("t a t^-1", BS23)).data == (9, 1, 0)
    # defining relation is respected
    assert embed_j2(canonicalize("t a a t^-1", BS23)) == embed_j2(
        canonicalize(["a"] * 3, BS23))
    rng = random.Random(17)
    for _ in range(1000):
        x = canonicalize(random_word(BS23, rng), BS23)
        y = canonicalize(random_word(BS23, rng), BS23)
        assert embed_j2(multiply(x, y)) == multiply(embed_j2(x), embed_j2(y))
    # generators map to generators, so word length cannot increase
    for x, lx in ball(BS23, 4).items():
        assert word_length(embed_j2(x)) <= lx


def test_embed_j2_builds_its_target_once(monkeypatch, capsys):
    """The BS cut's matrix part and every element it checks share one pq
    spec, whose arithmetic record is built once for the whole command."""
    builds = []
    build = elements_mod._OPS_BUILDERS["pq"]
    monkeypatch.setitem(elements_mod._OPS_BUILDERS, "pq",
                        lambda group: builds.append(group) or build(group))
    elements_mod.j2_target.cache_clear()
    argv = ["verify", "--family", "bs", "--p", "2", "--q", "3", "--n", "4"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"][0]["report"]["checked"] > 100
    assert builds == [PQ23]


def test_bs_solvable_case_isomorphism_oracle():
    """For BS(1,q) and BS(p,1) the matrix-group embedding is injective, so
    Britton-form equality must coincide with matrix equality, and products
    and inverses computed in Britton form must map to the products and
    inverses computed in the pq group: an oracle for the BS arithmetic that
    shares no step with it.  The generator bijection also forces identical
    ball sizes for BS(1,3).  Products of BS(2,3), where the embedding is
    not injective, are checked for Britton form."""
    bs13 = GroupSpec.baumslag_solitar(1, 3)
    pq13 = GroupSpec.pq(1, 3)
    rng = random.Random(4)
    equal_pairs = 0
    for _ in range(1000):
        x1 = canonicalize(random_word(bs13, rng, 10), bs13)
        x2 = canonicalize(random_word(bs13, rng, 10), bs13)
        same = x1 == x2
        equal_pairs += same
        assert same == (embed_j2(x1) == embed_j2(x2))
    assert equal_pairs > 10  # the positive case is actually exercised
    assert ball(bs13, 5).level_sizes() == ball(pq13, 5).level_sizes()
    for spec in (bs13, GroupSpec.baumslag_solitar(3, 1),
                 GroupSpec.baumslag_solitar(2, 1), BS23):
        far = [Element(spec, x)
               for x in _far_elements(spec, random.Random(f"j2-{spec.label()}"))]
        pairs = [(canonicalize(random_word(spec, rng, 30), spec),
                  canonicalize(random_word(spec, rng, 30), spec))
                 for _ in range(1000)]
        pairs += [(x, y) for x in far for y in far]
        for x, y in pairs:
            xy, x_inv = multiply(x, y), invert(x)
            _assert_britton_form(spec, xy.data)
            _assert_britton_form(spec, x_inv.data)
            if spec.p == 1 or spec.q == 1:
                assert embed_j2(xy) == multiply(embed_j2(x), embed_j2(y))
                assert embed_j2(x_inv) == invert(embed_j2(x))


def test_lamplighter_length_closed_form_oracle():
    """BFS lengths match the travelling-on-a-line formula: lamp presses
    min(v, p-v) plus the shorter of the two sweeps that visit every lamp
    and end at the cursor."""

    def closed_form(lamps, shift, p):
        presses = sum(min(v, p - v) for _, v in lamps)
        pos = [j for j, _ in lamps]
        lo = min(pos + [0, shift])
        hi = max(pos + [0, shift])
        left_first = (0 - lo) + (hi - lo) + (hi - shift)
        right_first = (hi - 0) + (hi - lo) + (shift - lo)
        return presses + min(left_first, right_first)

    for p in (2, 3):
        spec = GroupSpec.lamplighter(p)
        for x, lx in ball(spec, 6).items():
            lamps, shift = x.data
            assert closed_form(lamps, shift, p) == lx


def test_subgroup_membership():
    assert subgroup_membership(identity(SD))
    assert not subgroup_membership(Element(SD, ((0, 0), 1)))
    assert subgroup_membership(Element(PQ23, (1, 1, 0)))
    assert not subgroup_membership(canonicalize(["t"], BS23))
    assert subgroup_membership(canonicalize(["a", "a"], BS23))
    assert subgroup_membership(Element(Z2, (5, -2)))


def test_coset_section_examples():
    sec = coset_section(SD, 3)
    assert len(sec) == 7
    assert {r.data for r in sec} == {((0, 0), k) for k in range(-3, 4)}
    assert coset_section(Z2, 0).representatives == (identity(Z2),)
    assert len(coset_section(LAMP2, 2)) == 5
    assert {r.data[1] for r in coset_section(LAMP2, 2)} == set(range(-2, 3))


def test_coset_section_minimality():
    """Every representative has minimal length in its whole coset: multiplying
    by subgroup elements of B_{2n} never shortens it."""
    n = 2
    for spec in ALL_FAMILIES:
        sec = coset_section(spec, n)
        h_elems = subgroup_ball(ball(spec, 2 * n))
        for y in sec:
            ly = word_length(y)
            for h in h_elems:
                assert word_length(multiply(y, h)) >= ly


# ---------------------------------------------------------------------------
# budgets and errors


def test_ball_budget_error():
    spec = GroupSpec.free_abelian(3)
    _reset_growers()
    with pytest.raises(BudgetExceededError) as exc:
        ball(spec, 20, budget=100)
    assert exc.value.radius_reached is not None
    assert exc.value.radius_reached < 20
    # the shared state still answers smaller queries afterwards, and the
    # level abandoned mid-way leaves nothing behind
    assert len(ball(spec, 1)) == 7
    ball(spec, 5)
    assert_matches_plain_bfs(spec, 5)


@pytest.mark.parametrize("spec", STEP_GROUPS, ids=lambda s: s.label())
def test_ball_memory_at_budget(spec):
    """Growth that stops at its budget holds at most 190 bytes an element
    at its peak (the data tuples and dict that growth kept before it kept
    integer rows took 229), and keeps nothing of the abandoned level."""
    import tracemalloc
    _reset_growers()
    budget = 30000
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as exc:
            ball(spec, 10 ** 6, budget=budget)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 190 * budget
    grower = balls_mod._get_grower(spec)
    assert grower.radius == exc.value.radius_reached
    assert (len(list(grower.decoded(grower.radius)))
            == grower.level_end[-1] <= budget)
    _reset_growers()


def test_word_length_not_found():
    spec = GroupSpec.free_abelian(3)
    far = Element(spec, (50, 50, 50))
    with pytest.raises(ElementNotFoundError) as exc:
        word_length(far, budget=200)
    assert exc.value.radius_searched is not None


def test_word_length_of_data_that_cannot_be_encoded_grows_nothing():
    """Data the row codec cannot encode (pq(2,3)'s (6, 1, 0), whose 6/6
    reduces) is never found, so ``word_length`` raises at once, even at
    the default budget: a cold grower stays at radius 0, the radius it
    reports as searched."""
    _reset_growers()
    with pytest.raises(ElementNotFoundError) as exc:
        word_length(Element(PQ23, (6, 1, 0)))
    assert balls_mod._get_grower(PQ23).radius == 0
    assert exc.value.radius_searched == 0


def _split_length(spec, x, half):
    """Word length of ``x`` if it is at most 2 * half, from a plain BFS of
    B_half: the least |a| + |a^-1 x| over a in B_half with a^-1 x in
    B_half, since every geodesic splits into two words of length <= half."""
    elements, _, level_end = _plain_bfs(spec, half)
    lengths = {y: bisect_right(level_end, i) for i, y in enumerate(elements)}
    return min(n + lengths[z] for a, n in lengths.items()
               if (z := multiply(invert(Element(spec, a)), x).data) in lengths)


def test_cold_word_length_sorts_one_lookup(monkeypatch):
    """A cold ``word_length`` looks in the grown ball once and then in each
    new sphere alone, so it builds the sorted lookup at most once, where it
    built one a radius before: for a pq(2,3) element of length 12, and for
    an element of length 4 of lamplighter(2^20) whose row leaves int64, on
    levels widened to Python ints.  Both lengths equal the plain BFS's;
    data that does not encode is still never found."""
    builds, lookup = [], balls_mod._Lookup

    def counting(*args):
        builds.append(args[0])
        return lookup(*args)

    x = Element(PQ23, (-1528, 3, 3))
    assert _split_length(PQ23, x, 6) == 12
    _reset_growers()
    monkeypatch.setattr(balls_mod, "_Lookup", counting)
    assert word_length(x) == 12 and len(builds) <= 1

    wide = GroupSpec.lamplighter(2 ** 20)
    elements, _, level_end = _plain_bfs(wide, 4)
    encode = family_ops(wide).rows.encode
    far = max(elements[level_end[3]:], key=lambda y: max(encode(y)))
    assert max(encode(far)) >= 2 ** 63
    _reset_growers()
    builds.clear()
    assert word_length(Element(wide, far)) == 4 and len(builds) <= 1
    assert balls_mod._get_grower(wide).levels[4].dtype == object

    with pytest.raises(ElementNotFoundError) as exc:
        word_length(Element(PQ23, (6, 1, 0)), budget=200)  # 6/6 reduces
    assert exc.value.radius_searched == balls_mod._get_grower(PQ23).radius
    _reset_growers()


# ---------------------------------------------------------------------------
# cache


def _reset_growers():
    balls_mod._growers.clear()


@pytest.mark.parametrize("spec, radius", [
    *((spec, 4) for spec in ALL_FAMILIES),
    (GroupSpec.pq(97, 101), 8),  # entries pass 2^63
], ids=lambda v: v.label() if isinstance(v, GroupSpec) else str(v))
def test_cache_roundtrip(tmp_path, spec, radius):
    """``store`` writes a ball's BFS order, lengths and data, and ``load``
    gives back the same data tuples and lengths in that order."""
    cache = BallCache(tmp_path)
    bn = ball(spec, radius)
    path = cache.store(spec, radius, bn)
    assert path == cache.path_for(spec, radius) and path.exists()
    blob = json.loads(path.read_text())
    assert blob["format_version"] == 1
    assert blob["group"] == spec.to_dict()
    assert blob["radius"] == radius and blob["member_count"] == len(bn)
    assert blob["members"] == [[ln, json.loads(json.dumps(x.data))]
                               for x, ln in bn.items()]
    lens = [ln for ln, _ in blob["members"]]
    assert lens == sorted(lens)  # length-sorted (BFS order)

    lengths, elements = cache.load(spec, radius)
    assert elements == list(bn.data())
    assert lengths == [ln for _, ln in bn.data_items()]
    assert cache.load(spec, radius - 1) is None  # only the exact radius


def test_cache_ignores_corrupt_and_mismatched(tmp_path):
    cache = BallCache(tmp_path)
    cache.store(Z1, 2, ball(Z1, 2))
    assert cache.load(Z1, 2) == ([0, 1, 1, 2, 2], [(0,), (1,), (-1,), (2,), (-2,)])
    assert cache.load(Z2, 2) is None  # another group's hash, no file
    blob = json.loads(cache.path_for(Z1, 2).read_text())
    cache.path_for(Z1, 3).write_text(json.dumps(blob))
    assert cache.load(Z1, 3) is None  # file's radius differs from its name
    blob["format_version"] = 2
    cache.path_for(Z1, 2).write_text(json.dumps(blob))
    assert cache.load(Z1, 2) is None
    cache.path_for(Z1, 2).write_text("{ not json")
    assert cache.load(Z1, 2) is None


def test_cache_ignores_noncanonical_members(tmp_path):
    """A file whose members are well-formed JSON but not a ball's is not an
    entry: ``load`` returns None for lamps ((0, 7), (0, 7)) in
    lamplighter(2) (value out of range, position repeated), for a bare
    integer as data, for lengths that leave [0, radius] or decrease, for a
    ``member_count`` other than the number of members, and for members
    that do not start with the identity at length 0 (none at all, too)."""
    cache = BallCache(tmp_path)
    path = cache.store(LAMP2, 1, ball(LAMP2, 1))
    good = json.loads(path.read_text())

    def load_with(members, count=None):
        count = len(members) if count is None else count
        path.write_text(json.dumps({**good, "members": members,
                                    "member_count": count}))
        return cache.load(LAMP2, 1)

    assert load_with([[0, [[[0, 7], [0, 7]], 0]], [0, 5], [9, [[], 0]]]) is None
    for bad in ([0, [[[0, 7], [0, 7]], 0]], [0, 5], [9, [[], 1]],
                [-1, [[], 1]], [0, [[], 1, 2]], [0, [[[0, 1, 1]], 0]]):
        assert load_with(good["members"][:1] + [bad]) is None
    assert load_with(good["members"][::-1]) is None  # lengths decrease
    assert load_with(good["members"]) is not None
    members, count = good["members"], good["member_count"]
    assert load_with(members, count + 1) is None
    assert load_with(members[:-1], count) is None
    assert load_with([], count) is None
    assert load_with([]) is None  # no identity
    assert load_with(members[1:]) is None
    assert load_with([[1, members[0][1]]] + members[1:]) is None


def test_cache_ignores_malformed_files(tmp_path, capsys):
    """A file whose data holds a string or a float, that lacks
    ``members``, that is a JSON list, or that nests past the recursion
    limit is not an entry: ``load`` returns None, and ``entries`` and the
    ``cache`` command skip it."""
    cache = BallCache(tmp_path)
    bn = ball(LAMP2, 2)
    path = cache.store(LAMP2, 2, bn)
    good = json.loads(path.read_text())

    def load_with(blob):
        path.write_text(json.dumps(blob))
        return cache.load(LAMP2, 2)

    for leaf in ("one", "1", 1.5):
        blob = json.loads(json.dumps(good))
        blob["members"][1][1][0][0][1] = leaf  # the value of lamp 0 in a
        assert load_with(blob) is None
    assert load_with({k: v for k, v in good.items() if k != "members"}) is None
    assert load_with([good]) is None
    assert cache.entries() == []
    path.write_text("[" * 10 ** 5 + "]" * 10 ** 5)
    assert cache.load(LAMP2, 2) is None
    cache.store(Z1, 1, ball(Z1, 1))
    assert [e["file"] for e in cache.entries()] == [
        cache.path_for(Z1, 1).name]
    assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["results"][0]["entries"]) == 1
    assert load_with(good) == ([ln for _, ln in bn.data_items()],
                               list(bn.data()))


def test_cache_entries_and_clear(tmp_path):
    cache = BallCache(tmp_path)
    cache.store(Z1, 1, ball(Z1, 1))
    cache.store(Z1, 2, ball(Z1, 2))
    entries = cache.entries()
    assert [(e["radius"], e["member_count"]) for e in entries] == [(1, 3), (2, 5)]
    assert all(e["group"] == Z1.to_dict() for e in entries)
    assert cache.clear() == 2
    assert cache.entries() == []


def test_concurrent_ball_queries():
    """Growth state, its key lookup and the candidate masks kept for
    translates are shared; concurrent queries and translations at mixed
    radii, on an empty state and on a grown one (where translations grow
    nothing), agree with a single-threaded run."""
    import sys
    import threading

    spec = GroupSpec.lamplighter(3)
    radii = [3, 6, 2, 5, 6, 4, 3, 5]
    support = indices(ball(spec, 1))

    def query(n):
        bn = ball(spec, n)
        return (len(bn), tuple(x.data for x in bn),
                bn.translate_indices(support).tolist())

    def race():
        results = {}
        start = threading.Barrier(len(radii))

        def worker(i, n):
            start.wait(timeout=60)
            results[i] = query(n)

        threads = [threading.Thread(target=worker, args=(i, n))
                   for i, n in enumerate(radii)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        return [results.get(i) for i in range(len(radii))]

    _reset_growers()
    expected = [query(n) for n in radii]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(50):
            _reset_growers()
            assert race() == expected
            _reset_growers()
            ball(spec, max(radii) + 1)
            assert race() == expected
    finally:
        sys.setswitchinterval(interval)
