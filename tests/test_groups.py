"""Group arithmetic, canonical forms, balls, sections, and the cache."""

import json
import pickle
import random
from fractions import Fraction

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
    coset_key,
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
from tamecuts.groups import elements as elements_mod
from tamecuts.groups.elements import family_ops, from_payload, to_payload

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
    and x * x^-1 = x^-1 * x is the identity; the cache payload of x
    survives a JSON round trip."""
    spec = ALL_FAMILIES[family]
    ops = family_ops(spec)
    x = canonicalize(word_of(spec, letters), spec).data
    xi = ops.inv(x)
    assert ops.inv(xi) == x
    assert ops.mul(x, xi) == ops.identity == ops.mul(xi, x)
    assert invert(Element(spec, x)) == Element(spec, xi)
    payload = json.loads(json.dumps(to_payload(Element(spec, x))))
    assert from_payload(spec, payload) == Element(spec, x)


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


def test_bs_canonical_invariants():
    """Britton form: interior exponents in coset ranges, no pinches."""
    rng = random.Random(7)
    for _ in range(1000):
        x = canonicalize(random_word(BS23, rng), BS23)
        c0, tail = x.data
        exps = [c0] + [c for _, c in tail]
        for i, (eps, _) in enumerate(tail):
            before = exps[i]
            if eps == 1:
                assert 0 <= before < 3  # in {0..q-1} before a t
            else:
                assert 0 <= before < 2  # in {0..p-1} before a t^-1
            # no pinch: at a t^{+-1} t^{-+1} site the exponent between them,
            # already reduced to its coset range, must be nonzero
            if i > 0 and tail[i - 1][0] == -eps:
                assert before != 0


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


def _table(spec, n):
    """Ball of radius n with the Cayley table of the shared state built
    over B_{n-1} on demand, and the BFS parent pointers read off it."""
    bn = ball(spec, n)
    g = balls_mod._get_grower(spec)
    right = g.table(n - 1)
    parent, gen = balls_mod._bfs_predecessors(right, len(g.steps))
    return bn, right, parent, gen


def assert_table_matches_multiply(spec, n):
    """Every right product and every parent pointer of the shared state,
    grown to radius n, agrees with ``multiply`` on the elements."""
    bn, right, parent, gen = _table(spec, n)
    gens = [elem for _, elem in generators(spec)]
    elems, k = list(bn), len(gens)
    expanded = bn.level_sizes()[-2]
    assert len(right) >= k * expanded
    for i in range(expanded):
        for j in range(k):
            assert elems[right[k * i + j]] == multiply(elems[i], gens[j])
    for i in range(1, len(bn)):
        assert elems[i] == multiply(elems[parent[i]], gens[gen[i]])
        assert bn.length(elems[i]) == bn.length(elems[parent[i]]) + 1


@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
def test_cayley_table_matches_multiply(spec):
    assert_table_matches_multiply(spec, 4)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(family=st.integers(0, len(ALL_FAMILIES) - 1),
       word=st.lists(st.integers(0, 63), max_size=4))
def test_cayley_table_walk_matches_multiply(family, word):
    """Walking a random word of length <= 4 through the table of B_4 lands on
    the index of the word's product."""
    spec = ALL_FAMILIES[family]
    bn, right, _, _ = _table(spec, 4)
    gens = [elem for _, elem in generators(spec)]
    k = len(gens)
    i, x = 0, identity(spec)
    for letter in word:
        i = right[k * i + letter % k]
        x = multiply(x, gens[letter % k])
    assert list(bn)[i] == x


@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
def test_cayley_table_is_built_on_demand(spec):
    """Growth builds no table; ``translate_indices`` at radii 2, 4, 6
    extends it over the new levels only (one step per new entry, earlier
    entries kept), and every row is the index of a ``multiply`` product."""
    _reset_growers()
    ball(spec, 6)
    g = balls_mod._get_grower(spec)
    assert len(g.right) == 0
    support = list(ball(spec, 1))
    k, calls = len(g.steps), [0]

    def counted(step):
        def call(x):
            calls[0] += 1
            return step(x)
        return call

    for radius in (2, 4, 6):
        ball(spec, radius + 1)  # the growth the table needs is not counted
        g.steps, plain = tuple(map(counted, g.steps)), g.steps
        before, calls[0] = list(g.right), 0
        bn = ball(spec, radius)
        rows = bn.translate_indices(support)
        g.steps = plain
        assert calls[0] == len(g.right) - len(before)
        assert len(g.right) == k * bn.level_sizes()[-1]
        assert list(g.right[:len(before)]) == before
        elems = list(bn)
        index = {x: i for i, x in enumerate(ball(spec, radius + 1))}
        assert rows.tolist() == [[index[multiply(y, x)] for x in elems]
                                 for y in support]


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


@pytest.mark.parametrize("spec", STEP_GROUPS, ids=lambda s: s.label())
def test_right_steps_match_mul(spec):
    """``right_steps[j](x)`` is ``mul(x, g_j)`` on all of B_3 and on seeded
    far elements."""
    ops = family_ops(spec)
    gens = [elem.data for _, elem in generators(spec)]
    assert len(ops.right_steps) == len(gens) == len(spec.symbols())
    far = _far_elements(spec, random.Random(f"steps-{spec.label()}"))
    assert far
    for x in list(ball(spec, 3).data()) + far:
        for step, g in zip(ops.right_steps, gens):
            assert step(x) == ops.mul(x, g), (x, g)
    # the steps and their caches pickle with the spec
    again = family_ops(pickle.loads(pickle.dumps(spec))).right_steps
    assert [step(x) for step in again for x in far] == [
        step(x) for step in ops.right_steps for x in far]


def test_right_steps_reach_the_cases():
    """The far elements include a t-step of pq adding terms with equal
    exponents, lamps switched off, and BS pinches that empty the tail."""
    pq = GroupSpec.pq(2, 3)
    steps = family_ops(pq).right_steps
    far = _far_elements(pq, random.Random(f"steps-{pq.label()}"))
    assert any(steps[3](x)[:2] == (0, 0) for x in far)  # t^-1 cancels
    lamp = GroupSpec.lamplighter(3)
    steps = family_ops(lamp).right_steps
    far = _far_elements(lamp, random.Random(f"steps-{lamp.label()}"))
    assert any(len(steps[j](x)[0]) < len(x[0]) for x in far for j in (0, 1))
    bs = GroupSpec.baumslag_solitar(2, 3)
    steps = family_ops(bs).right_steps
    far = _far_elements(bs, random.Random(f"steps-{bs.label()}"))
    for j in (2, 3):
        assert any(x[1] and not steps[j](x)[1] for x in far)
        assert any(len(steps[j](x)[1]) == len(x[1]) - 1 >= 1 for x in far)


def _plain_bfs(spec, radius, budget=None):
    """Growth state of a BFS written with public ``multiply``: (elements,
    right, parent, gen, level_end) at ``radius``, or at the last radius
    whose ball has at most ``budget`` elements."""
    gens = [elem for _, elem in generators(spec)]
    elems, index_of = [identity(spec)], {identity(spec): 0}
    right, parent, gen, level_end = [], [-1], [-1], [1]
    for _ in range(radius):
        start = level_end[-2] if len(level_end) >= 2 else 0
        grown = (list(elems), list(right), list(parent), list(gen))
        for i in range(start, level_end[-1]):
            for j, g in enumerate(gens):
                y = multiply(elems[i], g)
                if y not in index_of:
                    index_of[y] = len(elems)
                    elems.append(y)
                    parent.append(i)
                    gen.append(j)
                right.append(index_of[y])
        if budget is not None and len(elems) > budget:
            elems, right, parent, gen = grown
            break
        level_end.append(len(elems))
    return [x.data for x in elems], right, parent, gen, level_end


def _growth_state(spec):
    """(elements, right, parent, gen, level_end) of the shared state, the
    table and parent pointers built on demand over the grown levels."""
    g = balls_mod._get_grower(spec)
    radius, grown = g.radius, list(g.elements)
    right = g.table(radius - 1)
    assert g.radius == radius  # the table needs no growth
    parent, gen = balls_mod._bfs_predecessors(right, len(g.steps))
    return (grown, list(right), list(parent), list(gen), list(g.level_end))


@pytest.mark.parametrize("spec", STEP_GROUPS, ids=lambda s: s.label())
def test_growth_state_matches_plain_bfs(spec):
    """The grown state, and the state rolled back after a budget stop in
    the middle of a level, are those of a plain BFS with ``multiply``."""
    _reset_growers()
    ball(spec, 4)
    plain = _plain_bfs(spec, 4)
    assert _growth_state(spec) == plain
    assert balls_mod._get_grower(spec).index_of == {
        x: i for i, x in enumerate(plain[0])}

    level_end = plain[4]
    budget = (level_end[2] + level_end[3]) // 2
    _reset_growers()
    with pytest.raises(BudgetExceededError) as exc:
        ball(spec, 4, budget=budget)
    rolled = _plain_bfs(spec, 4, budget=budget)
    assert exc.value.radius_reached == len(rolled[4]) - 1
    assert _growth_state(spec) == rolled
    assert balls_mod._get_grower(spec).index_of == {
        x: i for i, x in enumerate(rolled[0])}


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
    """For p = 1 the matrix-group embedding is injective, so Britton-form
    equality must coincide with matrix equality; the generator bijection
    also forces identical ball sizes."""
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


def test_coset_key_consistency():
    rng = random.Random(23)
    for spec in ALL_FAMILIES:
        for _ in range(200):
            x = canonicalize(random_word(spec, rng, 8), spec)
            h = rng.choice(subgroup_ball(ball(spec, 2)))
            assert coset_key(multiply(x, h)) == coset_key(x)
            y = canonicalize(random_word(spec, rng, 8), spec)
            same = coset_key(x) == coset_key(y)
            in_subgroup = subgroup_membership(multiply(invert(x), y))
            assert same == in_subgroup


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
    # level abandoned mid-way leaves nothing in the table
    assert len(ball(spec, 1)) == 7
    assert_table_matches_multiply(spec, 5)


def test_word_length_not_found():
    spec = GroupSpec.free_abelian(3)
    far = Element(spec, (50, 50, 50))
    with pytest.raises(ElementNotFoundError) as exc:
        word_length(far, budget=200)
    assert exc.value.radius_searched is not None


# ---------------------------------------------------------------------------
# cache


def _reset_growers():
    balls_mod._growers.clear()


def test_cache_roundtrip(tmp_path):
    """``store`` writes a ball's BFS order, lengths and payloads, and
    ``load`` gives back the same data tuples and lengths in that order."""
    cache = BallCache(tmp_path)
    bn = ball(LAMP2, 4)
    path = cache.store(LAMP2, 4, bn)
    assert path == cache.path_for(LAMP2, 4) and path.exists()
    blob = json.loads(path.read_text())
    assert blob["format_version"] == 1
    assert blob["group"] == LAMP2.to_dict()
    assert blob["radius"] == 4 and blob["member_count"] == len(bn)
    assert blob["members"] == [[ln, json.loads(json.dumps(to_payload(x)))]
                               for x, ln in bn.items()]
    lens = [ln for ln, _ in blob["members"]]
    assert lens == sorted(lens)  # length-sorted (BFS order)

    lengths, elements = cache.load(LAMP2, 4)
    assert elements == list(bn.data())
    assert lengths == [ln for _, ln in bn.data_items()]
    assert cache.load(LAMP2, 3) is None  # only the exact radius is read


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
    """Growth state and the Cayley table are shared; concurrent queries and
    translations at mixed radii, on an empty state and on a grown one
    (where only the table is extended), agree with a single-threaded run."""
    import sys
    import threading

    spec = GroupSpec.lamplighter(3)
    radii = [3, 6, 2, 5, 6, 4, 3, 5]
    support = list(ball(spec, 1))

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
