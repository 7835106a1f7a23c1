"""Canonical group elements and exact arithmetic for the five families.

Every element is stored in a unique canonical form, so equality and hashing
are structural:

* free_abelian:      v                      (tuple of d ints)
* semidirect_zd:     (v, k)                 with product (v,k)(w,l) = (v + A^k w, k+l)
* pq:                (m, e, k)              translation part P = m/(pq)^e with e
                                            minimal (e = 0 or pq does not divide m),
                                            diagonal part (p/q)^k
* lamplighter:       (lamps, shift)         lamps a sorted tuple of (position, value)
                                            with values in 1..p-1
* baumslag_solitar:  (c0, ((eps1,c1),...))  the Britton-reduced word
                                            a^c0 t^eps1 a^c1 ... t^epsn a^cn

The Baumslag-Solitar convention: pinches t a^{pm} t^-1 and t^-1 a^{qm} t are
reduced exhaustively, and every exponent written immediately before a t-letter
is normalized to its coset-representative range ({0..q-1} before t, {0..p-1}
before t^-1) by pushing the quotient rightward.  The rightmost exponent is
unconstrained.  This is the standard HNN normal form, so two words are equal
in the group exactly when their canonical forms coincide.

Each family's arithmetic on the bare ``data`` tuples lives in one
``FamilyOps`` record per group (``family_ops``); the public functions below
wrap and unwrap ``Element``s around it, and the ball search calls its
closed-form right steps by generators directly.  Baumslag-Solitar has one
Britton reduction, those right steps: its ``mul`` folds them over the
right factor's word and its ``inv`` over the reversed, inverted word.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import add, itemgetter, neg
from typing import Any, Callable, Hashable, Mapping, NamedTuple

from ..errors import InputError
from . import intmat
from .spec import (
    BAUMSLAG_SOLITAR,
    FREE_ABELIAN,
    LAMPLIGHTER,
    PQ,
    SEMIDIRECT_ZD,
    GroupSpec,
)


@dataclass(frozen=True, slots=True)
class Element:
    """A group element in canonical form; equal iff representations coincide."""

    group: GroupSpec
    data: tuple

    def __mul__(self, other: "Element") -> "Element":
        return multiply(self, other)

    def inverse(self) -> "Element":
        return invert(self)

    def is_identity(self) -> bool:
        return self == identity(self.group)

    def __repr__(self):
        return f"El[{self.group.family}]{self.data!r}"


# ---------------------------------------------------------------------------
# identity and generators


def identity(group: GroupSpec) -> Element:
    return Element(group, family_ops(group).identity)


def generator(group: GroupSpec, symbol: str) -> Element:
    """The element named by ``symbol`` (a base symbol or ``base^-1``)."""
    base, inverse = _parse_symbol(symbol)
    elem = _base_generator(group, base)
    return invert(elem) if inverse else elem


def _parse_symbol(symbol: str) -> tuple[str, bool]:
    if symbol.endswith("^-1"):
        return symbol[:-3], True
    return symbol, False


def _base_generator(group: GroupSpec, base: str) -> Element:
    try:
        return Element(group, family_ops(group).base_generators[base])
    except KeyError:
        raise InputError(
            f"unknown generator symbol {base!r} for {group.label()}") from None


def generators(group: GroupSpec) -> tuple[tuple[str, Element], ...]:
    """(symbol, element) pairs for the full symmetric generating set."""
    return tuple((sym, generator(group, sym)) for sym in group.symbols())


# ---------------------------------------------------------------------------
# pq arithmetic: values m/(pq)^e with e minimal


def _pq_normalize(m: int, e: int, pq: int) -> tuple[int, int]:
    if m == 0:
        return 0, 0
    if pq == 1:
        return m, 0
    while e > 0 and m % pq == 0:
        m //= pq
        e -= 1
    return m, e


def _pq_scale(m: int, e: int, k: int, p: int, q: int) -> tuple[int, int]:
    """(p/q)^k * m/(pq)^e, normalized.  Uses (p/q)^k = p^(2k)/(pq)^k."""
    if m == 0:
        return 0, 0
    if k >= 0:
        return _pq_normalize(m * p ** (2 * k), e + k, p * q)
    return _pq_normalize(m * q ** (-2 * k), e - k, p * q)


def _pq_add(a: tuple[int, int], b: tuple[int, int], pq: int) -> tuple[int, int]:
    (m1, e1), (m2, e2) = a, b
    e = max(e1, e2)
    return _pq_normalize(m1 * pq ** (e - e1) + m2 * pq ** (e - e2), e, pq)


# ---------------------------------------------------------------------------
# lamplighter arithmetic


def _lamps_mul(f: tuple, g: tuple, k: int, p: int) -> tuple:
    """f + (g shifted by k), values mod p, zero entries dropped."""
    if not g:
        return f
    acc = dict(f)
    for pos, val in g:
        key = pos + k
        new = (acc.get(key, 0) + val) % p
        if new:
            acc[key] = new
        else:
            acc.pop(key, None)
    return tuple(sorted(acc.items()))


# ---------------------------------------------------------------------------
# one arithmetic record per group


class FamilyOps(NamedTuple):
    """One group's arithmetic on canonical ``data`` tuples.

    ``base_generators`` maps each base generator symbol to its data, in the
    fixed order that ``GroupSpec.base_symbols`` reports and that BFS order
    follows.  ``mul`` and ``inv`` take and return canonical forms.
    ``right_steps`` holds one function per symbol of ``GroupSpec.symbols``,
    in that order: ``right_steps[j](x)`` is the canonical form of x*g_j,
    computed in closed form for that one generator (ball growth multiplies
    by nothing else).  ``in_subgroup`` and ``coset_key`` describe the
    designated subgroup H (see ``subgroup_membership``);
    ``to_payload``/``from_payload`` convert to and from the JSON form that
    ``BallCache.store`` writes and ``BallCache.load`` reads."""

    identity: tuple
    base_generators: Mapping[str, tuple]
    mul: Callable[[tuple, tuple], tuple]
    inv: Callable[[tuple], tuple]
    right_steps: tuple[Callable[[tuple], tuple], ...]
    in_subgroup: Callable[[tuple], bool]
    coset_key: Callable[[tuple], Hashable]
    to_payload: Callable[[tuple], Any]
    from_payload: Callable[[Any], tuple]


def _always(x: tuple) -> bool:
    return True


def _zero_key(x: tuple) -> int:
    return 0


def _last_is_zero(x: tuple) -> bool:
    return x[-1] == 0


_last = itemgetter(-1)  # the Z-coordinate: k, shift, or the diagonal exponent


def _fa_mul(x: tuple, y: tuple) -> tuple:
    return tuple(map(add, x, y))


def _fa_inv(x: tuple) -> tuple:
    return tuple(map(neg, x))


def _fa_from_payload(payload) -> tuple:
    return tuple(int(v) for v in payload)


def _unit(d: int, i: int) -> tuple:
    return tuple(1 if j == i else 0 for j in range(d))


# x * e_i^s adds s to coordinate i.  For d = 3 (the Z^3 ball of the
# ball-enum benchmark) the tuple is unpacked and rebuilt explicitly: that
# raised ball-enum's ops_per_s by about 4% over the generic list edit.


def _fa_step(i: int, s: int, x: tuple) -> tuple:
    y = list(x)
    y[i] += s
    return tuple(y)


def _fa_step3(i: int, s: int, x: tuple) -> tuple:
    a, b, c = x
    if i == 0:
        return a + s, b, c
    return (a, b + s, c) if i == 1 else (a, b, c + s)


def _free_abelian_ops(group: GroupSpec) -> FamilyOps:
    d = group.d
    gens = {f"e{i + 1}": _unit(d, i) for i in range(d)}
    step = _fa_step3 if d == 3 else _fa_step
    steps = tuple(partial(step, i, s) for i in range(d) for s in (1, -1))
    return FamilyOps((0,) * d, gens, _fa_mul, _fa_inv, steps, _always,
                     _zero_key, list, _fa_from_payload)


class _ByK(dict):
    """``f(k)`` for every integer k, each computed once."""

    def __init__(self, f: Callable[[int], Any]):
        super().__init__()
        self.f = f

    def __missing__(self, k: int):
        out = self[k] = self.f(k)
        return out


def _signed_columns(powers: _ByK, k: int) -> tuple:
    """The columns of A^k each followed by its negative: the translation
    parts of (0, k) * e_i^{+-1}, in symbol order."""
    return tuple(signed for col in intmat.transpose(powers[k])
                 for signed in (col, tuple(map(neg, col))))


def _sd_step(columns: _ByK, j: int, x: tuple) -> tuple:
    v, k = x
    return tuple(map(add, v, columns[k][j])), k


def _shift_step(s: int, x: tuple) -> tuple:
    """x * t^s for a pair x = (a, k) whose t-letters only move k."""
    a, k = x
    return a, k + s


def _sd_mul(powers: _ByK, x: tuple, y: tuple) -> tuple:
    (v, k), (w, l) = x, y
    return tuple(map(add, v, intmat.mat_vec(powers[k], w))), k + l


def _sd_inv(powers: _ByK, x: tuple) -> tuple:
    v, k = x
    return tuple(map(neg, intmat.mat_vec(powers[-k], v))), -k


def _sd_to_payload(x: tuple) -> list:
    v, k = x
    return [list(v), k]


def _sd_from_payload(payload) -> tuple:
    v, k = payload
    return tuple(int(x) for x in v), int(k)


def _semidirect_ops(group: GroupSpec) -> FamilyOps:
    d = group.d
    gens = {f"e{i + 1}": (_unit(d, i), 0) for i in range(d)}
    gens["t"] = ((0,) * d, 1)
    powers = _ByK(partial(intmat.mat_pow, group.matrix))  # A is unimodular
    columns = _ByK(partial(_signed_columns, powers))
    steps = tuple(partial(_sd_step, columns, j) for j in range(2 * d))
    steps += (partial(_shift_step, 1), partial(_shift_step, -1))
    return FamilyOps(((0,) * d, 0), gens, partial(_sd_mul, powers),
                     partial(_sd_inv, powers), steps, _last_is_zero, _last,
                     _sd_to_payload, _sd_from_payload)


def _pq_mul(p: int, q: int, x: tuple, y: tuple) -> tuple:
    (m1, e1, k1), (m2, e2, k2) = x, y
    if not m2:  # a diagonal factor leaves the translation part as it is
        return m1, e1, k1 + k2
    m, e = _pq_add((m1, e1), _pq_scale(m2, e2, k1, p, q), p * q)
    return m, e, k1 + k2


def _pq_s_step(s: int, x: tuple) -> tuple:
    m, e, k = x
    return m, e, k + s


def _pq_t_step(powers: _ByK, pq: int, x: tuple) -> tuple:
    """x * t^s adds s * (p/q)^k, which ``powers[k]`` holds normalized, to the
    translation part.  When the two exponents differ, the term with the
    larger one (> 0, so canonical and not divisible by pq) is added to a
    multiple of pq: the sum is canonical."""
    m, e, k = x
    mk, ek = powers[k]
    if e > ek:
        return m + mk * pq ** (e - ek), e, k
    if e < ek:
        return m * pq ** (ek - e) + mk, ek, k
    return _pq_normalize(m + mk, e, pq) + (k,)


def _pq_inv(p: int, q: int, x: tuple) -> tuple:
    m, e, k = x
    return _pq_scale(-m, e, -k, p, q) + (-k,)


def _pq_from_payload(payload) -> tuple:
    m, e, k = payload
    return int(m), int(e), int(k)


def _pq_ops(group: GroupSpec) -> FamilyOps:
    p, q = group.p, group.q
    steps = (partial(_pq_s_step, 1), partial(_pq_s_step, -1))
    for s in (1, -1):
        powers = _ByK(partial(_pq_scale, s, 0, p=p, q=q))  # s * (p/q)^k
        steps += (partial(_pq_t_step, powers, p * q),)
    return FamilyOps((0, 0, 0), {"s": (0, 0, 1), "t": (1, 0, 0)},
                     partial(_pq_mul, p, q), partial(_pq_inv, p, q), steps,
                     _last_is_zero, _last, list, _pq_from_payload)


def _lamp_mul(p: int, x: tuple, y: tuple) -> tuple:
    (f, k), (g, l) = x, y
    return _lamps_mul(f, g, k, p), k + l


def _lamp_step(p: int, s: int, x: tuple) -> tuple:
    """x * a^{+-1} adds s (1 or p - 1) to the lamp at the cursor."""
    lamps, k = x
    i = bisect_left(lamps, (k,))
    if i < len(lamps) and lamps[i][0] == k:
        val = (lamps[i][1] + s) % p
        rest = lamps[i + 1:]
        return (lamps[:i] + ((k, val),) + rest if val else lamps[:i] + rest), k
    return lamps[:i] + ((k, s),) + lamps[i:], k


def _lamp_inv(p: int, x: tuple) -> tuple:
    f, k = x
    return tuple(sorted((pos - k, (-val) % p) for pos, val in f)), -k


def _lamp_to_payload(x: tuple) -> list:
    lamps, shift = x
    return [[list(pair) for pair in lamps], shift]


def _lamp_from_payload(payload) -> tuple:
    lamps, shift = payload
    return tuple((int(p), int(v)) for p, v in lamps), int(shift)


def _lamplighter_ops(group: GroupSpec) -> FamilyOps:
    p = group.p
    steps = (partial(_lamp_step, p, 1), partial(_lamp_step, p, p - 1),
             partial(_shift_step, 1), partial(_shift_step, -1))
    return FamilyOps(((), 0), {"a": (((0, 1),), 0), "t": ((), 1)},
                     partial(_lamp_mul, p), partial(_lamp_inv, p), steps,
                     _last_is_zero, _last, _lamp_to_payload,
                     _lamp_from_payload)


def _bs_a_step(s: int, x: tuple) -> tuple:
    """x * a^s for any integer s: the rightmost exponent is unconstrained."""
    head, tail = x
    if tail:
        eps, c = tail[-1]
        return head, tail[:-1] + ((eps, c + s),)
    return head + s, tail


def _bs_t_step(eps: int, div: int, mul: int, x: tuple, c: int = 0) -> tuple:
    """x * t^eps a^c for eps = +-1, with (div, mul) = (q, p) for eps = 1
    and (p, q) for eps = -1.  The last exponent b = div m + r of x leaves r
    before t^eps and a^{mul m} after it (a^{div m} t^eps = t^eps a^{mul m}),
    or pinches when r = 0 after a t^-eps; a^c joins the last exponent."""
    head, tail = x
    last_eps, b = tail[-1] if tail else (0, head)
    m, r = divmod(b, div)
    if r == 0 and last_eps == -eps:  # pinch t^-eps a^{div m} t^eps = a^{mul m}
        return _bs_a_step(mul * m + c, (head, tail[:-1]))
    if tail:
        return head, tail[:-1] + ((last_eps, r), (eps, mul * m + c))
    return r, ((eps, mul * m + c),)


def _bs_mul(p: int, q: int, x: tuple, y: tuple) -> tuple:
    """x * y: the right steps folded over y's word a^c0 t^eps1 a^c1 ..."""
    c0, tail = y
    if c0:
        x = _bs_a_step(c0, x)
    for eps, c in tail:
        x = (_bs_t_step(1, q, p, x, c) if eps == 1
             else _bs_t_step(-1, p, q, x, c))
    return x


def _bs_inv(p: int, q: int, x: tuple) -> tuple:
    """x^-1: the right steps folded over a^-cn t^-epsn ... t^-eps1 a^-c0."""
    c0, tail = x
    exps = [c0] + [c for _, c in tail]
    out = (-exps.pop(), ())
    for eps, _ in reversed(tail):
        c = -exps.pop()
        out = (_bs_t_step(1, q, p, out, c) if eps == -1
               else _bs_t_step(-1, p, q, out, c))
    return out


def _bs_in_subgroup(x: tuple) -> bool:
    return not x[1]


def _bs_coset_key(x: tuple):
    c0, tail = x
    if not tail:
        return ("H",)
    # right-multiplying by a^j changes only the final exponent
    return (c0, tail[:-1], tail[-1][0])


def _bs_to_payload(x: tuple) -> list:
    c0, tail = x
    return [c0, [list(pair) for pair in tail]]


def _bs_from_payload(payload) -> tuple:
    c0, tail = payload
    return int(c0), tuple((int(e), int(c)) for e, c in tail)


def _baumslag_solitar_ops(group: GroupSpec) -> FamilyOps:
    p, q = group.p, group.q
    steps = (partial(_bs_a_step, 1), partial(_bs_a_step, -1),
             partial(_bs_t_step, 1, q, p), partial(_bs_t_step, -1, p, q))
    return FamilyOps((0, ()), {"a": (1, ()), "t": (0, ((1, 0),))},
                     partial(_bs_mul, p, q), partial(_bs_inv, p, q), steps,
                     _bs_in_subgroup, _bs_coset_key, _bs_to_payload,
                     _bs_from_payload)


_OPS_BUILDERS = {
    FREE_ABELIAN: _free_abelian_ops,
    SEMIDIRECT_ZD: _semidirect_ops,
    PQ: _pq_ops,
    LAMPLIGHTER: _lamplighter_ops,
    BAUMSLAG_SOLITAR: _baumslag_solitar_ops,
}


def family_ops(group: GroupSpec) -> FamilyOps:
    """The arithmetic record of ``group``.

    Built on first use and then kept on the spec itself, so later lookups
    hash and compare nothing.  The record holds only module-level functions
    and their parameters, so the spec still pickles."""
    try:
        return group._ops
    except AttributeError:
        ops = _OPS_BUILDERS[group.family](group)
        object.__setattr__(group, "_ops", ops)
        return ops


# ---------------------------------------------------------------------------
# public operations


def multiply(a: Element, b: Element) -> Element:
    """Canonical form of the product a*b."""
    group = a.group
    if group is not b.group and group != b.group:
        raise InputError(
            f"cannot multiply elements of {group.label()} and {b.group.label()}")
    return Element(group, family_ops(group).mul(a.data, b.data))


def invert(a: Element) -> Element:
    """Canonical form of the inverse; an involution."""
    return Element(a.group, family_ops(a.group).inv(a.data))


def canonicalize(word, group: GroupSpec) -> Element:
    """Canonical form of a word in the generators.

    ``word`` is an iterable of generator symbols, or a single string that is
    split on whitespace.  The empty word is the identity.
    """
    if isinstance(word, str):
        word = word.split()
    out = identity(group)
    for symbol in word:
        out = multiply(out, generator(group, symbol))
    return out


def t_length(x: Element) -> int:
    """Number of stable letters t^{+-1} in the Britton-reduced form.

    Equals the Bass-Serre tree displacement of the base vertex, and is
    subadditive under multiplication.
    """
    if x.group.family != BAUMSLAG_SOLITAR:
        raise InputError("t_length is defined for baumslag_solitar elements only")
    return len(x.data[1])


def subgroup_membership(x: Element, group: GroupSpec | None = None) -> bool:
    """Whether x lies in the designated subgroup H of its family.

    H is the k = 0 kernel for semidirect_zd and pq, the shift = 0 lamp
    subgroup for lamplighter, the t-free cyclic subgroup <a> for
    baumslag_solitar, and the whole group for free_abelian.
    """
    if group is not None and group != x.group:
        raise InputError("element does not belong to the given group")
    return family_ops(x.group).in_subgroup(x.data)


def coset_key(x: Element):
    """A hashable key constant exactly on each left coset xH of the
    designated subgroup H."""
    return family_ops(x.group).coset_key(x.data)


@lru_cache(maxsize=16)
def j2_target(p: int, q: int) -> GroupSpec:
    """The pq(p, q) group that ``embed_j2`` maps BS(p,q) into.

    One spec per (p, q), so that its arithmetic record (and the ball grown
    on it) is built once, not once per embedded element."""
    return GroupSpec.pq(p, q)


def j2_data(target: GroupSpec, x: tuple) -> tuple:
    """``embed_j2`` on canonical data, with ``target`` the ``j2_target``:
    the target's ``mul`` folded over a^c -> (c, 0, 0), t^eps -> (0, 0, -eps)."""
    mul = family_ops(target).mul
    c0, tail = x
    out = (c0, 0, 0)
    for eps, c in tail:
        out = mul(mul(out, (0, 0, -eps)), (c, 0, 0))
    return out


def embed_j2(x: Element) -> Element:
    """The matrix-group leg of the diagonal embedding of BS(p,q).

    Sends a to the unit translation and t to the diagonal element with entry
    q/p, so the defining relation t a^p t^-1 = a^q is respected and
    generators map to generators (word length does not increase).
    """
    if x.group.family != BAUMSLAG_SOLITAR:
        raise InputError("embed_j2 is defined on baumslag_solitar elements")
    target = j2_target(x.group.p, x.group.q)
    return Element(target, j2_data(target, x.data))


# ---------------------------------------------------------------------------
# portable payload serialization (ball cache)


def to_payload(x: Element):
    return family_ops(x.group).to_payload(x.data)


def from_payload(group: GroupSpec, payload) -> Element:
    return Element(group, family_ops(group).from_payload(payload))
