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
wrap and unwrap ``Element``s around it, and the ball search calls it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import add, itemgetter, neg
from typing import Any, Callable, Hashable, NamedTuple

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
    fam = group.family
    if fam in (FREE_ABELIAN, SEMIDIRECT_ZD) and base.startswith("e"):
        try:
            i = int(base[1:]) - 1
        except ValueError:
            i = -1
        if 0 <= i < group.d:
            v = tuple(1 if j == i else 0 for j in range(group.d))
            return Element(group, v if fam == FREE_ABELIAN else (v, 0))
    if fam == SEMIDIRECT_ZD and base == "t":
        return Element(group, ((0,) * group.d, 1))
    if fam == PQ:
        if base == "s":
            return Element(group, (0, 0, 1))
        if base == "t":
            return Element(group, (1, 0, 0))
    if fam == LAMPLIGHTER:
        if base == "a":
            return Element(group, (((0, 1),), 0))
        if base == "t":
            return Element(group, ((), 1))
    if fam == BAUMSLAG_SOLITAR:
        if base == "a":
            return Element(group, (1, ()))
        if base == "t":
            return Element(group, (0, ((1, 0),)))
    raise InputError(f"unknown generator symbol {base!r} for {group.label()}")


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
# Baumslag-Solitar: Britton reduction by right multiplication
#
# A word under reduction is ``head`` plus a list of (eps, c) syllable tuples;
# reduction only replaces, removes or appends syllables at the end of the
# list, so the syllables before them are shared with the input unchanged.


def _bs_push_a(head: int, tail: list, c: int) -> int:
    if tail:
        eps, last = tail[-1]
        tail[-1] = (eps, last + c)
    else:
        head += c
    return head


def _bs_push_t(p: int, q: int, head: int, tail: list, eps: int) -> int:
    """Right-multiply the canonical word (head, tail) by t^eps, in place."""
    last_eps, c = tail[-1] if tail else (0, head)
    if eps == 1:
        m, r = divmod(c, q)
        if r == 0 and last_eps == -1:  # pinch t^-1 a^{qm} t = a^{pm}
            tail.pop()
            return _bs_push_a(head, tail, p * m)
        if tail:
            tail[-1] = (last_eps, r)
        else:
            head = r
        tail.append((1, p * m))  # a^{qm} t = t a^{pm}
    else:
        m, r = divmod(c, p)
        if r == 0 and last_eps == 1:  # pinch t a^{pm} t^-1 = a^{qm}
            tail.pop()
            return _bs_push_a(head, tail, q * m)
        if tail:
            tail[-1] = (last_eps, r)
        else:
            head = r
        tail.append((-1, q * m))  # a^{pm} t^-1 = t^-1 a^{qm}
    return head


def _bs_mul(p: int, q: int, x: tuple, y: tuple) -> tuple:
    head, tail = x[0], list(x[1])
    head = _bs_push_a(head, tail, y[0])
    for eps, c in y[1]:
        head = _bs_push_t(p, q, head, tail, eps)
        head = _bs_push_a(head, tail, c)
    return head, tuple(tail)


def _bs_inv(p: int, q: int, x: tuple) -> tuple:
    c0, pairs = x
    exps = [c0] + [c for _, c in pairs]
    head, tail = -exps[-1], []
    for i in range(len(pairs) - 1, -1, -1):
        head = _bs_push_t(p, q, head, tail, -pairs[i][0])
        head = _bs_push_a(head, tail, -exps[i])
    return head, tuple(tail)


# ---------------------------------------------------------------------------
# one arithmetic record per group


class FamilyOps(NamedTuple):
    """One group's arithmetic on canonical ``data`` tuples.

    ``mul`` and ``inv`` take and return canonical forms; ``in_subgroup`` and
    ``coset_key`` describe the designated subgroup H (see
    ``subgroup_membership``); ``to_payload``/``from_payload`` convert to and
    from the JSON form of the ball cache."""

    identity: tuple
    mul: Callable[[tuple, tuple], tuple]
    inv: Callable[[tuple], tuple]
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


def _free_abelian_ops(group: GroupSpec) -> FamilyOps:
    return FamilyOps((0,) * group.d, _fa_mul, _fa_inv, _always, _zero_key,
                     list, _fa_from_payload)


class _MatPowers(dict):
    """A^k for every integer k, each computed once (A is unimodular)."""

    def __init__(self, matrix: intmat.IntMatrix):
        super().__init__()
        self.matrix = matrix

    def __missing__(self, k: int) -> intmat.IntMatrix:
        out = self[k] = intmat.mat_pow(self.matrix, k)
        return out


def _sd_mul(powers: _MatPowers, x: tuple, y: tuple) -> tuple:
    (v, k), (w, l) = x, y
    return tuple(map(add, v, intmat.mat_vec(powers[k], w))), k + l


def _sd_inv(powers: _MatPowers, x: tuple) -> tuple:
    v, k = x
    return tuple(map(neg, intmat.mat_vec(powers[-k], v))), -k


def _sd_to_payload(x: tuple) -> list:
    v, k = x
    return [list(v), k]


def _sd_from_payload(payload) -> tuple:
    v, k = payload
    return tuple(int(x) for x in v), int(k)


def _semidirect_ops(group: GroupSpec) -> FamilyOps:
    powers = _MatPowers(group.matrix)
    return FamilyOps(((0,) * group.d, 0), partial(_sd_mul, powers),
                     partial(_sd_inv, powers), _last_is_zero, _last,
                     _sd_to_payload, _sd_from_payload)


def _pq_mul(p: int, q: int, x: tuple, y: tuple) -> tuple:
    (m1, e1, k1), (m2, e2, k2) = x, y
    if not m2:  # a diagonal factor leaves the translation part as it is
        return m1, e1, k1 + k2
    m, e = _pq_add((m1, e1), _pq_scale(m2, e2, k1, p, q), p * q)
    return m, e, k1 + k2


def _pq_inv(p: int, q: int, x: tuple) -> tuple:
    m, e, k = x
    return _pq_scale(-m, e, -k, p, q) + (-k,)


def _pq_from_payload(payload) -> tuple:
    m, e, k = payload
    return int(m), int(e), int(k)


def _pq_ops(group: GroupSpec) -> FamilyOps:
    p, q = group.p, group.q
    return FamilyOps((0, 0, 0), partial(_pq_mul, p, q), partial(_pq_inv, p, q),
                     _last_is_zero, _last, list, _pq_from_payload)


def _lamp_mul(p: int, x: tuple, y: tuple) -> tuple:
    (f, k), (g, l) = x, y
    return _lamps_mul(f, g, k, p), k + l


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
    return FamilyOps(((), 0), partial(_lamp_mul, group.p),
                     partial(_lamp_inv, group.p), _last_is_zero, _last,
                     _lamp_to_payload, _lamp_from_payload)


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
    return FamilyOps((0, ()), partial(_bs_mul, p, q), partial(_bs_inv, p, q),
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


def embed_j2(x: Element) -> Element:
    """The matrix-group leg of the diagonal embedding of BS(p,q).

    Sends a to the unit translation and t to the diagonal element with entry
    q/p, so the defining relation t a^p t^-1 = a^q is respected and
    generators map to generators (word length does not increase).
    """
    if x.group.family != BAUMSLAG_SOLITAR:
        raise InputError("embed_j2 is defined on baumslag_solitar elements")
    target = GroupSpec.pq(x.group.p, x.group.q)
    a_img = Element(target, (1, 0, 0))
    t_img = Element(target, (0, 0, -1))  # diagonal entry (p/q)^-1 = q/p
    t_inv = invert(t_img)

    def a_pow(c: int) -> Element:
        return Element(target, _pq_normalize(c, 0, target.p * target.q) + (0,))

    c0, tail = x.data
    out = a_pow(c0)
    for eps, c in tail:
        out = multiply(out, t_img if eps == 1 else t_inv)
        out = multiply(out, a_pow(c))
    return out


# ---------------------------------------------------------------------------
# portable payload serialization (ball cache)


def to_payload(x: Element):
    return family_ops(x.group).to_payload(x.data)


def from_payload(group: GroupSpec, payload) -> Element:
    return Element(group, family_ops(group).from_payload(payload))
