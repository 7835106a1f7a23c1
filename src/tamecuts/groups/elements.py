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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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
    fam = group.family
    if fam == FREE_ABELIAN:
        data: tuple = (0,) * group.d
    elif fam == SEMIDIRECT_ZD:
        data = ((0,) * group.d, 0)
    elif fam == PQ:
        data = (0, 0, 0)
    elif fam == LAMPLIGHTER:
        data = ((), 0)
    else:
        data = (0, ())
    return Element(group, data)


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


def _bs_push_a(head: int, tail: list, c: int) -> int:
    if tail:
        tail[-1][1] += c
    else:
        head += c
    return head


def _bs_push_t(p: int, q: int, head: int, tail: list, eps: int) -> int:
    """Right-multiply the canonical word (head, tail) by t^eps, in place."""
    c = tail[-1][1] if tail else head
    last_eps = tail[-1][0] if tail else 0
    if eps == 1:
        m, r = divmod(c, q)
        if r == 0 and last_eps == -1:  # pinch t^-1 a^{qm} t = a^{pm}
            tail.pop()
            return _bs_push_a(head, tail, p * m)
        if tail:
            tail[-1][1] = r
        else:
            head = r
        tail.append([1, p * m])  # a^{qm} t = t a^{pm}
    else:
        m, r = divmod(c, p)
        if r == 0 and last_eps == 1:  # pinch t a^{pm} t^-1 = a^{qm}
            tail.pop()
            return _bs_push_a(head, tail, q * m)
        if tail:
            tail[-1][1] = r
        else:
            head = r
        tail.append([-1, q * m])  # a^{pm} t^-1 = t^-1 a^{qm}
    return head


def _bs_feed(p: int, q: int, head: int, tail: list,
             letters: Iterable[tuple[int, int]]) -> int:
    """Feed (eps, c) syllables: multiply by t^eps then a^c for each pair."""
    for eps, c in letters:
        head = _bs_push_t(p, q, head, tail, eps)
        head = _bs_push_a(head, tail, c)
    return head


def _bs_mul(group: GroupSpec, x: tuple, y: tuple) -> tuple:
    p, q = group.p, group.q
    head, tail = x[0], [list(pair) for pair in x[1]]
    head = _bs_push_a(head, tail, y[0])
    head = _bs_feed(p, q, head, tail, y[1])
    return head, tuple((e, c) for e, c in tail)


def _bs_inv(group: GroupSpec, x: tuple) -> tuple:
    p, q = group.p, group.q
    c0, pairs = x
    exps = [c0] + [c for _, c in pairs]
    head, tail = -exps[-1], []
    for i in range(len(pairs) - 1, -1, -1):
        head = _bs_push_t(p, q, head, tail, -pairs[i][0])
        head = _bs_push_a(head, tail, -exps[i])
    return head, tuple((e, c) for e, c in tail)


# ---------------------------------------------------------------------------
# public operations


def multiply(a: Element, b: Element) -> Element:
    """Canonical form of the product a*b."""
    if a.group != b.group:
        raise InputError(
            f"cannot multiply elements of {a.group.label()} and {b.group.label()}")
    group = a.group
    fam = group.family
    if fam == FREE_ABELIAN:
        data: tuple = tuple(x + y for x, y in zip(a.data, b.data))
    elif fam == SEMIDIRECT_ZD:
        (v, k), (w, l) = a.data, b.data
        akw = intmat.mat_vec(intmat.mat_pow(group.matrix, k), w)
        data = (tuple(x + y for x, y in zip(v, akw)), k + l)
    elif fam == PQ:
        (m1, e1, k1), (m2, e2, k2) = a.data, b.data
        shifted = _pq_scale(m2, e2, k1, group.p, group.q)
        m, e = _pq_add((m1, e1), shifted, group.p * group.q)
        data = (m, e, k1 + k2)
    elif fam == LAMPLIGHTER:
        (f, k), (g, l) = a.data, b.data
        data = (_lamps_mul(f, g, k, group.p), k + l)
    else:
        data = _bs_mul(group, a.data, b.data)
    return Element(group, data)


def invert(a: Element) -> Element:
    """Canonical form of the inverse; an involution."""
    group = a.group
    fam = group.family
    if fam == FREE_ABELIAN:
        data: tuple = tuple(-x for x in a.data)
    elif fam == SEMIDIRECT_ZD:
        v, k = a.data
        w = intmat.mat_vec(intmat.mat_pow(group.matrix, -k), v)
        data = (tuple(-x for x in w), -k)
    elif fam == PQ:
        m, e, k = a.data
        m2, e2 = _pq_scale(-m, e, -k, group.p, group.q)
        data = (m2, e2, -k)
    elif fam == LAMPLIGHTER:
        f, k = a.data
        p = group.p
        data = (tuple(sorted((pos - k, (-val) % p) for pos, val in f)), -k)
    else:
        data = _bs_inv(group, a.data)
    return Element(group, data)


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
    fam = x.group.family
    if fam == FREE_ABELIAN:
        return True
    if fam == SEMIDIRECT_ZD:
        return x.data[1] == 0
    if fam == PQ:
        return x.data[2] == 0
    if fam == LAMPLIGHTER:
        return x.data[1] == 0
    return len(x.data[1]) == 0


def coset_key(x: Element):
    """A hashable key constant exactly on each left coset xH of the
    designated subgroup H."""
    fam = x.group.family
    if fam == FREE_ABELIAN:
        return 0
    if fam in (SEMIDIRECT_ZD, LAMPLIGHTER):
        return x.data[1]
    if fam == PQ:
        return x.data[2]
    c0, tail = x.data
    if not tail:
        return ("H",)
    # right-multiplying by a^j changes only the final exponent
    return (c0, tail[:-1], tail[-1][0])


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
    fam = x.group.family
    if fam == FREE_ABELIAN:
        return list(x.data)
    if fam == SEMIDIRECT_ZD:
        v, k = x.data
        return [list(v), k]
    if fam == PQ:
        return list(x.data)
    if fam == LAMPLIGHTER:
        lamps, shift = x.data
        return [[list(pair) for pair in lamps], shift]
    c0, tail = x.data
    return [c0, [list(pair) for pair in tail]]


def from_payload(group: GroupSpec, payload) -> Element:
    fam = group.family
    if fam == FREE_ABELIAN:
        return Element(group, tuple(int(v) for v in payload))
    if fam == SEMIDIRECT_ZD:
        v, k = payload
        return Element(group, (tuple(int(x) for x in v), int(k)))
    if fam == PQ:
        m, e, k = payload
        return Element(group, (int(m), int(e), int(k)))
    if fam == LAMPLIGHTER:
        lamps, shift = payload
        return Element(group, (tuple((int(p), int(v)) for p, v in lamps), int(shift)))
    c0, tail = payload
    return Element(group, (int(c0), tuple((int(e), int(c)) for e, c in tail)))
