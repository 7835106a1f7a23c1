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
wrap and unwrap ``Element``s around it.  Ball growth runs on the record's
``Rows`` codec instead: each element as a fixed-width row of integers, and
the right steps by the generators as array operations on whole spheres.
Baumslag-Solitar ``mul`` and ``inv`` fold the Britton right steps by
a^+-1 and t^+-1 over flat words (c0, eps1, c1, ..., epsn, cn); its codec
runs the same steps, written apart, on whole arrays of rows (P, n, c), the
word's first n exponent-letter pairs packed as the digits of P.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain
from operator import add, index, neg
from typing import Any, Callable, Mapping, NamedTuple

import numpy as np

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


class Rows(NamedTuple):
    """A family's integer rows: its elements as rows of exact integers, and
    the right steps by the generators on whole arrays of rows, which is
    what ball growth runs on.

    A row is fixed-width: v for Z^d; (v, k) for the semidirect product;
    (m, e, k) for pq; (L, k) for the lamplighter, with the lamps packed as
    the base-p number L whose digit z(j) (z = 0, 1, 2, ... for j = 0, -1,
    1, -2, ...) is the lamp at j; and (P, n, c) for BS(p,q), with n the
    number of stable letters, c the last exponent and P the n digits of the
    exponent-letter pairs before it (see ``_bs_step``).
    An array of n rows is stored field-major, as a C-contiguous array of
    shape (width, n): each field is one contiguous array, and column i is
    the row of element i.  Every ``step`` output keeps that layout, int64 or
    widened, so columns are gathered with ``take`` or ``compress`` on axis
    1: an index array on axis 1 gives a column-strided copy, over which
    per-field reductions run many times slower.
    Arrays of rows are int64 while every entry a step can produce provably
    fits, and otherwise dtype=object holding Python ints, on which the same
    array code runs exactly: a row widens, it never wraps.

    ``encode(x)`` is the row of canonical data x as a tuple of Python ints,
    or None when x is not canonical data of the family (malformed tuples
    may raise TypeError or ValueError).  ``decode(rows)`` lists the
    canonical data tuples.  ``step(rows, radius)`` gives the rows of x*g_j
    for every row x and every symbol j of ``GroupSpec.symbols``, x-major,
    for rows of word length at most ``radius`` (None: unknown, computed in
    Python ints).
    """

    encode: Callable[[tuple], tuple | None]
    decode: Callable[[np.ndarray], list]
    step: Callable[[np.ndarray, int | None], np.ndarray]


class FamilyOps(NamedTuple):
    """One group's arithmetic on canonical ``data`` tuples.

    ``base_generators`` maps each base generator symbol to its data, in the
    fixed order that ``GroupSpec.base_symbols`` reports and that BFS order
    follows.  ``mul`` and ``inv`` take and return canonical forms.
    ``coset_key(x)`` names the left coset xH of the designated subgroup H
    (see ``subgroup_membership``), so x lies in H when its key is the
    identity's.  ``section(n)`` is the data of the coset section of B_n
    (see ``balls.coset_section``) in closed form, or None for BS, whose
    section is read off the ball's rows.  ``rows`` is the family's ``Rows``
    codec, whose batch step is the right multiplication by the
    generators."""

    identity: tuple
    base_generators: Mapping[str, tuple]
    mul: Callable[[tuple, tuple], tuple]
    inv: Callable[[tuple], tuple]
    coset_key: Callable[[tuple], Any]
    section: Callable[[int], list] | None
    rows: Rows


_INT64 = 2 ** 63  # an int64 entry lies in [-_INT64, _INT64)
_OBJECT = np.dtype(object)  # the dtype of widened rows


def _no_key(x: tuple) -> None:
    """H is the whole group: one coset."""
    return None


def _last(x: tuple) -> int:
    """H is the kernel of the last coordinate, which names the coset."""
    return x[-1]


def _one_coset(identity: tuple, n: int) -> list:
    """H is the whole group: one coset, whose first element is e."""
    return [identity]


def _z_section(identity: tuple, n: int) -> list:
    """H is the kernel of the last coordinate k, which only the powers of
    one generator g move, by one per letter: the cosets meeting B_n are
    those of |k| <= n, g^k (the identity's data with k last) is the only
    element of length |k| in its coset, and BFS meets g^j before g^-j."""
    head = identity[:-1]
    return [identity] + [head + (k,) for j in range(1, n + 1) for k in (j, -j)]


def _tuples(rows: np.ndarray) -> list:
    return list(zip(*rows.tolist()))


def _table(values, wide: bool) -> np.ndarray:
    """``values`` (nested lists of Python ints) as an int64 array, or as
    an object array when ``wide``."""
    return np.array(values, dtype=object if wide else np.int64)


def _index(values: np.ndarray) -> np.ndarray:
    """Small nonnegative integers as an index array."""
    return values.astype(np.intp) if values.dtype is _OBJECT else values


def _offsets(field: np.ndarray) -> tuple[int, int, np.ndarray]:
    """The least and greatest entries of a field of small integers (k or
    the cursor), and each entry's offset from the least, as an index."""
    lo = int(np.minimum.reduce(field))
    return lo, int(np.maximum.reduce(field)), _index(field - lo)


def _int64_radius(bound: Callable[[int], int]) -> int:
    """The largest radius r with bound(r) < 2^63 (-1 if none), for a
    nondecreasing bound on every entry a step forms from rows of length at
    most r: doubling, then bisection."""
    if bound(0) >= _INT64:
        return -1
    lo, hi = 0, 1
    while bound(hi) < _INT64:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if bound(mid) < _INT64 else (lo, mid)
    return lo


def _fixed_ops(identity: tuple, gens: Mapping[str, tuple], mul, inv,
               rows: Rows, coset_key, section) -> FamilyOps:
    """The record of a family with a closed-form section."""
    return FamilyOps(identity, gens, mul, inv, coset_key,
                     partial(section, identity), rows)


def _fa_mul(x: tuple, y: tuple) -> tuple:
    return tuple(map(add, x, y))


def _fa_inv(x: tuple) -> tuple:
    return tuple(map(neg, x))


def _unit(d: int, i: int) -> tuple:
    return tuple(1 if j == i else 0 for j in range(d))


def _fa_encode(d: int, x: tuple) -> tuple | None:
    return tuple(map(index, x)) if len(x) == d else None


def _fa_step(deltas: np.ndarray, rows: np.ndarray, radius) -> np.ndarray:
    """x * e_i^s adds s to coordinate i.  Coordinates on B_radius are at
    most radius in absolute value, far inside int64."""
    return (rows[:, :, None] + deltas).reshape(len(rows), -1)


def _free_abelian_ops(group: GroupSpec) -> FamilyOps:
    d = group.d
    gens = {f"e{i + 1}": _unit(d, i) for i in range(d)}
    deltas = np.array([[[s * (i == f) for i in range(d) for s in (1, -1)]]
                       for f in range(d)],  # (field, 1, symbol)
                      dtype=np.int64)
    rows = Rows(partial(_fa_encode, d), _tuples, partial(_fa_step, deltas))
    return _fixed_ops((0,) * d, gens, _fa_mul, _fa_inv, rows, _no_key,
                      _one_coset)


class _ByK(dict):
    """``f(k)`` for every integer k, each computed once."""

    def __init__(self, f: Callable[[int], Any]):
        super().__init__()
        self.f = f

    def __missing__(self, k: int):
        out = self[k] = self.f(k)
        return out


def _sd_deltas(powers: _ByK, k: int) -> tuple:
    """The row increments of (v, k) * g_j in symbol order: each column of
    A^k and its negative (k unchanged), then t and t^-1 (k +- 1)."""
    d = len(powers[0])
    out = [col + (0,) for c in intmat.transpose(powers[k])
           for col in (tuple(c), tuple(map(neg, c)))]
    return tuple(out) + ((0,) * d + (1,), (0,) * d + (-1,))


def _sd_mul(powers: _ByK, x: tuple, y: tuple) -> tuple:
    (v, k), (w, l) = x, y
    return tuple(map(add, v, intmat.mat_vec(powers[k], w))), k + l


def _sd_inv(powers: _ByK, x: tuple) -> tuple:
    v, k = x
    return tuple(map(neg, intmat.mat_vec(powers[-k], v))), -k


def _sd_encode(d: int, x: tuple) -> tuple | None:
    v, k = x
    return tuple(map(index, v)) + (index(k),) if len(v) == d else None


def _sd_decode(rows: np.ndarray) -> list:
    fields = rows.tolist()
    return list(zip(zip(*fields[:-1]), fields[-1]))


def _sd_step(deltas: _ByK, rows: np.ndarray, radius) -> np.ndarray:
    """(v, k) * g_j adds ``deltas[k][j]``.  The rows stay int64 while the
    largest entry plus the largest increment fits."""
    lows = np.minimum.reduce(rows, axis=1).tolist()
    highs = np.maximum.reduce(rows, axis=1).tolist()
    table = [deltas[k] for k in range(lows[-1], highs[-1] + 1)]
    top = max(abs(t) for block in table for row in block for t in row)
    wide = (rows.dtype is _OBJECT
            or max(map(abs, lows + highs)) + top >= _INT64)
    at = _index(rows[-1] - lows[-1])
    # (field, x, symbol)
    out = _table(table, wide).transpose(2, 0, 1).take(at, axis=1)
    out += rows[:, :, None]
    return out.reshape(len(rows), -1)


def _semidirect_ops(group: GroupSpec) -> FamilyOps:
    d = group.d
    gens = {f"e{i + 1}": (_unit(d, i), 0) for i in range(d)}
    gens["t"] = ((0,) * d, 1)
    powers = _ByK(partial(intmat.mat_pow, group.matrix))  # A is unimodular
    rows = Rows(partial(_sd_encode, d), _sd_decode,
                partial(_sd_step, _ByK(partial(_sd_deltas, powers))))
    return _fixed_ops(((0,) * d, 0), gens, partial(_sd_mul, powers),
                      partial(_sd_inv, powers), rows, _last,
                      _z_section)


def _pq_mul(p: int, q: int, x: tuple, y: tuple) -> tuple:
    (m1, e1, k1), (m2, e2, k2) = x, y
    if not m2:  # a diagonal factor leaves the translation part as it is
        return m1, e1, k1 + k2
    m, e = _pq_add((m1, e1), _pq_scale(m2, e2, k1, p, q), p * q)
    return m, e, k1 + k2


def _pq_inv(p: int, q: int, x: tuple) -> tuple:
    m, e, k = x
    return _pq_scale(-m, e, -k, p, q) + (-k,)


def _pq_encode(pq: int, x: tuple) -> tuple | None:
    m, e, k = map(index, x)
    if e < 0 or (e > 0 and (m % pq == 0 or pq == 1)) or (m == 0 and e):
        return None
    return m, e, k


def _pq_t_terms(p: int, q: int, e: int, k: int) -> tuple:
    """How (m, e, k) * t^+-1 is formed: m/(pq)^e +- mk/(pq)^ek, with
    mk/(pq)^ek = (p/q)^k normalized, is (m a +- b)/(pq)^E for E = max(e, ek),
    a = (pq)^(E-e) and b = mk (pq)^(E-ek).  When the exponents differ the
    term with the larger one is not divisible by pq and the other is, so
    the sum is canonical; only e = ek > 0 may need dividing down (flag 1)."""
    mk, ek = _pq_scale(1, 0, k, p, q)
    top = max(e, ek)
    pq = p * q
    return pq ** (top - e), mk * pq ** (top - ek), top, int(e == ek > 0)


# the increments of pq's (m, e, k) under s, s^-1, t, t^-1 and of BS's
# (P, n, c) under a, a^-1, t, t^-1 that do not depend on x
_SHIFT_LAST = np.array([[[0, 0, 0, 0]], [[0, 0, 0, 0]], [[1, -1, 0, 0]]],
                      dtype=np.int64)


def _pq_step(p: int, q: int, top: int, rows: np.ndarray,
             radius) -> np.ndarray:
    """s^+-1 moves k; t^+-1 adds +-(p/q)^k to m/(pq)^e, through one table
    of ``_pq_t_terms`` per cell (e, k).

    On B_radius the translation is a sum of at most radius terms
    +-(p/q)^k with |k| <= radius, so |m/(pq)^e| <= radius (hi/lo)^radius
    and e <= radius, with lo <= hi the two of p and q; every numerator
    formed here is at most (radius + 1) hi^(2 radius) in absolute value,
    and the rows stay int64 while that fits (radius <= ``top``)."""
    pq = p * q
    wide = radius is None or radius > top or rows.dtype is _OBJECT
    rows = rows.astype(object) if wide else rows
    lo, hi, at = _offsets(rows[2])
    cells = [_pq_t_terms(p, q, e, k)
             for e in range(int(np.maximum.reduce(rows[1])) + 1)
             for k in range(lo, hi + 1)]
    terms = _table(list(zip(*cells)), wide)  # scale, term, exp, flag
    cell = _index(rows[1]) * (hi - lo + 1) + at
    num = rows[0] * terms[0][cell]
    term = terms[1][cell]
    num = np.concatenate((num + term, num - term))
    exp = np.concatenate((terms[2][cell], terms[2][cell]))
    todo = np.concatenate((terms[3][cell], terms[3][cell])).nonzero()[0]
    while len(todo):  # divide by pq while it divides and e > 0
        todo = todo[num[todo] % pq == 0]
        num[todo] //= pq
        exp[todo] -= 1
        todo = todo[exp[todo] != 0]
    n = rows.shape[1]
    out = rows[:, :, None] + _SHIFT_LAST
    out[0, :, 2], out[0, :, 3] = num[:n], num[n:]
    out[1, :, 2], out[1, :, 3] = exp[:n], exp[n:]
    return out.reshape(3, -1)


def _pq_ops(group: GroupSpec) -> FamilyOps:
    p, q = group.p, group.q
    top = _int64_radius(lambda r: (r + 1) * max(p, q) ** (2 * r))
    rows = Rows(partial(_pq_encode, p * q), _tuples,
                partial(_pq_step, p, q, top))
    return _fixed_ops((0, 0, 0), {"s": (0, 0, 1), "t": (1, 0, 0)},
                      partial(_pq_mul, p, q), partial(_pq_inv, p, q), rows,
                      _last, _z_section)


def _lamp_mul(p: int, x: tuple, y: tuple) -> tuple:
    (f, k), (g, l) = x, y
    return _lamps_mul(f, g, k, p), k + l


def _lamp_inv(p: int, x: tuple) -> tuple:
    f, k = x
    return tuple(sorted((pos - k, (-val) % p) for pos, val in f)), -k


def _zigzag(j: int) -> int:
    """The digit of the lamp at j: 0, 1, 2, 3, ... for j = 0, -1, 1, -2, ..."""
    return 2 * j if j >= 0 else -2 * j - 1


def _unzigzag(z: int) -> int:
    return z // 2 if z % 2 == 0 else -(z + 1) // 2


def _lamp_encode(p: int, x: tuple) -> tuple | None:
    lamps, k = x
    packed, last = 0, None
    for j, val in lamps:
        j, val = index(j), index(val)
        if not 0 < val < p or (last is not None and j <= last):
            return None
        packed += val * p ** _zigzag(j)
        last = j
    return packed, index(k)


def _lamp_decode(p: int, rows: np.ndarray) -> list:
    packed, cursors = rows[0], rows[1].tolist()
    digits, top = 0, int(np.maximum.reduce(packed))
    while p ** digits <= top:
        digits += 1
    where = sorted(range(digits), key=_unzigzag)  # digits by lamp position
    at = [_unzigzag(z) for z in where]
    lit = packed[:, None] // _table([p ** z for z in where],
                                    packed.dtype is _OBJECT) % p
    lamps: list[list] = [[] for _ in cursors]
    row, col = lit.nonzero()
    for i, j, val in zip(row.tolist(), col.tolist(), lit[row, col].tolist()):
        lamps[i].append((at[j], val))
    return [(tuple(f), k) for f, k in zip(lamps, cursors)]


# the increments of (L, k) under a, a^-1, t, t^-1 that do not depend on x
_LAMP_SHIFTS = np.array([[[0, 0, 0, 0]], [[0, 0, 1, -1]]], dtype=np.int64)


def _lamp_step(p: int, top: int, rows: np.ndarray, radius) -> np.ndarray:
    """a^+-1 changes the digit d of the lamp at the cursor k (of weight
    p^z(k)) to (d +- 1) mod p; t^+-1 moves k.  Lamps on B_(radius+1) lie at
    |j| <= radius, so every packed L formed here is below p^(2 radius + 2),
    and the rows stay int64 while that fits (radius <= ``top``)."""
    wide = radius is None or radius > top or rows.dtype is _OBJECT
    rows = rows.astype(object) if wide else rows
    lo, hi, at = _offsets(rows[1])
    weight = _table([p ** _zigzag(j) for j in range(lo, hi + 1)], wide)[at]
    digit = rows[0] // weight % p
    out = rows[:, :, None] + _LAMP_SHIFTS
    out[0, :, 0] += ((digit + 1) % p - digit) * weight
    out[0, :, 1] += ((digit - 1) % p - digit) * weight
    return out.reshape(2, -1)


def _lamplighter_ops(group: GroupSpec) -> FamilyOps:
    p = group.p
    top = _int64_radius(lambda r: p ** (2 * r + 2))
    rows = Rows(partial(_lamp_encode, p), partial(_lamp_decode, p),
                partial(_lamp_step, p, top))
    return _fixed_ops(((), 0), {"a": (((0, 1),), 0), "t": ((), 1)},
                      partial(_lamp_mul, p), partial(_lamp_inv, p), rows,
                      _last, _z_section)


# BS(p,q) arithmetic runs on flat words w = (c0, eps1, c1, ..., epsn, cn),
# the canonical data (c0, ((eps1, c1), ..., (epsn, cn))) spelled out: the
# unconstrained rightmost exponent is always w[-1], a step is one slice and
# one concatenation, and a flat tuple hashes without nested calls.


def _bs_flat(x: tuple) -> tuple:
    c0, tail = x
    return (c0,) + tuple(chain.from_iterable(tail))


def _bs_nested(w: tuple) -> tuple:
    return w[0], tuple(zip(w[1::2], w[2::2]))


def _bs_t_step(eps: int, div: int, mul: int, w: tuple, c: int) -> tuple:
    """w * t^eps a^c for eps = +-1, with (div, mul) = (q, p) for eps = 1
    and (p, q) for eps = -1.  The last exponent b = div m + r of w leaves r
    before t^eps and a^{mul m} after it (a^{div m} t^eps = t^eps a^{mul m}),
    or pinches when r = 0 after a t^-eps; a^c joins the last exponent."""
    m, r = divmod(w[-1], div)
    if r == 0 and len(w) > 1 and w[-2] == -eps:
        # pinch t^-eps a^{div m} t^eps = a^{mul m}
        return w[:-3] + (w[-3] + mul * m + c,)
    return w[:-1] + (r, eps, mul * m + c)


def _bs_mul(p: int, q: int, x: tuple, y: tuple) -> tuple:
    """x * y: the right steps folded over y's word a^c0 t^eps1 a^c1 ..."""
    c0, tail = y
    w = _bs_flat(x)
    w = w[:-1] + (w[-1] + c0,)  # the rightmost exponent is unconstrained
    for eps, c in tail:
        w = (_bs_t_step(1, q, p, w, c) if eps == 1
             else _bs_t_step(-1, p, q, w, c))
    return _bs_nested(w)


def _bs_inv(p: int, q: int, x: tuple) -> tuple:
    """x^-1: the right steps folded over a^-cn t^-epsn ... t^-eps1 a^-c0."""
    c0, tail = x
    exps = [c0] + [c for _, c in tail]
    w = (-exps.pop(),)
    for eps, _ in reversed(tail):
        c = -exps.pop()
        w = (_bs_t_step(1, q, p, w, c) if eps == -1
             else _bs_t_step(-1, p, q, w, c))
    return _bs_nested(w)


def _bs_coset_key(x: tuple) -> tuple:
    """The flat word without its last exponent, which right multiplication
    by a^j leaves as it is: it names the coset, as (P, n) does a row's."""
    return _bs_flat(x)[:-1]


def _bs_encode(p: int, q: int, x: tuple) -> tuple | None:
    """The row (P, n, c) of x, or None unless x is Britton-reduced: each
    exponent before a t-letter in its coset range, and no t^-eps a^0 t^eps
    (digits of exponents out of range would alias: in BS(2,3) both t a^2
    t^-1 and a t t would pack to (5, 2, 0))."""
    c0, tail = x
    packed, c, last = 0, index(c0), 0
    for eps, ci in tail:
        if eps == 1 and 0 <= c < q:
            digit = c
        elif eps == -1 and 0 <= c < p:
            digit = q + c
        else:
            return None
        if c == 0 and eps == -last:
            return None
        packed, c, last = packed * (p + q) + digit, index(ci), eps
    return packed, len(tail), c


def _bs_decode(p: int, q: int, rows: np.ndarray) -> list:
    out = []
    for packed, n, c in zip(*rows.tolist()):
        tail = []
        for _ in range(n):  # the digits from the last, each (eps_i, c_(i-1))
            packed, digit = divmod(packed, p + q)
            eps, before = (1, digit) if digit < q else (-1, digit - q)
            tail.append((eps, c))
            c = before
        tail.reverse()
        out.append((c, tuple(tail)))
    return out


def _bs_step(p: int, q: int, top: int, rows: np.ndarray,
             radius) -> np.ndarray:
    """The Britton steps on rows (P, n, c).  The word a^c0 t^eps1 ... t^epsn
    a^c has the row whose P holds, in base b = p + q, one digit per pair
    (c_(i-1), eps_i): c_(i-1) in [0, q) before t, q + c_(i-1) in [0, p)
    shifted by q before t^-1; the identity is (0, 0, 0).

    a^+-1 moves c.  t^eps, with (div, mul) = (q, p) for t and (p, q) for
    t^-1, writes c = div m + r (a^(div m) t^eps = t^eps a^(mul m)): after a
    t^-eps, whose last digit holds r_last, r = 0 pinches the row to
    (P // b, n - 1, r_last + mul m), and otherwise it grows to
    (P b + digit(r, eps), n + 1, mul m).

    On B_radius, n <= radius, so every P b + digit is below
    b^(radius + 1).  With h = max(p, q), a^+-1 takes |c| to |c| + 1 and
    t^+-1 to at most h(|c| + 1), since |floor(c / div)| <= |c| and
    r_last < h; so |c| <= h + h^2 + ... + h^radius <= radius h^radius on
    B_radius, and mul m is at most radius h^(radius + 1).  Every entry
    formed here is at most (radius + 2) b^(radius + 1) in absolute value,
    and the rows stay int64 while that fits (radius <= ``top``)."""
    wide = radius is None or radius > top or rows.dtype is _OBJECT
    rows = rows.astype(object) if wide else rows
    packed, n, c = rows
    b = p + q
    last = packed % b
    after_t_inverse = last >= q  # and so n > 0
    out = rows[:, :, None] + _SHIFT_LAST
    for j, div, mul, pinches, shift, r_last in (
            (2, q, p, after_t_inverse, 0, last - q),
            (3, p, q, ~after_t_inverse & (n > 0), q, last)):
        m = c // div
        r = c - div * m
        pinch = pinches & (r == 0)
        out[0, :, j] = np.where(pinch, packed // b, packed * b + (r + shift))
        out[1, :, j] = np.where(pinch, n - 1, n + 1)
        out[2, :, j] = np.where(pinch, r_last, 0) + mul * m
    return out.reshape(3, -1)


def _baumslag_solitar_ops(group: GroupSpec) -> FamilyOps:
    p, q = group.p, group.q
    top = _int64_radius(lambda r: (r + 2) * (p + q) ** (r + 1))
    rows = Rows(partial(_bs_encode, p, q), partial(_bs_decode, p, q),
                partial(_bs_step, p, q, top))
    return FamilyOps((0, ()), {"a": (1, ()), "t": (0, ((1, 0),))},
                     partial(_bs_mul, p, q), partial(_bs_inv, p, q),
                     _bs_coset_key, None, rows)


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
    return in_subgroup(family_ops(x.group), x.data)


def in_subgroup(ops: FamilyOps, x: tuple) -> bool:
    """``subgroup_membership`` on canonical data: H is the identity's
    coset."""
    return ops.coset_key(x) == ops.coset_key(ops.identity)


@lru_cache(maxsize=16)
def j2_target(p: int, q: int) -> GroupSpec:
    """The pq(p, q) group that ``embed_j2`` maps BS(p,q) into, and the
    group of ``cut_pq``.

    One spec per (p, q), so that its arithmetic record (and the ball grown
    on it) is built once, not once per embedded element or cut."""
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
