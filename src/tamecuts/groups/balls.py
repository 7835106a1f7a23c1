"""Word-metric balls by breadth-first search over the Cayley graph.

Balls are grown level by level from the identity using the family's standard
symmetric generating set, deduplicating on canonical forms, so recorded
lengths are exact word lengths.  Growth state is memoized per group so that
repeated queries (and queries at increasing radii) reuse earlier levels; a
``Ball`` is a cheap immutable view onto a prefix of that shared state.

Growth is level-synchronous on integer rows (``elements.Rows``): each
element is one fixed-width row of exact integers, and the sphere S_r is one
C-contiguous (width, |S_r|) array of rows, each field one contiguous array.
Every kept level and every ``rows_of`` slice keeps that layout, as every
step output does: otherwise the per-field minima, maxima and key packing
of each level stride across fields, and ``np.minimum.reduce`` over the
fields of a (3, 21000) int64 array took 11.6 us C-ordered against 561 us
column-strided, 48 times as long.  One batch step gives the k|S_r|
candidate rows x*g_j, x-major.  In a Cayley graph with a symmetric
generating set every neighbour of S_r lies in S_{r-1}, S_r or S_{r+1}, so
the candidates are compared with those two spheres only: each row of the
three arrays is packed into one integer key (mixed radix over each field's
range), written into one buffer.  One in-place sort of the int64 words
key << b | position (b the bit length of the last position) groups equal
keys, each group starting at its least position, its first occurrence
(``_first_occurrences``, which also gives the BS coset sections); when a
word could leave int64, an argsort groups them and ``minimum.reduceat``
finds that position.  The new elements are the groups first met among
the candidates (``_new_mask``), kept in candidate order, which is the
discovery order of a plain BFS.  The budget is checked before a level is
kept.  Rows are int64 while the step can prove every entry fits and widen
to dtype=object (Python ints) when not, so nothing wraps; a key whose
mixed radix would leave int64 is a Python int as well.

Growth keeps the rows of each level and the level boundaries, off which
lengths are read: 8 bytes a field (16-32 an element), where a data tuple
and a dict entry took about 229.  Canonical ``data`` tuples are decoded
only when a caller asks for members; the ``ball`` command decodes none
(coset sections outside BS are in closed form, and BS decodes its
representatives only on access).
Below the public API an element is its index in this growth order.
Lookups encode the data and ``searchsorted`` a sorted key array over the
grown ball, built on demand by the same sort of words; data that cannot
be encoded, or lies outside the grown rows' ranges, is not a member.
``_BallGrower.index`` maps data to its index, growing outward: it looks
once in the grown ball and then compares the row with each newly grown
sphere alone, and data that cannot be encoded raises at once, with
nothing grown; ``word_length`` is the length of that index.  Left
translates of a ball by ball indices (``Ball.translate_indices``) are
grown as it was and found by lookups.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain
from typing import Callable, Iterator, NamedTuple

import numpy as np

from ..errors import BudgetExceededError, ElementNotFoundError, InputError
from .elements import _INT64, _OBJECT, Element, family_ops, in_subgroup
from .spec import GroupSpec

DEFAULT_BUDGET = 5_000_000


class _Packing(NamedTuple):
    """A mixed-radix key over rows whose column i lies in [lo[i], hi[i]]:
    the row's offsets from ``lo`` read as the digits of one integer below
    ``size``, the product of the ranges."""

    lo: list
    hi: list
    size: int

    @property
    def dtype(self) -> np.dtype:
        """int64 while every key fits, else object (Python ints)."""
        return _OBJECT if self.size > _INT64 else np.dtype(np.int64)


def _packing(*parts: np.ndarray) -> _Packing:
    """The packing over the rows of all ``parts`` (none empty)."""
    lo = [min(field) for field in zip(*(
        np.minimum.reduce(rows, axis=1).tolist() for rows in parts))]
    hi = [max(field) for field in zip(*(
        np.maximum.reduce(rows, axis=1).tolist() for rows in parts))]
    size = 1
    for a, b in zip(lo, hi):
        size *= b - a + 1
    return _Packing(lo, hi, size)


def _keys(rows: np.ndarray, packing: _Packing,
          out: np.ndarray | None = None) -> np.ndarray:
    """The packed key of each row, whose fields lie in the packing's
    ranges, written into ``out`` when given: Horner's rule over the
    fields, in place, every partial key below the product of the ranges."""
    lo, hi, _ = packing
    if packing.dtype is _OBJECT:
        rows = rows.astype(object)
    if out is None:
        out = np.empty(rows.shape[1], dtype=packing.dtype)
    key = out if rows.dtype == out.dtype else np.empty_like(rows[0])
    np.subtract(rows[0], lo[0], out=key)
    for field, a, b in zip(rows[1:], lo[1:], hi[1:]):
        key *= b - a + 1
        key += field
        key -= a
    if key is not out:
        out[...] = key
    return out


def _sort_keys(keys: np.ndarray,
               size: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """``keys`` (each below ``size``) sorted, their positions in that
    order, and whether equal keys are in ascending position.  One in-place
    sort of the int64 words key << b | position, b the bit length of the
    last position, gives both, ties ascending.  When a word could leave
    int64 (object keys, or ``size`` above 2^(63 - b)), ``keys`` is left as
    it is and an argsort (not stable) gives both."""
    n = len(keys)
    b = max(n - 1, 0).bit_length()
    if keys.dtype is _OBJECT or size > 1 << (63 - b):
        order = keys.argsort()
        return keys[order], order, False
    keys <<= b
    keys |= np.arange(n)
    keys.sort()
    order = keys & ((1 << b) - 1)
    keys >>= b
    return keys, order, True


def _first_occurrences(keys: np.ndarray, size: int) -> np.ndarray:
    """The mask of the first occurrence of each distinct key (each below
    ``size``); ``keys`` may be sorted in place (``_sort_keys``).  Sorted as
    packed words, each group of equal keys starts at its least position,
    its first occurrence; after an argsort, ``minimum.reduceat`` takes each
    group's least position."""
    keys, order, packed = _sort_keys(keys, size)
    starts = np.empty(len(keys), dtype=bool)
    starts[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    if packed:  # a permutation: order[i] is first exactly when starts[i]
        first = np.empty_like(starts)
        first[order] = starts
        return first
    first = np.zeros_like(starts)
    first[np.minimum.reduceat(order, starts.nonzero()[0])] = True
    return first


def _new_mask(cand: np.ndarray, seen: list[np.ndarray]) -> np.ndarray:
    """The mask of the rows of ``cand`` found in no array of ``seen``, each
    at its first occurrence.  The keys of all the arrays, not their rows,
    are written into one buffer.  Gather with ``compress``, which keeps
    rows field-major."""
    parts = (*seen, cand)
    packing = _packing(*parts)
    keys = np.empty(sum(rows.shape[1] for rows in parts), dtype=packing.dtype)
    at = 0
    for rows in parts:
        _keys(rows, packing, keys[at:at + rows.shape[1]])
        at += rows.shape[1]
    return _first_occurrences(keys, packing.size)[at - cand.shape[1]:]


class _Lookup(NamedTuple):
    """Sorted packed keys of the first ``count`` elements, and their
    indices."""

    count: int
    packing: _Packing
    keys: np.ndarray
    order: np.ndarray


class _BallGrower:
    """Append-only BFS state for one group; safe to snapshot while growing.

    ``levels[r]`` holds the rows of the sphere S_r in discovery order, and
    element ``i`` (its index) has word length r exactly when
    ``level_end[r-1] <= i < level_end[r]``.  Growth keeps only these two.
    ``rows`` is the family's codec (``elements.Rows``), whose step
    multiplies by the k generators of ``generators(group)`` on the right.
    ``decoded`` decodes and ``find`` looks up on demand; ``index`` also
    grows until it finds.
    """

    def __init__(self, group: GroupSpec):
        self.group = group
        ops = family_ops(group)
        self.rows = ops.rows
        self.levels = [np.array([[v] for v in self.rows.encode(ops.identity)],
                                dtype=np.int64)]
        self.level_end: list[int] = [1]  # level_end[r] = #elements of length <= r
        self.lock = threading.RLock()
        self._lookup: _Lookup | None = None
        self._kept: list[np.ndarray] = []  # kept(r), for r < len(_kept)

    @property
    def radius(self) -> int:
        return len(self.level_end) - 1

    def length(self, i: int) -> int:
        """Word length of the element with index ``i``."""
        return bisect_right(self.level_end, i)

    def decoded(self, radius: int) -> Iterator[tuple]:
        """Canonical data of B_radius in index order, a level at a time."""
        return chain.from_iterable(map(self.rows.decode,
                                       self.levels[:radius + 1]))

    def rows_of(self, start: int, stop: int) -> np.ndarray:
        """The rows of the elements with indices in [start, stop)."""
        first, last = self.length(start), self.length(max(start, stop - 1))
        base = self.level_end[first - 1] if first else 0
        rows = (self.levels[first] if first == last
                else np.concatenate(self.levels[first:last + 1], axis=1))
        return np.ascontiguousarray(rows[:, start - base:stop - base])

    def grow_to(self, n: int, budget: int = DEFAULT_BUDGET) -> None:
        with self.lock:
            while self.radius < n:
                self._grow_level(budget)

    def _grow_level(self, budget: int) -> None:
        r, stop = self.radius, self.level_end[-1]
        # S_{r+1} is new against S_{r-1} and S_r, the last two levels
        cand = self.rows.step(self.levels[r], r)
        new = cand.compress(_new_mask(cand, self.levels[-2:]), axis=1)
        if stop + new.shape[1] > budget:  # fail before memory does
            raise BudgetExceededError(
                f"ball budget {budget} exceeded at radius {r + 1} of "
                f"{self.group.label()}", radius_reached=r)
        self.levels.append(new)
        self.level_end.append(stop + new.shape[1])

    def kept(self, r: int) -> np.ndarray:
        """The mask of the candidates of S_r (``r < radius``) that growth
        kept as S_{r+1}: recomputed from the stored levels when first
        asked for, not stored at growth, which would cost every ball k
        bytes an element."""
        with self.lock:
            while len(self._kept) <= r:
                s = len(self._kept)
                cand = self.rows.step(self.levels[s], s)
                self._kept.append(
                    _new_mask(cand, self.levels[max(s - 1, 0):s + 1]))
            return self._kept[r]

    def _lookup_over(self, count: int) -> _Lookup:
        """The sorted keys over at least the first ``count`` elements, and
        their indices, both from one sort of packed (key, index) words, or
        from an argsort when those leave int64 (``_sort_keys``)."""
        lookup = self._lookup
        if lookup is None or lookup.count < count:
            with self.lock:
                rows = self.rows_of(0, self.level_end[-1])
                packing = _packing(rows)
                keys, order, _ = _sort_keys(_keys(rows, packing), packing.size)
                lookup = self._lookup = _Lookup(rows.shape[1], packing,
                                                keys, order)
        return lookup

    def row(self, x: tuple) -> tuple | None:
        """The row of canonical data ``x``, or None when x does not encode."""
        try:
            return self.rows.encode(x)
        except (TypeError, ValueError):
            return None

    def find(self, x: tuple) -> int | None:
        """Index of the grown element with canonical data ``x``, or None."""
        return self.find_row(self.row(x))

    def find_row(self, row: tuple | None) -> int | None:
        """Index of the grown element whose row is ``row``, or None."""
        if row is None:
            return None
        lookup = self._lookup_over(self.level_end[-1])
        lo, hi, _ = lookup.packing
        if len(row) != len(lo) or not all(
                a <= v <= b for v, a, b in zip(row, lo, hi)):
            return None
        key = 0
        for v, a, b in zip(row, lo, hi):
            key = key * (b - a + 1) + (v - a)
        i = int(np.searchsorted(lookup.keys, key))
        if i < lookup.count and lookup.keys[i] == key:
            return int(lookup.order[i])
        return None

    def index(self, x: tuple, budget: int = DEFAULT_BUDGET) -> int:
        """Index of the element with canonical data ``x``, growing outward
        as needed: looked up once in the grown ball, then compared with
        each newly grown sphere only, so no lookup is sorted for a ball
        about to grow again.  Data the row codec cannot encode is no
        element, and raises at once with nothing grown."""
        row = self.row(x)
        r = self.radius
        if row is None:
            raise ElementNotFoundError(
                f"{x!r} is not the data of an element of "
                f"{self.group.label()}", radius_searched=r)
        i = self.find_row(row)
        while i is None:
            r += 1
            try:
                self.grow_to(r, budget)
            except BudgetExceededError as exc:
                raise ElementNotFoundError(
                    f"element not found within ball budget {budget} "
                    f"(radius searched {exc.radius_reached})",
                    radius_searched=exc.radius_reached) from exc
            i = self.find_in_level(row, r)
        return i

    def find_in_level(self, row: tuple, r: int) -> int | None:
        """Index of the element of S_r (r >= 1) whose row is ``row``, or
        None: compared field by field with that level's rows alone, with
        no lookup built."""
        level = self.levels[r]
        if len(row) != len(level):
            return None
        at = np.flatnonzero(level[0] == row[0])
        for field, v in zip(level[1:], row[1:]):
            at = at[field.take(at) == v]
        return self.level_end[r - 1] + int(at[0]) if len(at) else None


_growers: dict[GroupSpec, _BallGrower] = {}
_growers_lock = threading.Lock()


def _get_grower(group: GroupSpec) -> _BallGrower:
    with _growers_lock:
        grower = _growers.get(group)
        if grower is None:
            grower = _BallGrower(group)
            _growers[group] = grower
        return grower


@dataclass(frozen=True, eq=False)
class Ball:
    """The set {x : word length <= radius}, with exact per-element lengths."""

    group: GroupSpec
    radius: int
    _grower: _BallGrower = field(repr=False)

    def __len__(self) -> int:
        return self._grower.level_end[self.radius]

    def _index(self, x: Element) -> int | None:
        """Index of ``x`` if it is a member, else None."""
        if x.group is not self.group and x.group != self.group:
            return None
        i = self._grower.find(x.data)
        return i if i is not None and i < len(self) else None

    def __contains__(self, x: Element) -> bool:
        return self._index(x) is not None

    def __iter__(self) -> Iterator[Element]:
        return map(partial(Element, self.group), self.data())

    def data(self) -> Iterator[tuple]:
        """Canonical data tuples of the members, in BFS discovery order."""
        return self._grower.decoded(self.radius)

    def length(self, x: Element) -> int:
        i = self._index(x)
        if i is None:
            raise ElementNotFoundError(
                f"element not in ball of radius {self.radius}",
                radius_searched=self.radius)
        return self._grower.length(i)

    def level_sizes(self) -> tuple[int, ...]:
        """Cumulative ball sizes |B_0|, |B_1|, ..., |B_radius|."""
        return tuple(self._grower.level_end[: self.radius + 1])

    def data_items(self) -> Iterator[tuple[tuple, int]]:
        """(canonical data, word length) pairs in BFS discovery order."""
        g = self._grower
        for r in range(self.radius + 1):
            for x in g.rows.decode(g.levels[r]):
                yield x, r

    def items(self) -> Iterator[tuple[Element, int]]:
        group = self.group
        for x, r in self.data_items():
            yield Element(group, x), r

    def translate_indices(self, support: Sequence[int],
                          budget: int = DEFAULT_BUDGET) -> np.ndarray:
        """Ball indices of y*x: row s, column i holds the index of
        y_s * x_i, where y_s is the element with index ``support[s]`` and
        x_i the i-th element of this ball.

        Left multiplication by y is a Cayley graph automorphism keeping
        every generator label, so a BFS from y meets y*x_i in the order the
        BFS from e meets x_i, keeping the same candidates.  So the rows of
        all the translates of a level are stepped together, centre-major,
        and keep the candidates growth kept there (``_BallGrower.kept``);
        each lies in B_{radius + deg}, deg the length of the largest index
        in ``support``, grown here, and is looked up there by its packed
        key.  An index below 0 or past the grown elements raises
        ``InputError`` before anything grows.
        """
        g, n, m = self._grower, len(self), len(support)
        if not m:
            return np.empty((0, n), dtype=np.int64)
        first = np.asarray(support, dtype=np.int64)
        if first.min() < 0 or first.max() >= g.level_end[-1]:
            raise InputError("support holds an index of no grown element")
        deg = g.length(int(first.max()))
        g.grow_to(self.radius + deg, budget)
        out = np.empty((m, n), dtype=np.int64)
        out[:, 0] = first
        rows = g.rows_of(0, g.level_end[deg]).take(first, axis=1)
        lookup = g._lookup_over(g.level_end[self.radius + deg])
        for r in range(self.radius):
            keep = np.tile(g.kept(r), m)
            rows = g.rows.step(rows, deg + r).compress(keep, axis=1)
            at = np.searchsorted(lookup.keys, _keys(rows, lookup.packing))
            out[:, g.level_end[r]:g.level_end[r + 1]] = lookup.order[
                at.reshape(m, -1)]
        return out


def ball(group: GroupSpec, n: int, budget: int = DEFAULT_BUDGET) -> Ball:
    """Ball of radius ``n``, grown on the group's shared state as far as
    needed."""
    if n < 0:
        raise InputError("radius must be nonnegative")
    grower = _get_grower(group)
    grower.grow_to(n, budget)
    return Ball(group, n, grower)


def word_length(x: Element, group: GroupSpec | None = None,
                budget: int = DEFAULT_BUDGET) -> int:
    """Exact word length of ``x``: the length of its index, searched
    outward as needed (``_BallGrower.index``)."""
    group = group or x.group
    if group is not x.group and group != x.group:
        raise InputError("element does not belong to the given group")
    grower = _get_grower(group)
    return grower.length(grower.index(x.data, budget))


class CosetSection:
    """Minimal-length coset representatives for the designated subgroup H.

    One representative per coset of H meeting the ball of radius ``radius``;
    each has the minimum word length over its entire coset, ties broken by
    BFS discovery order.  The representatives are made on first access;
    their number needs none.
    """

    def __init__(self, group: GroupSpec, radius: int, count: int,
                 members: Callable[[], list]):
        self.group, self.radius = group, radius
        self._count, self._members = count, members

    @cached_property
    def representatives(self) -> tuple[Element, ...]:
        return tuple(map(partial(Element, self.group), self._members()))

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Element]:
        return iter(self.representatives)


def coset_section(group: GroupSpec, n: int,
                  budget: int = DEFAULT_BUDGET) -> CosetSection:
    """The first element of each coset met in BFS order.  Outside BS the
    family gives it in closed form (``FamilyOps.section``), with no ball
    grown.  A BS coset xH is named by the row's (P, n), which right
    multiplication by a^j leaves as it is, so the section is the first
    occurrence of each (P, n) in the ball's rows, decoded on access."""
    if n < 0:
        raise InputError("radius must be nonnegative")
    section = family_ops(group).section
    if section is not None:
        data = section(n)
        return CosetSection(group, n, len(data), data.copy)
    bn = ball(group, n, budget=budget)
    g = bn._grower
    rows = g.rows_of(0, len(bn))
    packing = _packing(rows[:-1])
    keys = _keys(rows[:-1], packing)
    rows = rows.compress(_first_occurrences(keys, packing.size), axis=1)
    return CosetSection(group, n, rows.shape[1], partial(g.rows.decode, rows))


def subgroup_ball(bn: Ball) -> list[Element]:
    """Members of the ball lying in the designated subgroup H."""
    ops = family_ops(bn.group)
    return [Element(bn.group, x) for x in bn.data() if in_subgroup(ops, x)]
