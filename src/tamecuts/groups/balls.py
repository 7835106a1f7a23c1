"""Word-metric balls by breadth-first search over the Cayley graph.

Balls are grown level by level from the identity using the family's standard
symmetric generating set, deduplicating on canonical forms, so recorded
lengths are exact word lengths.  Growth state is memoized per group so that
repeated queries (and queries at increasing radii) reuse earlier levels; a
``Ball`` is a cheap immutable view onto a prefix of that shared state.

The state is the canonical ``data`` tuple of each element with its index
(its BFS discovery position), plus the right Cayley table and BFS parent
pointers, all recorded as the ball grows; lengths are read off the level
boundaries.  Growth multiplies data tuples through the group's
``FamilyOps`` record; ``Element``s are made only when a caller asks for
members.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

from ..errors import BudgetExceededError, ElementNotFoundError, InputError
from .elements import Element, family_ops, generators
from .spec import GroupSpec

DEFAULT_BUDGET = 5_000_000


class _BallGrower:
    """Append-only BFS state for one group; safe to snapshot while growing.

    ``elements`` and ``gens`` hold canonical data tuples, and ``index_of``
    maps data to index.  Element ``i`` (in discovery order) has word length r
    exactly when ``level_end[r-1] <= i < level_end[r]``.  Every product
    computed while growing is kept: ``right[k*i + j]`` is the index of
    ``elements[i] * gens[j]`` for each expanded element (all of
    B_{radius-1}), and ``parent[i]``, ``gen[i]`` name the expanded element
    and generator that first reached element ``i``, so ``elements[i] ==
    elements[parent[i]] * gens[gen[i]]`` spells out a geodesic word.
    """

    def __init__(self, group: GroupSpec):
        self.group = group
        ops = family_ops(group)
        self.mul = ops.mul
        self.gens = tuple(elem.data for _, elem in generators(group))
        self.elements: list[tuple] = [ops.identity]
        self.index_of: dict[tuple, int] = {ops.identity: 0}
        self.level_end: list[int] = [1]  # level_end[r] = #elements of length <= r
        self.right = array("i")
        self.parent = array("i", [-1])
        self.gen = array("b", [-1])
        self.lock = threading.Lock()

    @property
    def radius(self) -> int:
        return len(self.level_end) - 1

    def length(self, i: int) -> int:
        """Word length of the element with index ``i``."""
        return bisect_right(self.level_end, i)

    def grow_to(self, n: int, budget: int = DEFAULT_BUDGET) -> None:
        with self.lock:
            while self.radius < n:
                self._grow_level(budget)

    def _grow_level(self, budget: int) -> None:
        start = self.level_end[-2] if len(self.level_end) >= 2 else 0
        stop = self.level_end[-1]
        elements, index_of, mul = self.elements, self.index_of, self.mul
        claim, record = index_of.setdefault, self.right.append
        add_element, add_parent, add_gen = (
            elements.append, self.parent.append, self.gen.append)
        gens = tuple(enumerate(self.gens))
        n = stop
        try:
            for i in range(start, stop):
                x = elements[i]
                for j, g in gens:
                    y = mul(x, g)
                    idx = claim(y, n)
                    if idx == n:  # y is new
                        if n >= budget:  # fail before memory does
                            del index_of[y]
                            raise BudgetExceededError(
                                f"ball budget {budget} exceeded at radius "
                                f"{self.radius + 1} of {self.group.label()}",
                                radius_reached=self.radius)
                        add_element(y)
                        add_parent(i)
                        add_gen(j)
                        n += 1
                    record(idx)
        except BudgetExceededError:
            for y in elements[stop:]:
                del index_of[y]
            del elements[stop:], self.parent[stop:], self.gen[stop:]
            del self.right[len(self.gens) * start:]
            raise
        self.level_end.append(len(elements))

    def seed_from_cache(self, lengths: list[int], elements: list[tuple]) -> bool:
        """Replace level-0-only state with cached BFS output: canonical data
        tuples in discovery order.  Returns whether the entry was installed.

        The table is rebuilt by replaying the products over every level below
        the top one, which also validates the entry: it is installed only if
        the elements are distinct, start at the identity, every neighbour of
        a non-top element is present, and replaying BFS discovers the
        elements in the stored order with the stored lengths.
        """
        if self.radius != 0:
            raise RuntimeError("only an ungrown state can be seeded")
        if not elements or len(lengths) != len(elements):
            return False
        index_of = {x: i for i, x in enumerate(elements)}
        if (len(index_of) != len(elements) or elements[0] != self.elements[0]
                or lengths[0] != 0):
            return False
        top = max(lengths)
        mul = self.mul
        right, parent, gen = array("i"), array("i", [-1]), array("b", [-1])
        for i, x in enumerate(elements):
            if lengths[i] == top:
                break
            for j, g in enumerate(self.gens):
                idx = index_of.get(mul(x, g))
                if idx is None or idx > len(parent):
                    return False  # neighbour missing, or not in BFS order
                if idx == len(parent):
                    if lengths[idx] != lengths[i] + 1:
                        return False
                    parent.append(i)
                    gen.append(j)
                right.append(idx)
        if len(parent) != len(elements):
            return False  # some element is reached from no level below
        self.elements = list(elements)
        self.index_of = index_of
        self.level_end = [bisect_right(lengths, r) for r in range(top + 1)]
        self.right, self.parent, self.gen = right, parent, gen
        return True


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
        i = self._grower.index_of.get(x.data)
        return i if i is not None and i < len(self) else None

    def __contains__(self, x: Element) -> bool:
        return self._index(x) is not None

    def __iter__(self) -> Iterator[Element]:
        return map(partial(Element, self.group), self.data())

    def data(self) -> Iterator[tuple]:
        """Canonical data tuples of the members, in BFS discovery order."""
        return islice(iter(self._grower.elements), len(self))

    def length(self, x: Element) -> int:
        i = self._index(x)
        if i is None:
            raise ElementNotFoundError(
                f"element not in ball of radius {self.radius}",
                radius_searched=self.radius)
        return self._grower.length(i)

    def boundary(self) -> tuple[Element, ...]:
        """Elements of word length exactly ``radius``."""
        start = self._grower.level_end[self.radius - 1] if self.radius else 0
        stop = self._grower.level_end[self.radius]
        return tuple(map(partial(Element, self.group),
                         self._grower.elements[start:stop]))

    def level_sizes(self) -> tuple[int, ...]:
        """Cumulative ball sizes |B_0|, |B_1|, ..., |B_radius|."""
        return tuple(self._grower.level_end[: self.radius + 1])

    def data_items(self) -> Iterator[tuple[tuple, int]]:
        """(canonical data, word length) pairs in BFS discovery order."""
        elements, level_end = self._grower.elements, self._grower.level_end
        start = 0
        for r in range(self.radius + 1):
            for x in elements[start:level_end[r]]:
                yield x, r
            start = level_end[r]

    def items(self) -> Iterator[tuple[Element, int]]:
        group = self.group
        for x, r in self.data_items():
            yield Element(group, x), r

    def translate_indices(self, support: Sequence[Element],
                          budget: int = DEFAULT_BUDGET) -> np.ndarray:
        """Ball indices of y*x: row s, column i holds the index of
        ``support[s] * x_i`` for the i-th element x_i of this ball.

        No product is formed.  Writing x = parent(x) * gen(x) along its BFS
        word, y*x = (y*parent(x)) * gen(x) is one lookup in the right
        multiplication table, and the parent lies one level lower, so each
        level is one gather over the level below.  The table must cover
        B_{radius + max|y| - 1}, so the shared state grows to
        ``radius + max|y|`` first.
        """
        g = self._grower
        deg = max((word_length(y, self.group, budget=budget) for y in support),
                  default=0)
        g.grow_to(self.radius + deg, budget)
        k, n = len(g.gens), len(self)
        with g.lock:
            covered = g.level_end[self.radius + deg - 1] if self.radius + deg else 0
            right = np.frombuffer(g.right, dtype=np.intc, count=k * covered).copy()
            parent = np.frombuffer(g.parent, dtype=np.intc, count=n).copy()
            gen = np.frombuffer(g.gen, dtype=np.int8, count=n).copy()
            first = [g.index_of[y.data] for y in support]
        out = np.empty((len(support), n), dtype=np.int64)
        out[:, 0] = first
        for r in range(1, self.radius + 1):
            lo, hi = g.level_end[r - 1], g.level_end[r]
            out[:, lo:hi] = right[k * out[:, parent[lo:hi]] + gen[lo:hi]]
        return out


def ball(group: GroupSpec, n: int, cache=None, budget: int = DEFAULT_BUDGET) -> Ball:
    """Ball of radius ``n``; reads/writes the optional persistent cache.

    A cache entry that does not replay is dropped, so the store below
    writes a sound one in its place."""
    if n < 0:
        raise InputError("radius must be nonnegative")
    grower = _get_grower(group)
    if cache is not None and grower.radius == 0 < n:
        pick = cache.best_radius(group, n)
        if pick is not None:
            loaded = cache.load(group, pick)
            with grower.lock:
                if grower.radius == 0:  # no other thread has grown it since
                    if loaded is None or not grower.seed_from_cache(*loaded):
                        cache.discard(group, pick)
    grower.grow_to(n, budget)
    out = Ball(group, n, grower)
    if cache is not None:
        cache.store(group, n, out)
    return out


def word_length(x: Element, group: GroupSpec | None = None, cache=None,
                budget: int = DEFAULT_BUDGET) -> int:
    """Exact word length of ``x``, searching outward as needed."""
    group = group or x.group
    if group is not x.group and group != x.group:
        raise InputError("element does not belong to the given group")
    grower = _get_grower(group)
    while True:
        i = grower.index_of.get(x.data)
        if i is not None:
            return grower.length(i)
        try:
            grower.grow_to(grower.radius + 1, budget)
        except BudgetExceededError as exc:
            raise ElementNotFoundError(
                f"element not found within ball budget {budget} "
                f"(radius searched {exc.radius_reached})",
                radius_searched=exc.radius_reached) from exc


@dataclass(frozen=True)
class CosetSection:
    """Minimal-length coset representatives for the designated subgroup H.

    One representative per coset of H meeting the ball of radius ``radius``;
    each has the minimum word length over its entire coset, ties broken by
    BFS discovery order.
    """

    group: GroupSpec
    radius: int
    representatives: tuple[Element, ...]
    subgroup: str = "kernel"

    def __len__(self) -> int:
        return len(self.representatives)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.representatives)


def coset_section(group: GroupSpec, n: int, cache=None,
                  budget: int = DEFAULT_BUDGET) -> CosetSection:
    bn = ball(group, n, cache=cache, budget=budget)
    key = family_ops(group).coset_key
    seen: set = set()
    reps: list[Element] = []
    for x in bn.data():
        k = key(x)
        if k not in seen:
            seen.add(k)
            reps.append(Element(group, x))
    return CosetSection(group, n, tuple(reps))


def subgroup_ball(bn: Ball) -> list[Element]:
    """Members of the ball lying in the designated subgroup H."""
    in_subgroup = family_ops(bn.group).in_subgroup
    return [Element(bn.group, x) for x in bn.data() if in_subgroup(x)]
