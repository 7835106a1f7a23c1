"""Word-metric balls by breadth-first search over the Cayley graph.

Balls are grown level by level from the identity using the family's standard
symmetric generating set, deduplicating on canonical forms, so recorded
lengths are exact word lengths.  Growth state is memoized per group so that
repeated queries (and queries at increasing radii) reuse earlier levels; a
``Ball`` is a cheap immutable view onto a prefix of that shared state.

Growth records only the canonical ``data`` tuple of each element, its index
(its BFS discovery position) and the level boundaries, off which lengths
are read.  The right Cayley table is built on demand, for
``Ball.translate_indices`` alone, and the BFS parent pointers are read off
it.  Growth only ever multiplies on the right by a generator, so it calls
the closed-form ``right_steps`` of the group's ``FamilyOps`` record on data
tuples, never the general ``mul``; ``Element``s are made only when a caller
asks for members.
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
from .elements import Element, family_ops
from .spec import GroupSpec

DEFAULT_BUDGET = 5_000_000


class _BallGrower:
    """Append-only BFS state for one group; safe to snapshot while growing.

    ``elements`` holds canonical data tuples, and ``index_of`` maps data to
    index.  Element ``i`` (in discovery order) has word length r exactly when
    ``level_end[r-1] <= i < level_end[r]``.  Growth keeps only these three.
    ``steps[j]`` right-multiplies by the j-th generator of
    ``generators(group)``, and there are k of them.  The right Cayley table
    ``right[k*i + j]`` = index of ``steps[j](elements[i])`` is built only
    when ``table`` asks for it, and then only over the levels not yet
    covered.
    """

    def __init__(self, group: GroupSpec):
        self.group = group
        ops = family_ops(group)
        self.steps = ops.right_steps
        self.elements: list[tuple] = [ops.identity]
        self.index_of: dict[tuple, int] = {ops.identity: 0}
        self.level_end: list[int] = [1]  # level_end[r] = #elements of length <= r
        self.right = array("i")
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
        elements, index_of = self.elements, self.index_of
        claim, add = index_of.setdefault, elements.append
        steps = self.steps
        n = stop
        try:
            for x in elements[start:stop]:
                for step in steps:
                    y = step(x)
                    if claim(y, n) == n:  # y is new
                        if n >= budget:  # fail before memory does
                            del index_of[y]
                            raise BudgetExceededError(
                                f"ball budget {budget} exceeded at radius "
                                f"{self.radius + 1} of {self.group.label()}",
                                radius_reached=self.radius)
                        add(y)
                        n += 1
        except BudgetExceededError:
            for y in elements[stop:]:
                del index_of[y]
            del elements[stop:]
            raise
        self.level_end.append(len(elements))

    def table(self, radius: int, budget: int = DEFAULT_BUDGET) -> np.ndarray:
        """A copy of the right Cayley table over B_radius: entry ``k*i + j``
        is the index of ``steps[j](elements[i])``.  Grows to ``radius + 1``
        first, and extends the cached table over the levels it lacks."""
        k = len(self.steps)
        with self.lock:
            while self.radius <= radius:
                self._grow_level(budget)
            covered = self.level_end[radius] if radius >= 0 else 0
            have = len(self.right) // k
            if covered > have:
                index, steps = self.index_of.__getitem__, self.steps
                self.right.fromlist([index(step(x))
                                     for x in self.elements[have:covered]
                                     for step in steps])
            return np.frombuffer(self.right, dtype=np.intc,
                                 count=k * covered).copy()


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
        B_{radius + max|y| - 1}, so it is extended that far (growing the
        shared state to ``radius + max|y|``), and the parents are read off
        its part over B_{radius - 1}.
        """
        g = self._grower
        deg = max((word_length(y, self.group, budget=budget) for y in support),
                  default=0)
        right = g.table(self.radius + deg - 1, budget)
        k, n = len(g.steps), len(self)
        below = g.level_end[self.radius - 1] if self.radius else 0
        parent, gen = _bfs_predecessors(right[:k * below], k)
        out = np.empty((len(support), n), dtype=np.int64)
        out[:, 0] = [g.index_of[y.data] for y in support]
        for r in range(1, self.radius + 1):
            lo, hi = g.level_end[r - 1], g.level_end[r]
            out[:, lo:hi] = right[k * out[:, parent[lo:hi]] + gen[lo:hi]]
        return out


def _bfs_predecessors(right: np.ndarray,
                      k: int) -> tuple[np.ndarray, np.ndarray]:
    """BFS parent pointers of the elements of B_r, read off the right
    Cayley table over B_{r-1}: ``elements[i] ==
    steps[gen[i]](elements[parent[i]])`` spells out a geodesic word, and
    entry 0, the identity, is -1.

    Growth expands the elements in index order, each by the steps in order,
    and numbers each new element one past the last, so the element that
    first reached i sits at the first occurrence of i in the table, and
    that is where the running maximum of the table first reaches i.
    """
    first = np.flatnonzero(np.diff(np.maximum.accumulate(right), prepend=0))
    parent, gen = np.full((2, len(first) + 1), -1, dtype=np.int64)
    parent[1:], gen[1:] = np.divmod(first, k)
    return parent, gen


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

    def __len__(self) -> int:
        return len(self.representatives)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.representatives)


def coset_section(group: GroupSpec, n: int,
                  budget: int = DEFAULT_BUDGET) -> CosetSection:
    bn = ball(group, n, budget=budget)
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
