"""Finite possibility spaces and the algebra of gambles and events.

A gamble is an exact-rational payoff vector indexed by the outcomes of
a finite space; an event is a subset of outcomes, convertible to its
0/1 indicator gamble.  On top of these the module provides the lattice
operations (pointwise minimum and maximum), closure of a finite set of
gambles under those operations, comonotonicity, and tabulated maps
between lattices together with the check that they preserve pointwise
minima.

Closure and the closedness test work on one integer view of the
gambles: every coordinate multiplied by the common denominator of all
of them (:mod:`lowerprev.rational`), so that minima, maxima, equality
and the sort order are those of int tuples, and a closure builds each
new gamble once, at the end.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar, Iterable, Iterator, Sequence

from .errors import ClosureBudgetError, DomainError, SpaceMismatchError
from .rational import common_denominator, parse_rational, scaled
from .verdict import Verdict

__all__ = [
    "Space",
    "Gamble",
    "Event",
    "HomomorphismTable",
    "WedgeWitness",
    "meet",
    "join",
    "lattice_closure",
    "is_lattice_closed",
    "is_comonotone",
    "check_wedge_homomorphism",
    "default_closure_budget",
]

BUDGET_ENV_VAR = "LOWERPREV_LATTICE_BUDGET"


def default_closure_budget() -> int:
    """Element budget for lattice closures, overridable via the environment."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return 10_000
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class Space:
    """An ordered, finite set of distinct outcome labels.

    >>> Space(("a", "b", "c")).size
    3
    """

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.labels) == 0:
            raise ValueError("a possibility space needs at least one outcome")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("outcome labels must be distinct")

    @staticmethod
    def make(labels: Iterable[str]) -> "Space":
        return Space(tuple(labels))

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError as exc:
            raise KeyError(f"unknown outcome label {label!r}") from exc

    def outcomes(self) -> range:
        return range(len(self.labels))

    def budgeted_event_count(self) -> int:
        """The number 2^m of events, checked against the closure budget.

        Raises :class:`ClosureBudgetError` when it exceeds
        :func:`default_closure_budget`, so routines over all events
        fail before they build anything that size.
        """
        count = 1 << self.size
        budget = default_closure_budget()
        if count > budget:
            raise ClosureBudgetError(
                f"the {count} events of a {self.size}-outcome space exceed the budget of {budget}"
            )
        return count

    def all_events(self) -> Iterator["Event"]:
        """All 2^m events, in mask order (empty event first, full last).

        The budget is checked when called, before the first event is made.
        """
        return (Event.from_mask(self, mask) for mask in range(self.budgeted_event_count()))


def _require_same_space(a, b) -> None:
    if a.space != b.space:
        raise SpaceMismatchError(f"values live on different spaces: {a.space} vs {b.space}")


@dataclass(frozen=True)
class Gamble:
    """An exact-rational payoff vector over a space's outcomes."""

    space: Space
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.space.size:
            raise ValueError(
                f"gamble has {len(self.values)} values on a space of size {self.space.size}"
            )

    @staticmethod
    def make(space: Space, values: Iterable[Fraction | int | str]) -> "Gamble":
        return Gamble(space, tuple(parse_rational(v) if isinstance(v, str) else Fraction(v)
                                   for v in values))

    @staticmethod
    def constant(space: Space, value: Fraction | int) -> "Gamble":
        return Gamble(space, (Fraction(value),) * space.size)

    def __call__(self, outcome: int | str) -> Fraction:
        if isinstance(outcome, str):
            outcome = self.space.index(outcome)
        return self.values[outcome]

    def __add__(self, other: "Gamble | Fraction | int") -> "Gamble":
        if isinstance(other, Gamble):
            _require_same_space(self, other)
            return Gamble(self.space, tuple(a + b for a, b in zip(self.values, other.values)))
        return Gamble(self.space, tuple(a + Fraction(other) for a in self.values))

    __radd__ = __add__

    def __sub__(self, other: "Gamble | Fraction | int") -> "Gamble":
        return self + (-other if isinstance(other, Gamble) else -Fraction(other))

    def __neg__(self) -> "Gamble":
        return Gamble(self.space, tuple(-a for a in self.values))

    def __mul__(self, scalar: Fraction | int) -> "Gamble":
        return Gamble(self.space, tuple(Fraction(scalar) * a for a in self.values))

    __rmul__ = __mul__

    @property
    def inf(self) -> Fraction:
        return min(self.values)

    @property
    def sup(self) -> Fraction:
        return max(self.values)

    def dominates(self, other: "Gamble") -> bool:
        """Pointwise >= (the lattice order, not the sort order)."""
        _require_same_space(self, other)
        return all(a >= b for a, b in zip(self.values, other.values))

    def is_indicator(self) -> bool:
        return all(v == 0 or v == 1 for v in self.values)

    def as_event(self) -> "Event":
        if not self.is_indicator():
            raise ValueError(f"not a 0/1 gamble: {self.values}")
        return Event(self.space, frozenset(i for i, v in enumerate(self.values) if v == 1))

    def level_set(self, threshold: Fraction) -> "Event":
        """The event on which the gamble pays at least ``threshold``."""
        return Event(self.space, frozenset(i for i, v in enumerate(self.values) if v >= threshold))


@dataclass(frozen=True)
class Event:
    """A subset of outcomes, stored as an index set."""

    space: Space
    members: frozenset[int]

    def __post_init__(self) -> None:
        if any(i < 0 or i >= self.space.size for i in self.members):
            raise ValueError("event members out of range")

    @staticmethod
    def from_labels(space: Space, labels: Iterable[str]) -> "Event":
        return Event(space, frozenset(space.index(lbl) for lbl in labels))

    @staticmethod
    def from_mask(space: Space, mask: int) -> "Event":
        return Event(space, frozenset(i for i in range(space.size) if mask >> i & 1))

    @staticmethod
    def empty(space: Space) -> "Event":
        return Event(space, frozenset())

    @staticmethod
    def full(space: Space) -> "Event":
        return Event(space, frozenset(range(space.size)))

    @property
    def mask(self) -> int:
        return sum(1 << i for i in self.members)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.space.labels[i] for i in sorted(self.members))

    def __and__(self, other: "Event") -> "Event":
        _require_same_space(self, other)
        return Event(self.space, self.members & other.members)

    def __or__(self, other: "Event") -> "Event":
        _require_same_space(self, other)
        return Event(self.space, self.members | other.members)

    def __contains__(self, outcome: int | str) -> bool:
        if isinstance(outcome, str):
            outcome = self.space.index(outcome)
        return outcome in self.members

    def indicator(self) -> Gamble:
        """The 0/1 gamble paying 1 exactly on the event's outcomes.

        >>> s = Space(("a", "b", "c"))
        >>> Event.from_labels(s, ["a"]).indicator().values
        (Fraction(1, 1), Fraction(0, 1), Fraction(0, 1))
        """
        one, zero = Fraction(1), Fraction(0)
        return Gamble(self.space, tuple(one if i in self.members else zero
                                        for i in range(self.space.size)))


def meet(f: Gamble, g: Gamble) -> Gamble:
    """Pointwise minimum."""
    _require_same_space(f, g)
    return Gamble(f.space, tuple(min(a, b) for a, b in zip(f.values, g.values)))


def join(f: Gamble, g: Gamble) -> Gamble:
    """Pointwise maximum."""
    _require_same_space(f, g)
    return Gamble(f.space, tuple(max(a, b) for a, b in zip(f.values, g.values)))


def sort_gambles(gambles: Iterable[Gamble]) -> tuple[Gamble, ...]:
    """Deterministic domain order: ascending by value vector."""
    return tuple(sorted(gambles, key=lambda g: g.values))


def _integer_view(gambles: Sequence[Gamble]) -> list[tuple[int, ...]]:
    """The gambles scaled by the common denominator of their coordinates.

    One tuple of ints per gamble.  The scale is positive, so pointwise
    minima and maxima, equality and the lexicographic order of the
    vectors are those of the gambles.
    """
    scale = common_denominator([x for g in gambles for x in g.values])
    return [tuple(scaled(g.values, scale)) for g in gambles]


def _require_one_space(gambles: Sequence[Gamble], what: str) -> None:
    if any(g.space != gambles[0].space for g in gambles):
        raise SpaceMismatchError(f"{what} live on different spaces")


def lattice_closure(
    generators: Iterable[Gamble], budget: int | None = None
) -> tuple[Gamble, ...]:
    """Smallest set containing the generators and closed under meet and join.

    The closure of finitely many rational vectors is finite (every
    coordinate of every element is drawn from the finite grid of
    generator coordinates) but can be exponential in the number of
    generators, so growth is capped by ``budget`` (default 10,000,
    overridable through ``LOWERPREV_LATTICE_BUDGET``).

    The closure runs on the generators scaled to integer vectors by the
    lcm of their denominators, with pointwise min and max on int
    tuples; a :class:`Gamble` is built once for each element that is
    not a generator, after the closure is complete, from the
    generators' own coordinates.

    >>> s = Space(("a", "b"))
    >>> [g.values for g in lattice_closure([Gamble.make(s, [1, 0]), Gamble.make(s, [0, 1])])]
    [(Fraction(0, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 1)), (Fraction(1, 1), Fraction(0, 1)), (Fraction(1, 1), Fraction(1, 1))]
    """
    if budget is None:
        budget = default_closure_budget()
    gambles = list(generators)
    if not gambles:
        return ()
    _require_one_space(gambles, "closure generators")
    vectors = _integer_view(gambles)
    given = dict(zip(vectors, gambles))
    # min and max pick coordinates, so every coordinate of the closure is
    # a generator's: map each scaled value back to that Fraction
    fraction_of = {}
    for g, v in zip(gambles, vectors):
        fraction_of.update(zip(v, g.values))
    seen = set(given)
    frontier = list(given)
    while frontier:
        fresh: list[tuple[int, ...]] = []
        current = list(seen)
        for a in frontier:
            for b in current:
                low = tuple([x if x < y else y for x, y in zip(a, b)])
                high = tuple([x if x > y else y for x, y in zip(a, b)])
                for c in (low, high):
                    if c not in seen:
                        seen.add(c)
                        fresh.append(c)
                        if len(seen) > budget:
                            raise ClosureBudgetError(
                                f"lattice closure exceeded the budget of {budget} elements"
                            )
        frontier = fresh
    space = gambles[0].space
    return tuple([
        given[v] if v in given else Gamble(space, tuple([fraction_of[x] for x in v]))
        for v in sorted(seen)
    ])


def is_lattice_closed(gambles: Sequence[Gamble]) -> bool:
    """Whether the pointwise min and max of every pair is among the gambles."""
    if not gambles:
        return True
    _require_one_space(gambles, "gambles")
    vectors = _integer_view(gambles)
    present = set(vectors)
    return all(
        tuple([x if x < y else y for x, y in zip(a, b)]) in present
        and tuple([x if x > y else y for x, y in zip(a, b)]) in present
        for a, b in itertools.combinations(vectors, 2)
    )


def is_comonotone(f: Gamble, g: Gamble) -> bool:
    """Whether two gambles never order a pair of outcomes oppositely.

    Equivalent to: no outcome pair with
    ``(f(w1) - f(w2)) * (g(w1) - g(w2)) < 0``.

    >>> s = Space(("a", "b"))
    >>> is_comonotone(Gamble.make(s, [0, 1]), Gamble.make(s, [1, 0]))
    False
    """
    _require_same_space(f, g)
    for i, j in itertools.combinations(range(f.space.size), 2):
        if (f.values[i] - f.values[j]) * (g.values[i] - g.values[j]) < 0:
            return False
    return True


@dataclass(frozen=True)
class WedgeWitness:
    """A pair on which a tabulated map fails to preserve pointwise minima."""

    kind: ClassVar[str] = "wedge_gap"

    f: Gamble
    g: Gamble
    image_of_meet: Gamble
    meet_of_images: Gamble

    def check(self, table: "HomomorphismTable") -> bool:
        return (
            all(h in table for h in (self.f, self.g, meet(self.f, self.g)))
            and table(meet(self.f, self.g)) == self.image_of_meet
            and meet(table(self.f), table(self.g)) == self.meet_of_images
            and self.image_of_meet != self.meet_of_images
        )


@dataclass(frozen=True)
class HomomorphismTable:
    """A finite map between sets of gambles, given by explicit pairs.

    Preservation of the meet operation is checked by
    :func:`check_wedge_homomorphism`, never assumed.
    """

    pairs: tuple[tuple[Gamble, Gamble], ...]
    _index: dict = field(init=False, repr=False, compare=False, hash=False, default=None)

    def __post_init__(self) -> None:
        index = {}
        for src, dst in self.pairs:
            if src.values in index:
                raise ValueError("homomorphism table maps a gamble twice")
            index[src.values] = dst
        object.__setattr__(self, "_index", index)

    @staticmethod
    def tabulate(domain: Iterable[Gamble], func) -> "HomomorphismTable":
        return HomomorphismTable(tuple((g, func(g)) for g in sort_gambles(domain)))

    @property
    def source(self) -> tuple[Gamble, ...]:
        return sort_gambles(src for src, _ in self.pairs)

    @property
    def targets(self) -> tuple[Gamble, ...]:
        return tuple(dst for _, dst in self.pairs)

    def __contains__(self, g: Gamble) -> bool:
        return g.values in self._index

    def __call__(self, g: Gamble) -> Gamble:
        try:
            return self._index[g.values]
        except KeyError as exc:
            raise DomainError(f"gamble {g.values} outside the table's source") from exc


def check_wedge_homomorphism(table: HomomorphismTable) -> Verdict:
    """Does the table satisfy ``r(f ^ g) = r(f) ^ r(g)`` on every source pair?

    The source must contain the meet of every pair of its elements
    (otherwise the left-hand side is not even defined).  A negative
    verdict carries the first violating pair in domain order.
    """
    source = table.source
    for f, g in itertools.combinations(source, 2):
        m = meet(f, g)
        try:
            image_of_meet = table(m)
        except DomainError as exc:
            raise DomainError(
                f"source is not meet-closed: {f.values} ^ {g.values} missing"
            ) from exc
        meet_of_images = meet(table(f), table(g))
        if image_of_meet != meet_of_images:
            return Verdict(False, WedgeWitness(f, g, image_of_meet, meet_of_images))
    return Verdict(True)
