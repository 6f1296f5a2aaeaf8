"""Assessments and positive linear functionals.

An assessment records finitely many lower bounds: a map from gambles
to the exact-rational values a subject is committed to.  When every
domain gamble is an indicator the assessment is a lower probability
(equivalently, a set function).  A mass functional is a nonnegative
mass vector over outcomes; it evaluates gambles linearly and plays the
role of the dominating positive linear functionals, with total mass
one giving the linear previsions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar, Iterable, Iterator, Mapping

from .errors import SpaceMismatchError
from .gambles import Event, Gamble, Space, _integer_view, sort_gambles
from .rational import common_denominator, parse_rational, scaled

__all__ = [
    "Assessment",
    "LatticeTables",
    "MassFunctional",
    "LowerEnvelope",
    "ExactDecomposition",
]


@dataclass(frozen=True)
class LatticeTables:
    """Meet and join of a lattice-closed domain as position tables.

    ``meet[i][j]`` and ``join[i][j]`` are the positions, in the sorted
    domain, of the pointwise minimum and maximum of domain gambles i
    and j.  Since the domain is sorted ascending, ``meet[i][j] <= i``
    and ``join[i][j] >= i``.  The rows are lists: with tuple rows, a
    long run that builds tables for thousands of short-lived assessments
    grew its resident memory about twice as fast per query, although no
    table outlived its assessment.
    """

    meet: list[list[int]]
    join: list[list[int]]


@dataclass(frozen=True)
class Assessment:
    """A finite map from gambles to lower values, on one space.

    Entries are kept sorted by gamble value vector, which fixes the
    "first witness" order everywhere in the library.  An index from
    value vectors to values makes lookups and membership tests O(1).

    >>> s = Space(("a", "b"))
    >>> a = Assessment.of(s, {Gamble.make(s, [1, 0]): "3/10"})
    >>> a.value(Gamble.make(s, [1, 0]))
    Fraction(3, 10)
    """

    space: Space
    entries: tuple[tuple[Gamble, Fraction], ...]
    _index: dict = field(init=False, repr=False, compare=False, hash=False, default=None)

    def __post_init__(self) -> None:
        index = {}
        for gamble, value in self.entries:
            if gamble.space != self.space:
                raise SpaceMismatchError("assessment entry on a different space")
            if gamble.values in index:
                raise ValueError(f"duplicate domain gamble {gamble.values}")
            index[gamble.values] = value
        ordered = tuple(sorted(self.entries, key=lambda e: e[0].values))
        object.__setattr__(self, "entries", ordered)
        object.__setattr__(self, "_index", index)

    @staticmethod
    def of(
        space: Space,
        entries: Mapping[Gamble, Fraction | int | str] | Iterable[tuple[Gamble, Fraction | int | str]],
    ) -> "Assessment":
        if isinstance(entries, Mapping):
            entries = entries.items()
        pairs = tuple(
            (g, parse_rational(v) if isinstance(v, str) else Fraction(v))
            for g, v in entries
        )
        return Assessment(space, pairs)

    @staticmethod
    def on_events(
        space: Space,
        entries: Mapping[Event, Fraction | int | str] | Iterable[tuple[Event, Fraction | int | str]],
    ) -> "Assessment":
        if isinstance(entries, Mapping):
            entries = entries.items()
        return Assessment.of(space, ((e.indicator(), v) for e, v in entries))

    @property
    def domain(self) -> tuple[Gamble, ...]:
        return tuple(g for g, _ in self.entries)

    def value(self, gamble: Gamble) -> Fraction:
        if gamble not in self:
            raise KeyError(f"gamble {gamble.values} not assessed")
        return self._index[gamble.values]

    def __contains__(self, gamble: Gamble) -> bool:
        return gamble.space == self.space and gamble.values in self._index

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[Gamble, Fraction]]:
        return iter(self.entries)

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        """The dataclass hash, computed once: the cached consistency routines
        look an assessment up on every call, and hashing every ``Fraction``
        of every entry each time cost more than their work on power sets."""
        return hash((self.space, self.entries))

    @functools.cached_property
    def by_mask(self) -> dict[int, Fraction] | None:
        """The set-function view: event bit mask -> value.

        None unless every domain gamble is a 0/1 indicator.  Built once
        per assessment and shared by every set-function routine.
        """
        if not all(g.is_indicator() for g, _ in self.entries):
            return None
        return {g.as_event().mask: v for g, v in self.entries}

    @functools.cached_property
    def lattice(self) -> LatticeTables | None:
        """The lattice view: meet and join position tables of the domain.

        None unless the domain is closed under pointwise minimum and
        maximum.  The coordinates are scaled to integers by their
        common denominator, so the tables are built on integer vectors
        once per assessment and shared by every lattice scan.
        """
        vectors = _integer_view([g for g, _ in self.entries])
        index = {v: i for i, v in enumerate(vectors)}
        # conditional comprehensions, as in lattice_closure: faster than map(min, a, b)
        meets = [
            [index.get(tuple([x if x < y else y for x, y in zip(a, b)])) for b in vectors]
            for a in vectors
        ]
        if any(None in row for row in meets):
            return None
        joins = [
            [index.get(tuple([x if x > y else y for x, y in zip(a, b)])) for b in vectors]
            for a in vectors
        ]
        if any(None in row for row in joins):
            return None
        return LatticeTables(meets, joins)

    @functools.cached_property
    def outcome_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """Minus every domain gamble's value, one tuple per outcome.

        Built once per assessment: these are the coefficient rows of the
        dual consistency programs, which every sure-loss, extension and
        norm program on the assessment shares.
        """
        columns = [g.values for g, _ in self.entries]
        return tuple([tuple([-col[w] for col in columns]) for w in range(self.space.size)])

    @property
    def is_full_powerset(self) -> bool:
        """True when the assessment is a set function on all 2^m events."""
        return self.by_mask is not None and len(self.by_mask) == 1 << self.space.size

    def is_lower_probability(self) -> bool:
        """True when every domain gamble is a 0/1 indicator."""
        return self.by_mask is not None

    def scale(self, factor: Fraction) -> "Assessment":
        return Assessment(self.space, tuple((g, factor * v) for g, v in self.entries))


@dataclass(frozen=True)
class MassFunctional:
    """A nonnegative mass vector over outcomes, evaluated linearly.

    Total mass one makes it a linear prevision (a probability charge on
    events); general nonnegative total mass makes it a positive linear
    functional with norm equal to its total mass.  As the witness of a
    positive sure-loss verdict it is checked by :meth:`check`: total
    mass one and dominance on the domain.
    """

    kind: ClassVar[str] = "dominating_mass"

    space: Space = field(metadata={"json": None})
    masses: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.masses) != self.space.size:
            raise ValueError("mass vector length differs from space size")
        if any(m < 0 for m in self.masses):
            raise ValueError("masses must be nonnegative")

    @staticmethod
    def make(space: Space, masses: Iterable[Fraction | int | str]) -> "MassFunctional":
        return MassFunctional(
            space,
            tuple(parse_rational(m) if isinstance(m, str) else Fraction(m) for m in masses),
        )

    @property
    def total_mass(self) -> Fraction:
        return sum(self.masses, Fraction(0))

    @functools.cached_property
    def _integer_masses(self) -> tuple[int, list[int]]:
        """The masses over their least common denominator: ``(denominator, numerators)``."""
        denominator = common_denominator(self.masses)
        return denominator, scaled(self.masses, denominator)

    def __call__(self, gamble: Gamble) -> Fraction:
        """The exact sum of mass times payoff, in integers over one denominator."""
        if gamble.space != self.space:
            raise SpaceMismatchError("gamble and mass functional on different spaces")
        denominator, masses = self._integer_masses
        scale = common_denominator(gamble.values)
        total = sum([m * v for m, v in zip(masses, scaled(gamble.values, scale))])
        return Fraction(total, denominator * scale)

    def dominates(self, assessment: Assessment) -> bool:
        """At least the assessed value on every domain gamble."""
        return all(self(g) >= v for g, v in assessment.entries)

    def check(self, assessment: Assessment) -> bool:
        """A probability mass (total one) dominating the assessment."""
        return self.total_mass == 1 and self.dominates(assessment)

    def event_value(self, event: Event) -> Fraction:
        return sum((self.masses[i] for i in event.members), Fraction(0))

    def as_set_function(self) -> Assessment:
        """The induced assessment on all events of the space."""
        return Assessment.on_events(
            self.space, ((e, self.event_value(e)) for e in self.space.all_events())
        )

    def restrict(self, domain: Iterable[Gamble]) -> Assessment:
        """The induced assessment on a finite set of gambles (duplicates collapse)."""
        unique = {g.values: g for g in domain}.values()
        return Assessment.of(self.space, ((g, self(g)) for g in sort_gambles(unique)))


@dataclass(frozen=True)
class LowerEnvelope:
    """The pointwise minimum of finitely many mass functionals.

    With a common total mass this is an exact functional on all
    gambles, evaluable everywhere without optimization; restricting it
    to a finite domain gives an assessment whose natural extension can
    then be compared against the envelope itself.
    """

    functionals: tuple[MassFunctional, ...]

    def __post_init__(self) -> None:
        if not self.functionals:
            raise ValueError("an envelope needs at least one mass functional")
        total = self.functionals[0].total_mass
        if any(f.total_mass != total for f in self.functionals):
            raise ValueError("envelope members must share one total mass")

    @property
    def space(self) -> Space:
        return self.functionals[0].space

    @property
    def total_mass(self) -> Fraction:
        return self.functionals[0].total_mass

    def __call__(self, gamble: Gamble) -> Fraction:
        return min(f(gamble) for f in self.functionals)

    def restrict(self, domain: Iterable[Gamble]) -> Assessment:
        unique = {g.values: g for g in domain}.values()
        return Assessment.of(self.space, ((g, self(g)) for g in sort_gambles(unique)))


@dataclass(frozen=True)
class ExactDecomposition:
    """An exact assessment written as scale times a coherent lower prevision.

    The scale is the assessment's norm.  When the scale is zero (the
    assessment is identically zero) the coherent part is the vacuous
    lower prevision on the same domain, a canonical but arbitrary
    choice; ``is_unique`` records whether the pair was forced (it is
    exactly when the constant gamble one is assessed and the norm is
    nonzero).
    """

    scale: Fraction
    coherent_part: Assessment
    is_unique: bool
