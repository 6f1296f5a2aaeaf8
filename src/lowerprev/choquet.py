"""Choquet integration against set functions on finite spaces.

The decreasing distribution of a gamble f with respect to a set
function is the map x -> value({f >= x}); on a finite space it is an
exact rational step function, so its Riemann integral collapses to a
telescoping sum over the sorted distinct values of f:

    value(full) * inf f  +  sum_j (v_j - v_{j-1}) * value({f >= v_j}).

No numerical quadrature exists anywhere; every quantity is exact.  The
level sets use >= thresholds: at the distinct-value breakpoints the
strict variant would not change the sum.

For 2-monotone exact set functions the integral reproduces the natural
extension, and for exact functionals on linear lattices of gambles
containing the constants, comonotone additivity characterizes
2-monotonicity; both bridges are exercised by the test suite on
finite sub-lattice samples whose structure forces the verdicts.

The sum itself, ``assessment._telescope``, lives beside the inner table
it reads, where ``consistency`` also takes it without importing this
module; sums off a domain are valued by ``consistency.exact_value``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

from .assessment import Assessment, _telescope
from .errors import DomainError, NotExactError
from .gambles import Event, Gamble, is_comonotone
from .verdict import Verdict

__all__ = [
    "DecreasingDistribution",
    "ChoquetResult",
    "AdditivityGap",
    "decreasing_distribution",
    "choquet_integral",
    "is_comonotone_additive",
]


@dataclass(frozen=True)
class DecreasingDistribution:
    """Steps (threshold, level): level = set-function value of {f >= threshold}.

    Thresholds strictly increase, levels never increase; together they
    describe the right-anchored step function on [inf f, sup f].
    """

    steps: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        thresholds = [t for t, _ in self.steps]
        levels = [v for _, v in self.steps]
        if any(a >= b for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError("thresholds must strictly increase")
        if any(a < b for a, b in zip(levels, levels[1:])):
            raise ValueError("levels must be non-increasing; the set function is not monotone")

    def __call__(self, x: Fraction) -> Fraction:
        """Level at x: the value of {f >= x}, for x in [inf f, sup f]."""
        level = self.steps[0][1]
        for threshold, value in self.steps:
            if threshold <= x:
                level = value
            else:
                break
        return level


@dataclass(frozen=True)
class ChoquetResult:
    """An integral value plus the trace it telescopes from.

    The trace rows are (threshold, level event, level value), one per
    distinct gamble value in ascending order; the value recomputes as
    ``level_0 * threshold_0 + sum_j (t_j - t_{j-1}) * level_j``.
    """

    value: Fraction
    trace: tuple[tuple[Fraction, Event, Fraction], ...]

    def recompute(self) -> Fraction:
        total = self.trace[0][2] * self.trace[0][0]
        for (prev, _, _), (threshold, _, level) in zip(self.trace, self.trace[1:]):
            total += (threshold - prev) * level
        return total


def _monotone_set_function(assessment: Assessment) -> list[Fraction]:
    """The mask table of a monotone set function on the full power set:
    one that equals its inner table, a check cached per assessment."""
    if assessment.by_mask is None:
        raise DomainError("Choquet integration needs a set function on events")
    if not assessment.is_full_powerset:
        raise DomainError("the set function must be defined on all events")
    if not assessment.inner_agrees:
        raise DomainError("the set function must be monotone")
    return assessment.inner_table


def decreasing_distribution(assessment: Assessment, f: Gamble) -> DecreasingDistribution:
    """Tabulate x -> value({f >= x}) at the distinct values of f.

    >>> from .gambles import Space
    >>> s = Space(("a", "b"))
    >>> unit = Assessment.on_events(s, ((e, Fraction(int(e.size == 2))) for e in s.all_events()))
    >>> decreasing_distribution(unit, Gamble.make(s, [0, 1])).steps
    ((Fraction(0, 1), Fraction(1, 1)), (Fraction(1, 1), Fraction(0, 1)))
    """
    _, rows = _telescope(_monotone_set_function(assessment), f.values)
    return DecreasingDistribution(tuple([(v, level) for v, _, level in rows]))


def choquet_integral(assessment: Assessment, f: Gamble) -> ChoquetResult:
    """The exact telescoping sum of the decreasing distribution.

    Needs a monotone set function on the full power set with the empty
    event at zero.  For 2-monotone exact set functions the value equals
    the natural extension at ``f``.
    """
    by_mask = _monotone_set_function(assessment)
    if by_mask[0] != 0:
        raise DomainError("the empty event must carry value zero")
    total, rows = _telescope(by_mask, f.values)
    space = assessment.space
    trace = tuple([(v, Event.from_mask(space, mask), level) for v, mask, level in rows])
    return ChoquetResult(total, trace)


@dataclass(frozen=True)
class AdditivityGap:
    """A comonotone pair whose sum is valued away from the sum of values."""

    kind: ClassVar[str] = "additivity_gap"

    f: Gamble
    g: Gamble
    sum_value: Fraction
    parts_total: Fraction
    via_extension: bool

    def check(self, assessment: Assessment) -> bool:
        # loaded on demand: start-up of the choquet command never loads the programs
        from .consistency import exact_value

        if self.f not in assessment or self.g not in assessment:
            return False
        try:
            sum_value = exact_value(assessment, self.f + self.g)
        except NotExactError:
            return False
        parts = assessment.value(self.f) + assessment.value(self.g)
        return (
            sum_value == self.sum_value
            and parts == self.parts_total
            and sum_value != parts
        )


def is_comonotone_additive(assessment: Assessment) -> Verdict:
    """Is ``value(f + g) = value(f) + value(g)`` on every comonotone domain pair?

    Sums outside the domain are valued by ``consistency.exact_value``,
    the norm-preserving natural extension, which requires the
    assessment to be exact; the verdict's ``info`` records which pairs
    needed that.  The domain must be a lattice.
    """
    # loaded on demand: start-up of the choquet command never loads the programs
    from .consistency import exact_value

    if assessment.lattice is None:
        raise DomainError("comonotone additivity needs a lattice-closed domain")
    extended: list[tuple[Gamble, Gamble]] = []
    for f, g in itertools.combinations(assessment.domain, 2):
        if not is_comonotone(f, g):
            continue
        total_gamble = f + g
        via_extension = total_gamble not in assessment
        if via_extension:
            extended.append((f, g))
        try:
            sum_value = exact_value(assessment, total_gamble)
        except NotExactError:
            raise DomainError(
                f"cannot evaluate the sum of {f.values} and {g.values}: "
                "the assessment is not exact"
            ) from None
        parts = assessment.value(f) + assessment.value(g)
        if sum_value != parts:
            return Verdict(
                False,
                AdditivityGap(f, g, sum_value, parts, via_extension),
                info={"extended_pairs": tuple(extended)},
            )
    return Verdict(True, info={"extended_pairs": tuple(extended)})
