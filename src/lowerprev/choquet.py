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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

from .assessment import Assessment
from .consistency import exact_value, extension_minimum, norm
from .errors import DomainError
from .gambles import Event, Gamble, is_comonotone
from .rational import common_denominator, scaled
from .verdict import Verdict

__all__ = [
    "DecreasingDistribution",
    "ChoquetResult",
    "AdditivityGap",
    "decreasing_distribution",
    "choquet_integral",
    "is_comonotone_additive",
]

ZERO = Fraction(0)
INF = float("inf")


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


def _monotone_set_function(assessment: Assessment) -> dict[int, Fraction]:
    """The mask table of a monotone set function on the full power set."""
    by_mask = assessment.by_mask
    if by_mask is None:
        raise DomainError("Choquet integration needs a set function on events")
    if not assessment.is_full_powerset:
        raise DomainError("the set function must be defined on all events")
    size = assessment.space.size
    for mask in range(1 << size):
        for i in range(size):
            if not mask >> i & 1 and by_mask[mask] > by_mask[mask | 1 << i]:
                raise DomainError("the set function must be monotone")
    return by_mask


def decreasing_distribution(assessment: Assessment, f: Gamble) -> DecreasingDistribution:
    """Tabulate x -> value({f >= x}) at the distinct values of f.

    >>> from .gambles import Space
    >>> s = Space(("a", "b"))
    >>> unit = Assessment.on_events(s, ((e, Fraction(int(e.size == 2))) for e in s.all_events()))
    >>> decreasing_distribution(unit, Gamble.make(s, [0, 1])).steps
    ((Fraction(0, 1), Fraction(1, 1)), (Fraction(1, 1), Fraction(0, 1)))
    """
    by_mask = _monotone_set_function(assessment)
    steps = []
    for v in sorted(set(f.values)):
        level_set = f.level_set(v)
        steps.append((v, by_mask[level_set.mask]))
    return DecreasingDistribution(tuple(steps))


def _telescope(by_mask: dict[int, Fraction], values: tuple[Fraction, ...]):
    """The telescoping sum of a gamble's values against a mask table.

    Returns the total and one row ``(threshold, level mask, level)`` per
    distinct value in ascending order, where the level mask is the event
    ``{f >= threshold}``.  The thresholds are compared and differenced
    as integers over their common denominator, which divides the total
    once at the end.  The one Choquet sum of the library: it serves
    :func:`choquet_integral` and the certified route of the consistency
    module alike.
    """
    scale = common_denominator(values)
    ints = scaled(values, scale)
    threshold = dict(zip(ints, values))
    total = ZERO
    rows = []
    previous = 0  # the first step is level(full) * inf f
    for v in sorted(threshold):
        mask = sum([1 << i for i, x in enumerate(ints) if x >= v])
        level = by_mask[mask]
        total += (v - previous) * level
        rows.append((threshold[v], mask, level))
        previous = v
    return total / scale, rows


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
        if self.f not in assessment or self.g not in assessment:
            return False
        sum_value = exact_value(assessment, self.f + self.g)
        parts = assessment.value(self.f) + assessment.value(self.g)
        return (
            sum_value == self.sum_value
            and parts == self.parts_total
            and sum_value != parts
        )


def is_comonotone_additive(assessment: Assessment) -> Verdict:
    """Is ``value(f + g) = value(f) + value(g)`` on every comonotone domain pair?

    Sums outside the domain are evaluated through the norm-preserving
    natural extension, which requires the assessment to be exact; the
    verdict's ``info`` records which pairs needed that.  The domain
    must be a lattice.
    """
    if assessment.lattice is None:
        raise DomainError("comonotone additivity needs a lattice-closed domain")
    scale: Fraction | float | None = None
    extended: list[tuple[Gamble, Gamble]] = []
    for f, g in itertools.combinations(assessment.domain, 2):
        if not is_comonotone(f, g):
            continue
        total_gamble = f + g
        if total_gamble in assessment:
            sum_value = assessment.value(total_gamble)
            via_extension = False
        else:
            if scale is None:
                scale = norm(assessment)
                if scale == INF:
                    raise DomainError(
                        f"cannot evaluate the sum of {f.values} and {g.values}: "
                        "the assessment is not exact"
                    )
            sum_value = extension_minimum(assessment, total_gamble, scale)
            via_extension = True
            extended.append((f, g))
        parts = assessment.value(f) + assessment.value(g)
        if sum_value != parts:
            return Verdict(
                False,
                AdditivityGap(f, g, sum_value, parts, via_extension),
                info={"extended_pairs": tuple(extended)},
            )
    return Verdict(True, info={"extended_pairs": tuple(extended)})
