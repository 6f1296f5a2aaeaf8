"""n-monotonicity of assessments on lattices, and its companions.

An assessment on a lattice-closed domain is n-monotone when every
alternating meet-sum of order up to n is nonnegative: for a base
gamble f and companions f_1 ... f_p (p <= n),

    D(f; f_1 .. f_p) = sum over I of (-1)^|I| * value(f ^ meet of f_i, i in I)  >=  0,

where the empty index set contributes the bare value at f.  Splitting
the index sets on whether they contain p gives the difference
recursion

    D(f; f_1 .. f_p) = D(f; f_1 .. f_(p-1)) - D(f ^ f_p; f_1 .. f_(p-1)),

so the sums of one companion tuple for every base at once cost one
subtraction per base from the sums of its prefix.  The scan walks the
companion tuples of each order in lexicographic order and keeps the
prefix sums, on values scaled to integers by their common denominator
and on meet and join position tables the assessment builds once
(``Assessment.lattice``).  Only tuples of distinct domain elements
are walked: a repeated companion makes the index sets containing it
cancel in pairs, so any multiset tuple reduces to a distinct tuple of
smaller order (the test suite validates this reduction against full
multiset enumeration on small lattices).  For the same reason a base
inside its own tuple sums to zero, and the same reduction bounds the
order that can matter on a finite domain by its size minus one, which
is how the infinite marker is decided on lattices of gambles.

For set functions given on the full power set, complete monotonicity
is decided instead through the inclusion-exclusion inversion: all
coefficients on nonempty events nonnegative.  The inversion is the
fast transform, m * 2^(m-1) subtractions on m outcomes.  A negative
coefficient at an event A converts back into an explicit violating
tuple, namely A as base with the one-element-deleted subsets of A as
companions, whose alternating sum is exactly that coefficient.  Event
lattices below the full power set are first extended by their inner
set function, which preserves n-monotonicity in both directions on the
original domain.

Violations are reported lexicographically first under the domain
ordering (ascending value vectors), so fixtures are deterministic.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar, Iterable

from .assessment import Assessment
from .consistency import conjugate
from .errors import ClosureBudgetError, DomainError
from .gambles import (
    Event,
    Gamble,
    HomomorphismTable,
    Space,
    check_wedge_homomorphism,
    default_closure_budget,
    meet,
    join,
    sort_gambles,
)
from .rational import common_denominator, scaled
from .verdict import Verdict

__all__ = [
    "MonotonicityViolation",
    "MonotonicityReport",
    "MobiusTransform",
    "MinPreservationGap",
    "is_n_monotone",
    "is_n_alternating",
    "inner_set_function",
    "powerset_inner",
    "inner_extension",
    "mobius",
    "is_completely_monotone",
    "compose_homomorphism",
    "vacuous",
    "minimum_table",
    "minimum_preserving_check",
]

ZERO = Fraction(0)
INFINITE = math.inf


@dataclass(frozen=True)
class MonotonicityViolation:
    """A tuple whose alternating sum has the wrong sign.

    ``order`` is p, ``base`` the distinguished first gamble, ``companions``
    the remaining tuple, and ``total`` the offending alternating sum
    (negative for a monotonicity check, positive for an alternation
    check).  ``via_inner`` marks witnesses whose values were read off
    the inner set function rather than the assessment itself.  Reports
    carry ``total`` under the name ``sum``.
    """

    kind: ClassVar[str] = "monotonicity_violation"

    order: int
    base: Gamble
    companions: tuple[Gamble, ...]
    total: Fraction = field(metadata={"json": "sum"})
    alternating: bool = False
    via_inner: bool = False

    def conjugate(self) -> "MonotonicityViolation":
        """The mirrored violation of the conjugate assessment: gambles and
        sum negated, monotonicity and alternation swapped."""
        return dataclasses.replace(
            self,
            base=-self.base,
            companions=tuple(-g for g in self.companions),
            total=-self.total,
            alternating=not self.alternating,
        )

    def check(self, assessment: Assessment) -> bool:
        """The recomputed alternating sum equals ``total`` and has the wrong sign.

        False when a term of the sum lies outside the assessed domain.
        """
        try:
            total = revalidate_violation(assessment, self)
        except KeyError:
            return False
        return total == self.total and (total > 0 if self.alternating else total < 0)


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of an n-monotonicity or n-alternation scan."""

    requested: int | float
    max_verified: int | float
    violation: MonotonicityViolation | None

    @property
    def holds(self) -> bool:
        return self.violation is None

    def __bool__(self) -> bool:
        return self.holds


def _alternating_scan(
    assessment: Assessment, max_order: int, alternating: bool, budget: int | None = None
) -> MonotonicityViolation | None:
    """First violating tuple in (order, base, companions) lexicographic order.

    Values are scaled to integers (and negated for alternation, so a
    violation is always a negative sum).  The companion tuples of each
    order are walked in lexicographic order, and each tuple's sums for
    all bases at once come from its prefix's by the difference
    recursion ``D(b; c) = D(b; c') - D(b op c_p; c')``.  A base inside
    its own tuple sums to exactly zero, so it never needs excluding.
    With a ``budget``, raises :class:`ClosureBudgetError` before an
    order whose tuples would bring the count visited past it.
    """
    lattice = assessment.lattice
    if lattice is None:
        raise DomainError("assessment domain is not lattice-closed")
    table = lattice.join if alternating else lattice.meet
    values = [v for _, v in assessment.entries]
    scale = common_denominator(values)
    sign = -1 if alternating else 1
    values = scaled(values, sign * scale)
    size = len(values)
    visited = 0
    for p in range(1, min(max_order, size - 1) + 1):
        visited += math.comb(size, p)
        if budget is not None and visited > budget:
            raise ClosureBudgetError(
                f"scanning order {p} of a {size}-element lattice brings the companion "
                f"tuples to {visited}, over the budget of {budget}"
            )
        found = None
        limit = size  # only bases below the best violation so far can improve on it
        prefix = [values] + [None] * (p - 1)  # prefix[j]: sums of the first j companions
        last = (-1,) * p
        for combo in itertools.combinations(range(size), p):
            k = 0
            while combo[k] == last[k]:
                k += 1
            for j in range(k, p - 1):  # the prefixes from the first changed position on
                vec = prefix[j]
                prefix[j + 1] = [x - vec[i] for x, i in zip(vec, table[combo[j]])]
            last = combo
            vec = prefix[p - 1]
            row = table[combo[-1]]
            for b in range(limit):
                if vec[b] < vec[row[b]]:
                    found, limit = (combo, vec[b] - vec[row[b]]), b
                    break
            if limit == 0:
                break
        if found is not None:
            combo, total = found
            domain = assessment.domain
            return MonotonicityViolation(
                order=p,
                base=domain[limit],
                companions=tuple(domain[i] for i in combo),
                total=Fraction(sign * total, scale),
                alternating=alternating,
            )
    return None


def _certificate_scan(assessment: Assessment, via_inner: bool) -> MonotonicityViolation | None:
    """Complete-monotonicity certificate on a full power-set set function."""
    for mask, coefficient in mobius(assessment).coefficients:
        if mask and coefficient < 0:
            event = Event.from_mask(assessment.space, mask)
            companions = tuple(
                Event(event.space, event.members - {w}).indicator()
                for w in sorted(event.members)
            )
            return MonotonicityViolation(
                order=event.size,
                base=event.indicator(),
                companions=companions,
                total=coefficient,
                via_inner=via_inner,
            )
    return None


def _check_order(n: int | float) -> None:
    if n != INFINITE and (isinstance(n, bool) or not isinstance(n, int) or n < 1):
        raise ValueError(f"order must be a positive integer or math.inf, got {n!r}")


def is_n_monotone(assessment: Assessment, n: int | float) -> MonotonicityReport:
    """Scan all alternating meet-sums of order up to ``n``.

    The domain must be lattice-closed.  Pass ``math.inf`` for the
    complete-monotonicity marker: on full power-set set functions this
    is decided by the inversion certificate, on smaller event lattices
    containing the empty and full events by the certificate of the
    inner set function, and on lattices of gambles by scanning up to
    the domain size minus one, which the distinct-tuple reduction makes
    exhaustive, so a clean scan verifies every order (``inf``).  That
    scan counts each order's companion tuples (``2**size - 2`` in all)
    before walking them, and raises :class:`ClosureBudgetError` when
    the count passes the closure budget before a violation is found.

    >>> from .gambles import Space
    >>> s = Space(("a", "b"))
    >>> lat = sort_gambles([Gamble.make(s, v) for v in ([0, 0], [1, 0], [0, 1], [1, 1])])
    >>> low = Assessment.of(s, ((g, g.inf) for g in lat))
    >>> is_n_monotone(low, 3).holds
    True
    """
    _check_order(n)
    if not assessment.entries:
        return MonotonicityReport(n, n, None)  # no alternating sum of any order
    if n == INFINITE and assessment.is_lower_probability():
        if assessment.is_full_powerset:
            violation = _certificate_scan(assessment, via_inner=False)
            return MonotonicityReport(n, INFINITE if violation is None else 0, violation)
        masks = assessment.by_mask
        full = (1 << assessment.space.size) - 1
        if 0 in masks and full in masks and assessment.lattice is not None:
            # the inner set function only coincides with (and preserves)
            # a monotone assessment, so order one is scanned first
            violation = _alternating_scan(assessment, 1, alternating=False)
            if violation is not None:
                return MonotonicityReport(n, 0, violation)
            violation = _certificate_scan(powerset_inner(assessment), via_inner=True)
            return MonotonicityReport(n, INFINITE if violation is None else 1, violation)
    cap = len(assessment) - 1 if n == INFINITE else int(n)
    budget = default_closure_budget() if n == INFINITE else None
    violation = _alternating_scan(assessment, cap, alternating=False, budget=budget)
    if violation is not None:
        return MonotonicityReport(n, violation.order - 1, violation)
    return MonotonicityReport(n, n, None)


def is_n_alternating(assessment: Assessment, n: int | float) -> MonotonicityReport:
    """Alternation: mirror scan with joins, sums required nonpositive.

    Agrees with running :func:`is_n_monotone` on the conjugate
    assessment over the negated domain; the direct join form is used so
    witnesses stay inside the input domain.  The order ``inf`` is
    decided on the conjugate, under the same closure budget.
    """
    _check_order(n)
    if n == INFINITE:
        report = is_n_monotone(conjugate(assessment), n)
        violation = None if report.violation is None else report.violation.conjugate()
        return MonotonicityReport(n, report.max_verified, violation)
    violation = _alternating_scan(assessment, int(n), alternating=True)
    if violation is not None:
        return MonotonicityReport(n, violation.order - 1, violation)
    return MonotonicityReport(n, n, None)


def revalidate_violation(assessment: Assessment, violation: MonotonicityViolation) -> Fraction:
    """Recompute a reported alternating sum against the assessment.

    Used by witness verification: the returned value must equal the
    reported total exactly.  Witnesses flagged ``via_inner`` are
    recomputed against the inner set function instead; for alternation
    checks that means the conjugate assessment's inner set function.
    """
    if violation.via_inner and violation.alternating:
        return -revalidate_violation(conjugate(assessment), violation.conjugate())
    source = powerset_inner(assessment) if violation.via_inner else assessment
    combine_op = join if violation.alternating else meet
    p = violation.order
    total = ZERO
    for bits in range(1 << p):
        acc = violation.base
        sign = 1
        for k in range(p):
            if bits >> k & 1:
                acc = combine_op(acc, violation.companions[k])
                sign = -sign
        total += source.value(acc) if sign > 0 else -source.value(acc)
    return total


def inner_set_function(assessment: Assessment, event: Event) -> Fraction:
    """Largest assessed value over domain events inside ``event``.

    The domain must consist of indicators and contain the empty and
    full events, which keeps the supremum finite and over a nonempty
    set.

    >>> from .gambles import Space
    >>> s = Space(("a", "b", "c"))
    >>> dom = [frozenset(), {"a"}, {"a", "b"}, {"a", "b", "c"}]
    >>> lp = Assessment.on_events(s, (
    ...     (Event.from_labels(s, e), v) for e, v in zip(dom, ["0", "1/4", "1/2", "1"])))
    >>> inner_set_function(lp, Event.from_labels(s, ["a", "c"]))
    Fraction(1, 4)
    """
    masks = assessment.by_mask
    if masks is None:
        raise DomainError("inner set function needs an assessment on events")
    full = (1 << assessment.space.size) - 1
    if 0 not in masks or full not in masks:
        raise DomainError("inner set function needs the empty and full events assessed")
    target = event.mask
    return max(v for m, v in masks.items() if m & target == m)


def powerset_inner(assessment: Assessment) -> Assessment:
    """The inner set function tabulated on the full power set."""
    return Assessment.on_events(
        assessment.space,
        ((e, inner_set_function(assessment, e)) for e in assessment.space.all_events()),
    )


def inner_extension(assessment: Assessment, gamble: Gamble) -> Fraction:
    """Largest assessed value over domain gambles dominated by ``gamble``."""
    candidates = [v for g, v in assessment.entries if gamble.dominates(g)]
    if not candidates:
        raise DomainError(
            "no domain gamble lies below the query; assess a small enough constant"
        )
    return max(candidates)


@dataclass(frozen=True)
class MobiusTransform:
    """Inclusion-exclusion inversion of a set function on the power set.

    ``coefficients`` maps an event's bit mask to its coefficient; the
    inverse summation identity ``sum over B subset of A of m(B) =
    value(A)`` holds exactly, see :meth:`reconstruct`.
    """

    space: Space
    coefficients: tuple[tuple[int, Fraction], ...]

    def items(self) -> Iterable[tuple[Event, Fraction]]:
        for mask, value in self.coefficients:
            yield Event.from_mask(self.space, mask), value

    def reconstruct(self, event: Event) -> Fraction:
        target = event.mask
        return sum(
            (v for mask, v in self.coefficients if mask & target == mask), ZERO
        )


def mobius(assessment: Assessment) -> MobiusTransform:
    """Invert a full power-set set function:
    ``m(A) = sum over B subset of A of (-1)^|A minus B| value(B)``.

    Computed by the fast transform (Kennes 1992): for each outcome in
    turn, every event containing it has the value of the event without
    it subtracted, in place.  Raises :class:`ClosureBudgetError` when
    the 2^m events exceed the closure budget.

    >>> from .gambles import Space
    >>> s = Space(("a", "b"))
    >>> uniform = Assessment.on_events(s, (
    ...     (e, Fraction(e.size, 2)) for e in s.all_events()))
    >>> [(e.labels, c) for e, c in mobius(uniform).items()]
    [((), Fraction(0, 1)), (('a',), Fraction(1, 2)), (('b',), Fraction(1, 2)), (('a', 'b'), Fraction(0, 1))]
    """
    if not assessment.is_full_powerset:
        raise DomainError("inversion needs the set function on the full power set")
    count = assessment.space.budgeted_event_count()
    by_mask = assessment.by_mask
    coefficients = [by_mask[mask] for mask in range(count)]
    bit = 1
    while bit < count:
        for mask in range(count):
            if mask & bit:
                coefficients[mask] -= coefficients[mask ^ bit]
        bit <<= 1
    return MobiusTransform(assessment.space, tuple(enumerate(coefficients)))


def is_completely_monotone(assessment: Assessment) -> Verdict:
    """Certificate check: every inversion coefficient nonnegative.

    Requires the full power set with the empty event at zero.  A
    negative verdict carries the violating tuple derived from the
    offending event, whose alternating sum is the negative coefficient
    itself.
    """
    if not assessment.is_full_powerset:
        raise DomainError("complete monotonicity certificate needs the full power set")
    empty = Gamble.constant(assessment.space, 0)
    if assessment.value(empty) != 0:
        raise DomainError("the empty event must be assessed at zero")
    violation = _certificate_scan(assessment, via_inner=False)
    if violation is None:
        return Verdict(True)
    return Verdict(
        False,
        violation,
        info={"event": violation.base.as_event().labels, "coefficient": violation.total},
    )


def compose_homomorphism(assessment: Assessment, table: HomomorphismTable) -> Assessment:
    """The composed assessment ``g -> value(table(g))`` on the table's source.

    The table must preserve meets (checked, with the violating pair in
    the error) and send every source gamble into the assessment's
    domain.
    """
    check = check_wedge_homomorphism(table)
    if not check:
        w = check.witness
        raise DomainError(
            f"table does not preserve meets at the pair {w.f.values}, {w.g.values}"
        )
    for target in table.targets:
        if target not in assessment:
            raise DomainError(f"table image {target.values} outside the assessed domain")
    return Assessment.of(
        assessment.space, ((g, assessment.value(table(g))) for g in table.source)
    )


def vacuous(event: Event, gambles: Iterable[Gamble]) -> Assessment:
    """The vacuous lower prevision relative to a nonempty event,
    tabulated on the requested gambles: each gamble's minimum over the
    event's outcomes.

    >>> from .gambles import Space
    >>> s = Space(("a", "b", "c"))
    >>> v = vacuous(Event.from_labels(s, ["b", "c"]), [Gamble.make(s, [0, 1, 2])])
    >>> v.entries[0][1]
    Fraction(1, 1)
    """
    if event.size == 0:
        raise DomainError("the conditioning event must be nonempty")
    members = sorted(event.members)
    return Assessment.of(
        event.space,
        ((g, min(g.values[i] for i in members)) for g in sort_gambles(gambles)),
    )


def minimum_table(domain: Iterable[Gamble], event: Event) -> HomomorphismTable:
    """Map each gamble to the constant gamble holding its minimum over ``event``.

    This tabulates a meet-preserving map; composing it with any
    monotone assessment of the constants yields the vacuous lower
    prevision relative to the event.
    """
    if event.size == 0:
        raise DomainError("the conditioning event must be nonempty")
    members = sorted(event.members)

    def collapse(g: Gamble) -> Gamble:
        return Gamble.constant(g.space, min(g.values[i] for i in members))

    return HomomorphismTable.tabulate(domain, collapse)


@dataclass(frozen=True)
class MinPreservationGap:
    """A pair on which an assessment fails ``value(f ^ g) = min(values)``."""

    kind: ClassVar[str] = "min_preservation_gap"

    f: Gamble
    g: Gamble
    value_of_meet: Fraction
    min_of_values: Fraction

    def check(self, assessment: Assessment) -> bool:
        return (
            all(h in assessment for h in (self.f, self.g, meet(self.f, self.g)))
            and assessment.value(meet(self.f, self.g)) == self.value_of_meet
            and min(assessment.value(self.f), assessment.value(self.g)) == self.min_of_values
            and self.value_of_meet != self.min_of_values
        )


def minimum_preserving_check(assessment: Assessment) -> Verdict:
    """Does the assessment turn pointwise minima into minima of values?

    A yes verdict certifies complete monotonicity (verified separately
    by :func:`is_n_monotone` in the test suite).
    """
    for f, g in itertools.combinations(assessment.domain, 2):
        meet_fg = meet(f, g)
        if meet_fg not in assessment:
            raise DomainError("assessment domain is not closed under meets")
        value_of_meet = assessment.value(meet_fg)
        floor = min(assessment.value(f), assessment.value(g))
        if value_of_meet != floor:
            return Verdict(False, MinPreservationGap(f, g, value_of_meet, floor))
    return Verdict(True)
