"""Consistency of assessments: sure loss, coherence, exactness, extension.

The questions are posed over the mass functionals dominating an
assessment:

* an assessment avoids sure loss iff some probability mass (total mass
  one) dominates it on its domain;
* its natural extension at a gamble is the exact minimum of the
  dominating masses' values there;
* it is coherent iff that minimum gives back the assessed value on
  every domain gamble;
* it is exact iff it is a nonnegative multiple of a coherent
  assessment, and its norm is the least such multiple.

Two routes answer them.  A set function on a lattice of events that
holds the empty and full events, assesses the empty event at zero and
is 2-monotone is exact with norm ``P(full)``, and its natural extension
at that total is the Choquet integral of its inner set function (de
Cooman, Troffaes & Miranda 2008; Denneberg 1994, ch. 6).  Such an
assessment is certified once and cached: on the full power set by the
local test of monotonicity and supermodularity on neighbouring events
(Topkis 1998, ch. 2), on a smaller lattice by the order-two scan.  The
certificate decides ``norm``, ``is_exact`` and ``decompose``, a
positive ``is_coherent`` when ``P(full) = 1``, and the natural
extensions at total ``P(full)`` without a program.  Every other
question, and every negative verdict with its witness, reduces to
exact-rational linear programs.

On the program route the norm is computed by interval intersection:
for every domain gamble ``f0`` the achievable total masses of
dominators pinned to ``f0``'s assessed value form an interval
``[l(f0), u(f0)]``; the assessment is exact iff every interval is
nonempty and they all intersect, and the norm is then
``max_f0 l(f0)``.  Feasibility of the norm itself and
minimality of any feasible scale both follow from the decomposition of
exact functionals into scale times coherent part, which is also what
:func:`decompose` returns.  The definitional closed-form norm for
single-gamble domains, used as an independent oracle in the test
suite, agrees on all calibration instances.

Every program is solved in its dual form, with one row per outcome
however many gambles are assessed (Walley 1991, section 3.1): maximise
``t*alpha + sum_i lambda_i l(f_i) + sum_k mu_k v_k`` subject to
``alpha + sum_i lambda_i f_i(w) + sum_k mu_k h_k(w) <= g(w)`` for every
outcome ``w``, with ``lambda >= 0`` and ``alpha``, ``mu`` free, where
``t`` is the required total mass, ``g`` the gamble being minimised and
``h_k`` the pinned gambles with values ``v_k``.  The dominating mass
functional is read off the row duals of an optimum, so a positive
sure-loss verdict and an attaining functional are the duals of the
corresponding program.  Shifting ``alpha`` by ``min g`` makes every
right-hand side nonnegative, so the simplex starts from the origin and
skips phase one on all programs but the upper end of an attainment
interval.

Negative verdicts carry witnesses: a sure-loss combination of domain
gambles with integer multiplicities, read off the ray along which the
dual of the dominance program is unbounded and re-verified by
substitution; a domain gamble whose natural extension exceeds its
assessed value; a domain gamble whose pinned program is infeasible; or
the pair of gambles whose total-mass intervals fail to intersect.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Iterable

from . import simplex
from .assessment import Assessment, ExactDecomposition, MassFunctional
from .errors import InfeasibleTotalError, NotExactError, SureLossError
from .gambles import Gamble
from .rational import common_denominator, scaled
from .simplex import Constraint, LinearProgram, LPOutcome, LPStatus, Relation
from .verdict import Verdict

__all__ = [
    "SureLossWitness",
    "CoherenceGap",
    "UnattainableGamble",
    "NormIntervalGap",
    "avoids_sure_loss",
    "natural_extension_prevision",
    "is_coherent",
    "norm",
    "is_exact",
    "extension_minimum",
    "natural_extension_exact",
    "decompose",
    "conjugate",
    "find_attaining",
    "vacuous_value",
]

ZERO = Fraction(0)
ONE = Fraction(1)
MINUS_ONE = Fraction(-1)
INF = math.inf


@dataclass(frozen=True)
class SureLossWitness:
    """Domain gambles and positive integer multiplicities with
    ``sup(sum_i m_i f_i) < sum_i m_i l(f_i)``."""

    kind: ClassVar[str] = "sure_loss_combination"

    gambles: tuple[Gamble, ...]
    multiplicities: tuple[int, ...]
    sup_combination: Fraction
    assessed_total: Fraction

    @staticmethod
    def of(
        assessment: Assessment, gambles: Iterable[Gamble], multiplicities: Iterable[int]
    ) -> "SureLossWitness":
        """The combination with its supremum and assessed total worked out."""
        gambles, multiplicities = tuple(gambles), tuple(multiplicities)
        combination = sum(
            (g * k for g, k in zip(gambles, multiplicities)),
            Gamble.constant(assessment.space, 0),
        )
        assessed = sum(
            (assessment.value(g) * k for g, k in zip(gambles, multiplicities)), ZERO
        )
        return SureLossWitness(gambles, multiplicities, combination.sup, assessed)

    def check(self, assessment: Assessment) -> bool:
        return (
            all(g in assessment for g in self.gambles)
            and self == SureLossWitness.of(assessment, self.gambles, self.multiplicities)
            and self.sup_combination < self.assessed_total
        )


@dataclass(frozen=True)
class CoherenceGap:
    """A domain gamble assessed strictly below its natural extension."""

    kind: ClassVar[str] = "coherence_gap"

    gamble: Gamble
    assessed: Fraction
    extension: Fraction

    def check(self, assessment: Assessment) -> bool:
        return (
            self.gamble in assessment
            and assessment.value(self.gamble) == self.assessed
            and self.extension != self.assessed
            and natural_extension_prevision(assessment, self.gamble) == self.extension
        )


@dataclass(frozen=True)
class UnattainableGamble:
    """A domain gamble no dominating mass functional can attain."""

    kind: ClassVar[str] = "unattainable_gamble"

    gamble: Gamble

    def check(self, assessment: Assessment) -> bool:
        if self.gamble not in assessment:
            return False
        value = assessment.value(self.gamble)
        return _attainment_interval(assessment, self.gamble, value) is None


@dataclass(frozen=True)
class NormIntervalGap:
    """Two domain gambles whose total-mass intervals do not meet."""

    kind: ClassVar[str] = "norm_interval_gap"

    lower_gamble: Gamble
    lower: Fraction
    upper_gamble: Gamble
    upper: Fraction

    def check(self, assessment: Assessment) -> bool:
        if self.lower_gamble not in assessment or self.upper_gamble not in assessment:
            return False
        low, high = (
            _attainment_interval(assessment, g, assessment.value(g))
            for g in (self.lower_gamble, self.upper_gamble)
        )
        return (
            low is not None
            and high is not None
            and low[0] == self.lower
            and high[1] == self.upper
            and self.lower > self.upper
        )


def _dual_program(
    assessment: Assessment,
    objective: tuple[Fraction, ...],
    total: Fraction | None,
    pinned: Iterable[tuple[Gamble, Fraction]] = (),
) -> tuple[LPOutcome, Fraction | None]:
    """Minimise ``objective`` over the masses dominating the assessment.

    The masses are nonnegative, have the given total when it is not
    None, and take the pinned values at the pinned gambles.  The program
    is solved in its dual form: one ``>=`` row per outcome, columns
    ``alpha`` (free, present with a total), one ``lambda >= 0`` per domain
    gamble and one free ``mu`` per pinned gamble.  Returns the dual
    outcome and the minimum (None unless the dual is OPTIMAL, whose row
    duals are then a minimising mass).  An UNBOUNDED dual means that no
    mass qualifies; its ray lists ``alpha``, then the ``lambda`` in domain
    order.  With a total, ``alpha`` is shifted by ``min objective`` so
    that the origin is feasible and the dual cannot be INFEASIBLE.
    """
    pinned = tuple(pinned)
    costs = [-value for _, value in assessment.entries] + [-value for _, value in pinned]
    nonnegative = (True,) * len(assessment.entries) + (False,) * len(pinned)
    rows = assessment.outcome_rows
    if pinned:
        rows = [row + tuple([-g.values[w] for g, _ in pinned]) for w, row in enumerate(rows)]
    shift = offset = ZERO
    if total is not None:
        shift = min(objective)
        offset = total * shift
        rows = [(MINUS_ONE,) + row for row in rows]
        costs.insert(0, -total)
        nonnegative = (False,) + nonnegative
    constraints = tuple([
        Constraint(row, Relation.GE, shift - c) for row, c in zip(rows, objective)
    ])
    program = LinearProgram(tuple(costs), constraints, nonnegative)
    outcome = simplex.solve(program)
    if outcome.status is not LPStatus.OPTIMAL:
        return outcome, None
    return outcome, offset - outcome.value


def _locally_two_monotone(by_mask: dict[int, Fraction], size: int) -> bool:
    """Monotone and supermodular, by the local test on the full power set.

    ``P(A | i) >= P(A)`` and ``P(A | i | j) + P(A) >= P(A | i) + P(A | j)``
    for every event A and outcomes i < j outside it, on values scaled to
    integers.  On the Boolean lattice, a product of two-element chains,
    these imply monotonicity and supermodularity on all pairs (Topkis
    1998, ch. 2), which on a lattice are orders one and two of
    n-monotonicity.
    """
    count = 1 << size
    values = [by_mask[mask] for mask in range(count)]
    v = scaled(values, common_denominator(values))
    bits = [1 << i for i in range(size)]
    for mask in range(count):
        low = v[mask]
        free = [b for b in bits if not mask & b]
        for k, bi in enumerate(free):
            up_i = v[mask | bi]
            if up_i < low:
                return False
            for bj in free[k + 1:]:
                if v[mask | bi | bj] + low < up_i + v[mask | bj]:
                    return False
    return True


def _choquet_certificate(assessment: Assessment) -> dict[int, Fraction] | None:
    """The power-set mask table whose Choquet integral is the natural extension.

    Returned when the domain is a lattice of events holding the empty
    and full events, the empty event is assessed at zero and the
    assessment is 2-monotone: such an assessment is exact with norm
    ``P(full)``, and its natural extension at that total is the Choquet
    integral of its inner set function (de Cooman, Troffaes & Miranda
    2008; Denneberg 1994, ch. 6).  The table is ``by_mask`` itself on a
    full power set and the inner set function's otherwise.  None for
    every other assessment, and before any cache lookup when the domain
    holds a gamble that is not an indicator.
    """
    if assessment.by_mask is None:
        return None
    return _certified_table(assessment)


@functools.lru_cache(maxsize=1)
def _certified_table(assessment: Assessment) -> dict[int, Fraction] | None:
    """Cached body of :func:`_choquet_certificate`, like :func:`_norm_analysis`."""
    from .monotone import is_n_monotone, powerset_inner  # monotone imports this module

    by_mask = assessment.by_mask
    size = assessment.space.size
    if by_mask.get(0) != 0 or (1 << size) - 1 not in by_mask:
        return None
    if assessment.is_full_powerset:
        return by_mask if _locally_two_monotone(by_mask, size) else None
    if assessment.lattice is None or not is_n_monotone(assessment, 2).holds:
        return None
    return powerset_inner(assessment).by_mask


def _full_value(table: dict[int, Fraction]) -> Fraction:
    """``P(full)`` from a power-set mask table, whose largest mask is the full event."""
    return table[len(table) - 1]


def _choquet_value(table: dict[int, Fraction], gamble: Gamble) -> Fraction:
    from .choquet import _telescope  # choquet imports this module

    return _telescope(table, gamble.values)[0]


def avoids_sure_loss(assessment: Assessment) -> Verdict:
    """Is some probability mass functional above the assessment?

    A positive verdict carries such a dominating mass functional, the
    row duals of the dominance program.  A negative verdict carries a
    :class:`SureLossWitness`, rebuilt from the ray of the unbounded dual
    program, scaled to integer multiplicities, and re-verified by direct
    substitution.
    """
    m = assessment.space.size
    outcome, _ = _dual_program(assessment, (ZERO,) * m, ONE)
    if outcome.status is LPStatus.OPTIMAL:
        return Verdict(True, MassFunctional(assessment.space, outcome.duals))
    # Column 0 is alpha; columns 1.. align with the entries.
    coefficients = outcome.ray[1:]
    counts = scaled(coefficients, common_denominator(coefficients))
    common = math.gcd(*counts) or 1
    gambles: list[Gamble] = []
    multiplicities: list[int] = []
    for (gamble, _), count in zip(assessment.entries, counts):
        if count > 0:
            gambles.append(gamble)
            multiplicities.append(count // common)
    if gambles:
        witness = SureLossWitness.of(assessment, gambles, multiplicities)
        if witness.check(assessment):
            return Verdict(False, witness)
    # Exact arithmetic should never reach this; stay honest if it does.
    return Verdict(False, None, info={"witness_unavailable": True})


def natural_extension_prevision(assessment: Assessment, gamble: Gamble) -> Fraction:
    """The lower envelope, at ``gamble``, of the dominating linear previsions.

    One linear program: minimize the mass value of ``gamble`` over all
    probability masses dominating the assessment on its domain.  A
    certified 2-monotone event assessment (see
    :func:`_choquet_certificate`) needs none: at ``P(full) = 1`` the value
    is the Choquet integral, and above one no probability dominates.

    >>> from .gambles import Space
    >>> s = Space(("a", "b", "c"))
    >>> f = Gamble.make(s, [0, 1, 2])
    >>> p = Assessment.of(s, {f: 1, Gamble.constant(s, 1): 1})
    >>> natural_extension_prevision(p, Gamble.make(s, [1, 1, 2]))
    Fraction(1, 1)
    """
    table = _choquet_certificate(assessment)
    if table is None or _full_value(table) < 1:
        _, value = _dual_program(assessment, gamble.values, ONE)
    elif _full_value(table) == 1:
        return _choquet_value(table, gamble)
    else:
        value = None  # the full event above one: no probability dominates
    if value is None:
        raise SureLossError("assessment incurs sure loss; no natural extension exists")
    return value


def is_coherent(assessment: Assessment) -> Verdict:
    """Does the assessment coincide with its natural extension on its domain?

    A certified 2-monotone event assessment (see
    :func:`_choquet_certificate`) with the full event at one is coherent
    without a program; every negative verdict comes from the programs.
    """
    table = _choquet_certificate(assessment)
    if table is not None and _full_value(table) == 1:
        return Verdict(True)
    asl = avoids_sure_loss(assessment)
    if not asl:
        return Verdict(False, asl.witness, info={"sure_loss": True})
    for gamble, value in assessment.entries:
        extension = natural_extension_prevision(assessment, gamble)
        if extension != value:
            return Verdict(False, CoherenceGap(gamble, value, extension))
    return Verdict(True)


def _attainment_interval(
    assessment: Assessment, gamble: Gamble, value: Fraction
) -> tuple[Fraction, Fraction | float] | None:
    """Range of total masses of dominators pinned to ``value`` at ``gamble``.

    Returns None when no dominating mass functional attains the value at
    all; the upper end is ``inf`` when the total mass is unbounded.
    """
    m = assessment.space.size
    pin = [(gamble, value)]
    _, low = _dual_program(assessment, (ONE,) * m, None, pin)
    if low is None:
        return None
    # The pinned masses exist, so the dual of the maximum is never
    # unbounded; it is infeasible exactly when the total is unbounded.
    high, least = _dual_program(assessment, (-ONE,) * m, None, pin)
    upper: Fraction | float = INF if high.status is LPStatus.INFEASIBLE else -least
    return low, upper


@functools.lru_cache(maxsize=1)
def _norm_analysis(assessment: Assessment):
    """Shared engine behind :func:`norm` and :func:`is_exact`.

    Cached: assessments are immutable and the callers that chain norm,
    extension and attainment queries keep hitting the same one.  One
    entry is enough for those chains and keeps no older assessment
    (with its index and mask table) alive.  A certified 2-monotone event
    assessment is exact with norm ``P(full)`` and needs no program.
    """
    table = _choquet_certificate(assessment)
    if table is not None:
        return "exact", _full_value(table)
    best_low: tuple[Fraction, Gamble] | None = None
    best_high: tuple[Fraction | float, Gamble] | None = None
    for gamble, value in assessment.entries:
        interval = _attainment_interval(assessment, gamble, value)
        if interval is None:
            return "unattainable", UnattainableGamble(gamble)
        low, high = interval
        if best_low is None or low > best_low[0]:
            best_low = (low, gamble)
        if best_high is None or high < best_high[0]:
            best_high = (high, gamble)
    if best_low is None:
        return "exact", ZERO
    if best_low[0] > best_high[0]:
        return "gap", NormIntervalGap(
            best_low[1], best_low[0], best_high[1], best_high[0]
        )
    return "exact", best_low[0]


def norm(assessment: Assessment) -> Fraction | float:
    """The least scale at which the assessment is a coherent multiple.

    Returns ``inf`` exactly when the assessment is not exact.  When the
    constant gamble one is assessed and the assessment is exact, the
    norm equals that assessed value.
    """
    kind, payload = _norm_analysis(assessment)
    return payload if kind == "exact" else INF


def is_exact(assessment: Assessment) -> Verdict:
    """Can the assessment be extended to an exact functional on all gambles?

    Equivalent to the norm being finite.  A positive verdict carries the
    norm in ``info``.  A certified 2-monotone event assessment (see
    :func:`_choquet_certificate`) is exact with norm ``P(full)`` without
    a program; every other assessment, and every negative verdict with
    its witness, goes through the norm programs.
    """
    kind, payload = _norm_analysis(assessment)
    if kind == "exact":
        return Verdict(True, info={"norm": payload})
    return Verdict(False, payload)


def extension_minimum(assessment: Assessment, gamble: Gamble, total: Fraction) -> Fraction:
    """Envelope minimum at ``gamble`` over dominators of a given total mass.

    Callers that already know the norm use this to avoid recomputing
    it; :func:`natural_extension_exact` is the checked entry point.
    Raises :class:`InfeasibleTotalError` when no dominating mass
    functional has that total, for instance below the norm.  At the
    total ``P(full)`` of a certified 2-monotone event assessment the
    minimum is the Choquet integral, found without a program.
    """
    table = _choquet_certificate(assessment)
    if table is not None and total == _full_value(table):
        return _choquet_value(table, gamble)
    _, value = _dual_program(assessment, gamble.values, total)
    if value is None:
        raise InfeasibleTotalError(
            f"no mass functional of total {total} dominates the assessment"
        )
    return value


def natural_extension_exact(assessment: Assessment, gamble: Gamble) -> Fraction:
    """Smallest exact, norm-preserving extension, evaluated at ``gamble``.

    The minimum of the mass values at ``gamble`` over the mass
    functionals that dominate the assessment and whose total mass
    equals the norm.  Scaling commutes: this equals the norm times the
    natural extension of the decomposed coherent part.  On a certified
    2-monotone event assessment it is the Choquet integral, here
    ``2 * 1 + (3 - 1) * P({b})``:

    >>> from .gambles import Event, Space
    >>> s = Space(("a", "b"))
    >>> values = {(): 0, ("a",): "1/2", ("b",): 0, ("a", "b"): 2}
    >>> p = Assessment.on_events(s, {Event.from_labels(s, k): v for k, v in values.items()})
    >>> natural_extension_exact(p, Gamble.make(s, [1, 3]))
    Fraction(2, 1)
    """
    scale = norm(assessment)
    if scale == INF:
        raise NotExactError("assessment is not exact; no natural extension exists")
    return extension_minimum(assessment, gamble, scale)


def exact_value(assessment: Assessment, gamble: Gamble) -> Fraction:
    """The assessed value of a domain gamble, else :func:`natural_extension_exact`."""
    if gamble in assessment:
        return assessment.value(gamble)
    return natural_extension_exact(assessment, gamble)


def vacuous_value(gamble: Gamble) -> Fraction:
    """Infimum of a gamble, the vacuous lower prevision's value."""
    return gamble.inf


def decompose(assessment: Assessment) -> ExactDecomposition:
    """Write an exact assessment as norm times a coherent assessment.

    At norm zero the assessment is identically zero and the coherent
    part is chosen vacuous on the same domain.  The decomposition is
    flagged unique exactly when the constant gamble one is assessed and
    the norm is nonzero.
    """
    scale = norm(assessment)
    if scale == INF:
        raise NotExactError("assessment is not exact; nothing to decompose")
    one = Gamble.constant(assessment.space, 1)
    if scale == 0:
        coherent = Assessment.of(
            assessment.space, ((g, vacuous_value(g)) for g in assessment.domain)
        )
        return ExactDecomposition(ZERO, coherent, is_unique=False)
    coherent = assessment.scale(ONE / scale)
    return ExactDecomposition(scale, coherent, is_unique=one in assessment)


def conjugate(assessment: Assessment) -> Assessment:
    """The conjugate assessment: domain negated, values negated.

    An involution; on a linear prevision's restriction it returns the
    restriction to the negated domain.
    """
    return Assessment(
        assessment.space, tuple((-g, -v) for g, v in assessment.entries)
    )


def find_attaining(
    assessment: Assessment, f: Gamble, g: Gamble
) -> MassFunctional | None:
    """A dominating mass functional of norm total mass attaining both targets.

    The targets are the assessed values when the gambles are in the
    domain, and natural-extension values otherwise.  Returns None when
    no such functional exists (a single feasibility program, whose row
    duals are the functional).
    """
    scale = norm(assessment)
    if scale == INF:
        raise NotExactError("assessment is not exact")
    targets = [(q, exact_value(assessment, q)) for q in (f, g)]
    m = assessment.space.size
    outcome, _ = _dual_program(assessment, (ZERO,) * m, scale, targets)
    if outcome.status is not LPStatus.OPTIMAL:
        return None
    return MassFunctional(assessment.space, outcome.duals)
