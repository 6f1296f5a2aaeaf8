"""Witness re-checks by substitution, independent of the library's own checkers.

Each function takes the assessment's values only (plus the witness) and
reports through a :class:`harness.Checker`, so a wrong verdict is counted
as a failed query instead of stopping the run.
"""

from __future__ import annotations

from fractions import Fraction

from harness import Checker

ZERO = Fraction(0)


def values_of(assessment) -> dict[tuple, Fraction]:
    return {g.values: v for g, v in assessment.entries}


def dominates(mass, assessment, total: Fraction) -> bool:
    """A mass vector of the given total that is above every assessed value."""
    if mass.total_mass != total or any(m < 0 for m in mass.masses):
        return False
    return all(dot(mass.masses, g.values) >= v for g, v in assessment.entries)


def dot(masses, values) -> Fraction:
    return sum((m * x for m, x in zip(masses, values)), ZERO)


def sure_loss(ck: Checker, assessment, witness) -> None:
    """``sup(sum_i k_i f_i) < sum_i k_i l(f_i)``, recomputed from the values."""
    values = values_of(assessment)
    width = assessment.space.size
    combined = [ZERO] * width
    assessed = ZERO
    for gamble, k in zip(witness.gambles, witness.multiplicities):
        if k <= 0 or gamble.values not in values:
            ck.expect(False, "sure-loss witness names a non-domain gamble or a nonpositive count")
            return
        combined = [c + k * x for c, x in zip(combined, gamble.values)]
        assessed += k * values[gamble.values]
    sup = max(combined)
    ck.expect(
        sup == witness.sup_combination and assessed == witness.assessed_total and sup < assessed,
        "sure-loss witness does not re-check",
    )


def coherence_gap(ck: Checker, assessment, gap, mass=None) -> None:
    """Assessed value matches, the extension is above it, and below any dominating mass."""
    values = values_of(assessment)
    ok = values.get(gap.gamble.values) == gap.assessed and gap.extension > gap.assessed
    if mass is not None:
        ok = ok and gap.extension <= dot(mass.masses, gap.gamble.values)
    ck.expect(ok, "coherence gap does not re-check")


def inner_value(values: dict[tuple, Fraction], target: tuple) -> Fraction:
    """Largest assessed value among domain events inside the target event."""
    return max(v for g, v in values.items() if all(a <= b for a, b in zip(g, target)))


def alternating_sum(ck: Checker, assessment, violation) -> None:
    """Recompute a monotonicity violation's alternating meet (or join) sum."""
    values = values_of(assessment)
    pick = max if violation.alternating else min
    companions = [g.values for g in violation.companions]
    total = ZERO
    for bits in range(1 << len(companions)):
        acc = violation.base.values
        sign = 1
        for k, comp in enumerate(companions):
            if bits >> k & 1:
                acc = tuple(pick(a, b) for a, b in zip(acc, comp))
                sign = -sign
        if acc not in values:
            ck.expect(False, "violation leaves the domain")
            return
        total += sign * values[acc]
    bad = total > 0 if violation.alternating else total < 0
    ck.expect(total == violation.total and bad, "alternating sum does not re-check")


def attaining(ck: Checker, assessment, mass, scale, f, g, targets) -> None:
    """Total mass, dominance and both targets of an attaining functional."""
    ok = dominates(mass, assessment, scale)
    ok = ok and dot(mass.masses, f.values) == targets[0]
    ok = ok and dot(mass.masses, g.values) == targets[1]
    ck.expect(ok, "attaining functional does not re-check")


def mobius_identity(ck: Checker, assessment, transform) -> dict[int, Fraction]:
    """``sum over B subset of A of m(B) = value(A)`` on every event; returns m by mask."""
    coefficients = dict(transform.coefficients)
    by_mask = {g.as_event().mask: v for g, v in assessment.entries}
    for mask, value in by_mask.items():
        total = ZERO
        sub = mask
        while True:
            total += coefficients[sub]
            if sub == 0:
                break
            sub = (sub - 1) & mask
        if total != value:
            ck.expect(False, "Mobius coefficients do not sum back to the set function")
            break
    return coefficients


def choquet_by_mobius(coefficients: dict[int, Fraction], gamble) -> Fraction:
    """Choquet integral as ``sum_A m(A) * min over A of f``, valid for any capacity."""
    total = ZERO
    for mask, m in coefficients.items():
        if mask and m:
            total += m * min(x for i, x in enumerate(gamble.values) if mask >> i & 1)
    return total
