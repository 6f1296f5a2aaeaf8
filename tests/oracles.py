"""Independent oracles the module tests check the library against.

Nothing here calls the code paths under test: linear programs are
solved by exhaustive vertex enumeration over square subsystems with
Gaussian elimination, the single-gamble norm comes from the closed
form of the two-parameter case analysis, n-monotonicity is re-decided
by full multiset enumeration and by the ordered scan that sums all 2^p
terms of every distinct tuple, and the inversion of a set function is
the subset-loop definition.  The library's integer simplex is compared
with the same two-phase simplex on a ``Fraction`` tableau, and its
integer lattice closure with the closure under ``Fraction`` meets and
joins.

The consistency routes that skip the linear programs on certified
2-monotone event assessments are compared with the program loops alone:
coherence entry by entry, the norm by interval intersection and the
extension at a given total, each posed through the library's one
program formulation (``consistency._dual_program``) and never through
the certificate.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from lowerprev.assessment import Assessment
from lowerprev.consistency import (
    CoherenceGap,
    NormIntervalGap,
    UnattainableGamble,
    _attainment_interval,
    _dual_program,
    avoids_sure_loss,
)
from lowerprev.errors import ClosureBudgetError, SpaceMismatchError
from lowerprev.gambles import Gamble, join, meet, sort_gambles
from lowerprev.monotone import MonotonicityReport, MonotonicityViolation
from lowerprev.simplex import LinearProgram, LPOutcome, LPStatus, Relation
from lowerprev.verdict import Verdict

ZERO = Fraction(0)


def solve_square(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Gaussian elimination with exact pivoting; None when singular."""
    n = len(matrix)
    aug = [row[:] + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            return None
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [a * inv for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def brute_force_lp(lp: LinearProgram) -> tuple[str, Fraction | None]:
    """Minimum by vertex enumeration.

    Sound for programs whose variables are all nonnegative and whose
    feasible set is bounded or infeasible (this covers every dominance
    program in the library): a nonempty pointed polyhedron has a
    vertex, and a bounded objective attains its minimum at one.
    """
    n = len(lp.objective)
    if not all(lp.nonnegative):
        raise ValueError("oracle limited to nonnegative variables")
    inequalities: list[tuple[tuple[Fraction, ...], Fraction]] = []
    equalities: list[tuple[tuple[Fraction, ...], Fraction]] = []
    for row in lp.constraints:
        if row.relation is Relation.GE:
            inequalities.append((row.coeffs, row.rhs))
        else:
            equalities.append((row.coeffs, row.rhs))
    for j in range(n):
        coeffs = tuple(Fraction(int(i == j)) for i in range(n))
        inequalities.append((coeffs, ZERO))

    def feasible(x: list[Fraction]) -> bool:
        if any(v < 0 for v in x):
            return False
        for row in lp.constraints:
            lhs = sum((a * v for a, v in zip(row.coeffs, x)), ZERO)
            if row.relation is Relation.GE and lhs < row.rhs:
                return False
            if row.relation is Relation.EQ and lhs != row.rhs:
                return False
        return True

    best: Fraction | None = None
    pool = equalities + inequalities
    for tight in itertools.combinations(range(len(pool)), n):
        matrix = [list(pool[t][0]) for t in tight]
        rhs = [pool[t][1] for t in tight]
        x = solve_square(matrix, rhs)
        if x is None or not feasible(x):
            continue
        value = sum((c * v for c, v in zip(lp.objective, x)), ZERO)
        if best is None or value < best:
            best = value
    if best is None:
        return "infeasible", None
    return "optimal", best


def definitional_norm_single(f0: Gamble, value: Fraction) -> Fraction | float:
    """Closed form of the norm for a one-gamble assessment.

    Reducing the defining quantification over scalings and shifts of a
    single gamble leaves exactly the scalar conditions
    ``c * inf f0 <= value <= c * sup f0`` with ``c >= 0``; the norm is
    the least such c, infinite when none exists.
    """
    if value == 0:
        return ZERO
    lo, hi = ZERO, None  # feasible c interval [lo, hi]
    bottom, top = f0.inf, f0.sup
    # value <= c * top
    if top > 0:
        lo = max(lo, value / top)
    elif top == 0:
        if value > 0:
            return math.inf
    else:
        hi = value / top if hi is None else min(hi, value / top)
    # c * bottom <= value
    if bottom > 0:
        hi = value / bottom if hi is None else min(hi, value / bottom)
    elif bottom == 0:
        if value < 0:
            return math.inf
    else:
        lo = max(lo, value / bottom)
    if hi is not None and lo > hi:
        return math.inf
    return lo


def fraction_closure(generators: list[Gamble], budget: int = 10_000) -> tuple[Gamble, ...]:
    """Closure under ``Fraction`` meets and joins, grown pair by pair.

    Raises :class:`ClosureBudgetError` with the library's message as
    soon as the set grows past ``budget`` elements.
    """
    if not generators:
        return ()
    space = generators[0].space
    if any(g.space != space for g in generators):
        raise SpaceMismatchError("closure generators live on different spaces")
    seen = {g.values: g for g in generators}
    frontier = list(seen.values())
    while frontier:
        fresh: list[Gamble] = []
        current = list(seen.values())
        for a in frontier:
            for b in current:
                for c in (meet(a, b), join(a, b)):
                    if c.values not in seen:
                        seen[c.values] = c
                        fresh.append(c)
                        if len(seen) > budget:
                            raise ClosureBudgetError(
                                f"lattice closure exceeded the budget of {budget} elements"
                            )
        frontier = fresh
    return sort_gambles(seen.values())


def fraction_is_lattice_closed(gambles: list[Gamble]) -> bool:
    """Every pairwise ``Fraction`` meet and join is among the gambles."""
    values = {g.values for g in gambles}
    return all(
        meet(a, b).values in values and join(a, b).values in values
        for a, b in itertools.combinations(gambles, 2)
    )


def alternating_sum(
    values: dict, base: Gamble, companions: tuple[Gamble, ...], alternating: bool = False
) -> Fraction:
    """All 2^p signed terms of one tuple, meets (joins when alternating) taken directly."""
    op = join if alternating else meet
    total = ZERO
    for bits in range(1 << len(companions)):
        acc = base
        sign = 1
        for k, companion in enumerate(companions):
            if bits >> k & 1:
                acc = op(acc, companion)
                sign = -sign
        total += values[acc.values] * sign
    return total


def multiset_n_monotone(assessment: Assessment, n: int, alternating: bool = False) -> bool:
    """The defining condition quantified over tuples with repetition
    (n-alternation, with joins and nonpositive sums, when ``alternating``)."""
    domain = assessment.domain
    values = {g.values: v for g, v in assessment.entries}
    for p in range(1, n + 1):
        for base in domain:
            for tup in itertools.product(domain, repeat=p):
                total = alternating_sum(values, base, tup, alternating)
                if (total > 0) if alternating else (total < 0):
                    return False
    return True


def ordered_scan(
    assessment: Assessment, n: int | float, alternating: bool = False
) -> MonotonicityReport:
    """The report of the plain scan on a lattice-closed domain.

    Orders p = 1 .. min(n, size - 1), then bases, then companion tuples
    of distinct other gambles, each in ascending domain order; the
    first tuple whose 2^p-term sum has the wrong sign is the violation.
    An infinite ``n`` scans to size - 1, which the distinct-tuple
    reduction makes exhaustive.
    """
    domain = assessment.domain
    values = {g.values: v for g, v in assessment.entries}
    cap = len(domain) - 1 if n == math.inf else int(n)
    for p in range(1, min(cap, len(domain) - 1) + 1):
        for b, base in enumerate(domain):
            others = domain[:b] + domain[b + 1:]
            for combo in itertools.combinations(others, p):
                total = alternating_sum(values, base, combo, alternating)
                if (total > 0) if alternating else (total < 0):
                    violation = MonotonicityViolation(p, base, combo, total, alternating)
                    return MonotonicityReport(n, p - 1, violation)
    return MonotonicityReport(n, n, None)


def subset_mobius(by_mask: dict[int, Fraction], size: int) -> list[Fraction]:
    """``m(A) = sum over B subset of A of (-1)^|A minus B| value(B)``, by the subset loop."""
    coefficients = []
    for mask in range(1 << size):
        total = ZERO
        sub = mask
        while True:
            sign = -1 if bin(mask ^ sub).count("1") % 2 else 1
            total += sign * by_mask[sub]
            if sub == 0:
                break
            sub = (sub - 1) & mask
        coefficients.append(total)
    return coefficients


def credal_vertices(assessment: Assessment, total: Fraction) -> list[tuple[Fraction, ...]]:
    """Vertices of the dominating-mass polytope, by tight-set enumeration."""
    n = assessment.space.size
    rows: list[tuple[tuple[Fraction, ...], Fraction]] = [
        (tuple(Fraction(1) for _ in range(n)), total)
    ]
    inequalities = [(g.values, v) for g, v in assessment.entries]
    for j in range(n):
        inequalities.append(
            (tuple(Fraction(int(i == j)) for i in range(n)), ZERO)
        )
    vertices: set[tuple[Fraction, ...]] = set()
    for tight in itertools.combinations(range(len(inequalities)), n - 1):
        matrix = [list(rows[0][0])] + [list(inequalities[t][0]) for t in tight]
        rhs = [rows[0][1]] + [inequalities[t][1] for t in tight]
        x = solve_square(matrix, rhs)
        if x is None:
            continue
        if any(v < 0 for v in x):
            continue
        if all(
            sum((a * v for a, v in zip(coeffs, x)), ZERO) >= b
            for coeffs, b in inequalities
        ):
            vertices.add(tuple(x))
    return sorted(vertices)


class _FractionTableau:
    """Dense simplex tableau over ``Fraction``; columns = structural, surplus, artificial."""

    def __init__(self, rows: list[list[Fraction]], rhs: list[Fraction], basis: list[int], ncols: int):
        self.rows = rows
        self.rhs = rhs
        self.basis = basis
        self.ncols = ncols

    def pivot(self, i: int, j: int) -> None:
        inv = 1 / self.rows[i][j]
        self.rows[i] = [a * inv for a in self.rows[i]]
        self.rhs[i] *= inv
        for k, row_k in enumerate(self.rows):
            factor = row_k[j]
            if k != i and factor != 0:
                self.rows[k] = [a - factor * b for a, b in zip(row_k, self.rows[i])]
                self.rhs[k] -= factor * self.rhs[i]
        self.basis[i] = j

    def reduced_costs(self, cost: list[Fraction]) -> list[Fraction]:
        reduced = list(cost)
        for row, b in zip(self.rows, self.basis):
            reduced = [r - cost[b] * a for r, a in zip(reduced, row)]
        return reduced

    def run(self, cost: list[Fraction], allowed: list[bool]) -> int | None:
        """Bland's rule; None at an optimum, else the unbounded entering column."""
        while True:
            reduced = self.reduced_costs(cost)
            entering = next(
                (j for j in range(self.ncols) if allowed[j] and reduced[j] < 0), -1
            )
            if entering < 0:
                return None
            leaving, best = -1, None
            for i, row in enumerate(self.rows):
                if row[entering] > 0:
                    ratio = self.rhs[i] / row[entering]
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leaving]
                    ):
                        leaving, best = i, ratio
            if leaving < 0:
                return entering
            self.pivot(leaving, entering)


def fraction_simplex(lp: LinearProgram) -> LPOutcome:
    """The two-phase Bland's-rule simplex on a ``Fraction`` tableau.

    The same start (a ``>=`` row with rhs <= 0 on its surplus, every
    other row on an artificial), the same entering and leaving rules and
    the same read-out of optimizer, duals, certificate and ray as the
    library's solver, with every entry a ``Fraction`` and the reduced
    costs recomputed from scratch after every pivot.  No substitution
    check is made here.
    """
    nvars = len(lp.objective)
    col_of = []  # structural column -> (var, sign)
    for j in range(nvars):
        col_of.append((j, 1))
        if not lp.nonnegative[j]:
            col_of.append((j, -1))
    nstruct = len(col_of)
    surplus_col = []
    ncols = nstruct
    for row in lp.constraints:
        surplus_col.append(ncols if row.relation is Relation.GE else -1)
        ncols += row.relation is Relation.GE
    art0 = ncols
    start = []
    for r, row in enumerate(lp.constraints):
        if row.relation is Relation.GE and row.rhs <= 0:
            start.append(surplus_col[r])
        else:
            start.append(ncols)
            ncols += 1
    rows, rhs, row_sign = [], [], []
    for r, row in enumerate(lp.constraints):
        coeffs = [ZERO] * ncols
        for c, (var, sign) in enumerate(col_of):
            coeffs[c] = sign * row.coeffs[var]
        if surplus_col[r] >= 0:
            coeffs[surplus_col[r]] = Fraction(-1)
        sign = -1 if row.rhs < 0 or start[r] < art0 else 1
        coeffs = [sign * a for a in coeffs]
        coeffs[start[r]] = Fraction(1)
        rows.append(coeffs)
        rhs.append(sign * row.rhs)
        row_sign.append(sign)
    tableau = _FractionTableau(rows, rhs, list(start), ncols)

    def multipliers(cost):
        reduced = tableau.reduced_costs(cost)
        return tuple(sign * (cost[j] - reduced[j]) for j, sign in zip(start, row_sign))

    if ncols > art0:
        phase1 = [ZERO] * art0 + [Fraction(1)] * (ncols - art0)
        tableau.run(phase1, [True] * ncols)
        if sum((phase1[b] * v for b, v in zip(tableau.basis, tableau.rhs)), ZERO) > 0:
            return LPOutcome(LPStatus.INFEASIBLE, certificate=multipliers(phase1))
        i = 0
        while i < len(tableau.rows):
            if tableau.basis[i] >= art0:
                col = next((j for j in range(art0) if tableau.rows[i][j] != 0), -1)
                if col < 0:
                    del tableau.rows[i], tableau.rhs[i], tableau.basis[i]
                    continue
                tableau.pivot(i, col)
            i += 1
    phase2 = [ZERO] * ncols
    for c, (var, sign) in enumerate(col_of):
        phase2[c] = sign * lp.objective[var]
    entering = tableau.run(phase2, [j < art0 for j in range(ncols)])
    if entering is not None:
        ray = [ZERO] * nvars
        steps = [(entering, Fraction(1))]
        steps += [(b, -row[entering]) for row, b in zip(tableau.rows, tableau.basis)]
        for col, step in steps:
            if col < nstruct:
                var, sign = col_of[col]
                ray[var] += sign * step
        return LPOutcome(LPStatus.UNBOUNDED, ray=tuple(ray))
    x = [ZERO] * nvars
    for b, v in zip(tableau.basis, tableau.rhs):
        if b < nstruct:
            var, sign = col_of[b]
            x[var] += sign * v
    value = sum((c * v for c, v in zip(lp.objective, x)), ZERO)
    return LPOutcome(
        LPStatus.OPTIMAL, value=value, optimizer=tuple(x), duals=multipliers(phase2)
    )


def lp_extension(assessment: Assessment, gamble: Gamble, total: Fraction) -> Fraction | None:
    """The least value at ``gamble`` of a dominating mass of the given total,
    by one program; None when no mass of that total dominates."""
    return _dual_program(assessment, gamble.values, total)[1]


def lp_is_coherent(assessment: Assessment) -> Verdict:
    """Coherence by the programs: sure loss first, then every entry in
    order against its natural extension, the first gap its witness."""
    asl = avoids_sure_loss(assessment)
    if not asl:
        return Verdict(False, asl.witness, info={"sure_loss": True})
    for gamble, value in assessment.entries:
        extension = lp_extension(assessment, gamble, Fraction(1))
        if extension != value:
            return Verdict(False, CoherenceGap(gamble, value, extension))
    return Verdict(True)


def lp_norm_analysis(assessment: Assessment) -> tuple[str, object]:
    """The norm by intersecting every entry's attainment interval.

    ``("exact", norm)``, ``("unattainable", UnattainableGamble)`` for the
    first entry no dominating mass attains, or ``("gap",
    NormIntervalGap)`` for the largest low end above the smallest high
    end (first in entry order on ties).
    """
    best_low = best_high = None
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
        return "gap", NormIntervalGap(best_low[1], best_low[0], best_high[1], best_high[0])
    return "exact", best_low[0]
