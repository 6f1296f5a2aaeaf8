"""Independent oracles the module tests check the library against.

Nothing here calls the code paths under test: linear programs are
solved by exhaustive vertex enumeration over square subsystems with
Gaussian elimination, the single-gamble norm comes from the closed
form of the two-parameter case analysis, n-monotonicity is re-decided
by full multiset enumeration and by the ordered scan that sums all 2^p
terms of every distinct tuple, and the inversion of a set function is
the subset-loop definition.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from lowerprev.assessment import Assessment
from lowerprev.gambles import Gamble, join, meet
from lowerprev.monotone import MonotonicityReport, MonotonicityViolation
from lowerprev.simplex import LinearProgram, Relation

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
    assert all(lp.nonnegative), "oracle limited to nonnegative variables"
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
