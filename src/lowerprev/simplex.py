"""Exact-rational linear programming.

A dense two-phase primal simplex with Bland's rule for anti-cycling.
Programs are posed and answered in :class:`fractions.Fraction`; the
tableau in between is fraction-free (Edmonds; Bareiss 1968, *Math.
Comp.* 22): integer rows, right-hand side last, over one common
denominator ``d > 0``.  A pivot on entry ``p`` of row i replaces every
other row by ``(p * row - f * row_i) // d``, where ``f`` is that row's
entry in the pivot column, and sets ``d = p``.  Each new entry is,
up to sign, a minor of the integer start tableau, so the division is
exact, and entries grow like determinants instead of like the sums of
fractions.  The reduced-cost row is updated the same way, and the ratio
test compares ratios by cross-multiplication, so the pivot path is the
one a ``Fraction`` tableau takes.  Problem sizes in this library are
desk scale (tens of variables and constraints), so the solver favours
exactness and determinism over speed: identical programs always
produce identical outcomes.

The start is canonical: row r, scaled by the lcm ``s_r`` of its
denominators, is an integer row with ``s_r`` in its start column, and
every row is multiplied out to ``d = prod(s_r)``.  That is the state
Bareiss pivoting reaches on the start columns, which the exact
divisions rely on.

Every outcome carries its own proof, re-checked by direct substitution
into the program's own coefficients before it is returned: an optimum
comes with its optimizer and the row duals (dual-feasible, with the
same objective value), an unbounded program with a ray along which the
objective decreases without bound, and an infeasible program with a
Farkas certificate.

A ``>=`` row whose right-hand side is at most zero starts with its
surplus variable basic (the row is negated so that the surplus has
coefficient +1 and value ``-rhs >= 0``); only the other rows get
artificial variables.  A program whose rows all start that way skips
phase one: the origin is feasible.

Free variables are handled by the standard split into a difference of
two nonnegative variables, which keeps the tableau uniform.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .rational import common_denominator, scaled

__all__ = [
    "Relation",
    "Constraint",
    "LinearProgram",
    "LPStatus",
    "LPOutcome",
    "LPFormatError",
    "solve",
]

ZERO = Fraction(0)


class LPFormatError(ValueError):
    """Malformed program: width mismatch or no variables."""


class Relation(enum.Enum):
    GE = ">="
    EQ = "=="


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    relation: Relation
    rhs: Fraction


@dataclass(frozen=True)
class LinearProgram:
    """Minimize ``objective . x`` subject to rows of ``A x {>=,==} b``.

    ``nonnegative[j]`` says whether variable j is sign-constrained
    (True) or free (False).
    """

    objective: tuple[Fraction, ...]
    constraints: tuple[Constraint, ...]
    nonnegative: tuple[bool, ...]

    def __post_init__(self) -> None:
        n = len(self.objective)
        if n == 0:
            raise LPFormatError("a linear program needs at least one variable")
        if len(self.nonnegative) != n:
            raise LPFormatError("variable bound vector width mismatch")
        for row in self.constraints:
            if len(row.coeffs) != n:
                raise LPFormatError(
                    f"constraint width {len(row.coeffs)} != objective width {n}"
                )

    @staticmethod
    def make(
        objective: Sequence[Fraction | int],
        constraints: Sequence[tuple[Sequence[Fraction | int], Relation, Fraction | int]],
        nonnegative: Sequence[bool] | bool = True,
    ) -> "LinearProgram":
        objective = tuple(Fraction(c) for c in objective)
        if isinstance(nonnegative, bool):
            nonnegative = (nonnegative,) * len(objective)
        rows = tuple(
            Constraint(tuple(Fraction(a) for a in coeffs), rel, Fraction(rhs))
            for coeffs, rel, rhs in constraints
        )
        return LinearProgram(objective, rows, tuple(nonnegative))


class LPStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPOutcome:
    """Solver result.

    ``optimizer``, ``value`` and ``duals`` are set exactly when the
    status is OPTIMAL.  ``duals`` holds one multiplier per constraint
    row, nonnegative on >= rows, with ``sum_r y_r A_r <= c``
    componentwise on nonnegative variables (== c on free ones) and
    ``sum_r y_r b_r == value``.

    ``ray`` is set exactly when the status is UNBOUNDED: a direction
    ``d``, nonnegative on nonnegative variables, with ``A_r d >= 0`` on
    >= rows, ``A_r d == 0`` on == rows and ``objective . d < 0``.

    ``certificate`` is set exactly when the status is INFEASIBLE: one
    Farkas multiplier per constraint row, nonnegative on >= rows, with
    ``sum_r y_r A_r <= 0`` componentwise on nonnegative variables (== 0
    on free ones) and ``sum_r y_r b_r > 0``.
    """

    status: LPStatus
    value: Fraction | None = None
    optimizer: tuple[Fraction, ...] | None = None
    certificate: tuple[Fraction, ...] | None = None
    duals: tuple[Fraction, ...] | None = None
    ray: tuple[Fraction, ...] | None = None


class _Tableau:
    """Fraction-free simplex tableau; columns = structural, surplus, artificial.

    ``rows[i]`` is row i as integers with its right-hand side last, and
    the tableau proper is ``rows / d`` for one common denominator
    ``d > 0``: a basic column holds ``d`` in its row and 0 elsewhere.
    """

    def __init__(self, rows: list[list[int]], d: int, basis: list[int], ncols: int):
        self.rows = rows
        self.d = d
        self.basis = basis
        self.ncols = ncols
        self.reduced: list[int] = []

    def pivot(self, i: int, j: int) -> None:
        """Pivot on (i, j).

        Every other row, the reduced-cost row included, becomes
        ``(p * row - f * row_i) // d``, an exact division (Bareiss
        1968), and ``p`` becomes the new ``d``.  A negative pivot
        negates row i first, which leaves ``row_i / p`` as it is and
        keeps ``d`` positive.
        """
        row_i = self.rows[i]
        p = row_i[j]
        if p < 0:
            p = -p
            row_i = self.rows[i] = [-a for a in row_i]
        d = self.d
        for k, row_k in enumerate(self.rows):
            if k != i:
                self.rows[k] = _eliminate(row_k, row_i, p, d, j)
        self.reduced = _eliminate(self.reduced, row_i, p, d, j)
        self.d = p
        self.basis[i] = j

    def run(self, cost: list[int], allowed: Sequence[bool]) -> int | None:
        """Minimize the integer ``cost`` with Bland's rule.

        Returns None at an optimum, or the entering column whose ratio
        test found no leaving row when the objective is unbounded.
        Leaves ``self.reduced``: ``d`` times the reduced costs of
        ``cost``, with minus ``d`` times the objective value last.
        """
        self.reduced = [self.d * c for c in cost] + [0]
        for row, b in zip(self.rows, self.basis):
            if cost[b]:
                self.reduced = [r - cost[b] * a for r, a in zip(self.reduced, row)]
        while True:
            entering = -1
            for j in range(self.ncols):
                if allowed[j] and self.reduced[j] < 0:
                    entering = j
                    break
            if entering < 0:
                return None
            # least rhs / a over a > 0, compared by cross-multiplication;
            # ties go to the smaller basic column
            leaving = -1
            for i, row in enumerate(self.rows):
                a = row[entering]
                if a > 0:
                    if leaving < 0:
                        leaving, num, den = i, row[-1], a
                        continue
                    lhs, rhs = row[-1] * den, num * a
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[leaving]):
                        leaving, num, den = i, row[-1], a
            if leaving < 0:
                return entering
            self.pivot(leaving, entering)


def _eliminate(row: list[int], row_i: list[int], p: int, d: int, j: int) -> list[int]:
    """``row`` after the pivot on ``p = row_i[j]``; untouched when ``f`` and ``p - d`` are 0."""
    f = row[j]
    if f:
        return [(p * a - f * b) // d for a, b in zip(row, row_i)]
    if p == d:
        return row
    return [p * a // d for a in row]


def solve(lp: LinearProgram) -> LPOutcome:
    """Solve exactly; see :class:`LPOutcome` for the contract."""
    nvars = len(lp.objective)

    # Split free variables into differences of nonnegative ones.
    col_of: list[tuple[int, int]] = []  # structural column -> (var, sign)
    for j in range(nvars):
        col_of.append((j, +1))
        if not lp.nonnegative[j]:
            col_of.append((j, -1))
    nstruct = len(col_of)

    nrows = len(lp.constraints)
    surplus_col = [-1] * nrows
    ncols = nstruct
    for r, row in enumerate(lp.constraints):
        if row.relation is Relation.GE:
            surplus_col[r] = ncols
            ncols += 1
    art0 = ncols
    # The first basic column of each row: its surplus when the row is a
    # >= row with rhs <= 0 (the slack start), an artificial otherwise.
    # These columns form the initial identity, so the final tableau holds
    # the basis inverse there, and the row multipliers are read off them.
    start: list[int] = []
    for r, row in enumerate(lp.constraints):
        if row.relation is Relation.GE and row.rhs <= 0:
            start.append(surplus_col[r])
        else:
            start.append(ncols)
            ncols += 1

    # Each row is sign-normalised so that its start column holds +1, then
    # multiplied out to d = prod(s_r): the canonical start (see above).
    row_sign = [
        -1 if row.rhs < 0 or start[r] < art0 else +1
        for r, row in enumerate(lp.constraints)
    ]
    d = 1
    for row in lp.constraints:  # s_r joins the coefficients' scale and the rhs's
        d *= math.lcm(common_denominator(row.coeffs), row.rhs.denominator)
    rhs = scaled([row.rhs for row in lp.constraints], d)
    rows: list[list[int]] = []
    for r, row in enumerate(lp.constraints):
        sign = row_sign[r]
        coeffs = scaled(row.coeffs, d)
        start_row = [sign * s * coeffs[var] for var, s in col_of]
        start_row += [0] * (ncols - nstruct)
        if surplus_col[r] >= 0:
            start_row[surplus_col[r]] = -sign * d
        start_row[start[r]] = d
        start_row.append(sign * rhs[r])
        rows.append(start_row)

    tableau = _Tableau(rows, d, list(start), ncols)

    if ncols > art0:
        # Phase one: drive the sum of artificials to zero.
        phase1_cost = [0] * art0 + [1] * (ncols - art0)
        tableau.run(phase1_cost, [True] * ncols)
        if tableau.reduced[-1] < 0:  # a positive sum of artificials
            certificate = _row_multipliers(tableau, phase1_cost, 1, start, row_sign)
            _check_certificate(lp, certificate)
            return LPOutcome(LPStatus.INFEASIBLE, certificate=certificate)
        _expel_artificials(tableau, art0)

    # Phase two over structural and surplus columns only, on the
    # objective scaled to integers.
    allowed = [j < art0 for j in range(ncols)]
    cost_scale = common_denominator(lp.objective)
    objective = scaled(lp.objective, cost_scale)
    phase2_cost = [sign * objective[var] for var, sign in col_of]
    phase2_cost += [0] * (ncols - nstruct)
    entering = tableau.run(phase2_cost, allowed)
    d = tableau.d
    if entering is not None:
        # Raise the entering column by one; the basic columns follow.
        steps = [(entering, d)]
        steps += [(b, -row[entering]) for row, b in zip(tableau.rows, tableau.basis)]
        direction = [0] * nvars
        for col, step in steps:
            if col < nstruct:
                var, sign = col_of[col]
                direction[var] += sign * step
        ray = tuple([Fraction(v, d) for v in direction])
        _check_ray(lp, ray)
        return LPOutcome(LPStatus.UNBOUNDED, ray=ray)

    x = [0] * nvars
    for row, b in zip(tableau.rows, tableau.basis):
        if b < nstruct:
            var, sign = col_of[b]
            x[var] += sign * row[-1]
    optimizer = tuple([Fraction(v, d) for v in x])
    value = sum((c * v for c, v in zip(lp.objective, optimizer)), ZERO)
    _check_feasible(lp, optimizer)
    duals = _row_multipliers(tableau, phase2_cost, cost_scale, start, row_sign)
    _check_duals(lp, duals, value)
    return LPOutcome(LPStatus.OPTIMAL, value=value, optimizer=optimizer, duals=duals)


def _expel_artificials(tableau: _Tableau, art0: int) -> None:
    """Pivot zero-valued artificials out of the basis; drop redundant rows."""
    i = 0
    while i < len(tableau.rows):
        if tableau.basis[i] >= art0:
            row = tableau.rows[i]
            pivot_col = -1
            for j in range(art0):
                if row[j] != 0:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                tableau.pivot(i, pivot_col)
            else:
                del tableau.rows[i]
                del tableau.basis[i]
                continue
        i += 1


def _row_multipliers(
    tableau: _Tableau,
    cost: list[int],
    cost_scale: int,
    start: list[int],
    row_sign: list[int],
) -> tuple[Fraction, ...]:
    """Simplex multipliers of the original rows for the last run's basis.

    ``cost`` is ``cost_scale`` times the run's costs.  Row r's start
    column is the unit vector e_r in the sign-normalised row space, so
    its reduced cost is ``cost - y_r`` there; undoing the normalisation
    gives the multiplier of the row as the caller wrote it.
    """
    d, reduced = tableau.d, tableau.reduced
    scale = d * cost_scale
    return tuple([
        Fraction(sign * (d * cost[j] - reduced[j]), scale)
        for j, sign in zip(start, row_sign)
    ])


def _column_sums(lp: LinearProgram, y: tuple[Fraction, ...]) -> list[Fraction]:
    sums = [ZERO] * len(lp.objective)
    for mult, row in zip(y, lp.constraints):
        if mult:
            sums = [s + mult * a for s, a in zip(sums, row.coeffs)]
    return sums


def _check_certificate(lp: LinearProgram, y: tuple[Fraction, ...]) -> None:
    total = ZERO
    for r, row in enumerate(lp.constraints):
        if row.relation is Relation.GE and y[r] < 0:
            raise AssertionError("infeasibility certificate has a negative >= multiplier")
        total += y[r] * row.rhs
    if total <= 0:
        raise AssertionError("infeasibility certificate does not separate")
    for s, nonneg in zip(_column_sums(lp, y), lp.nonnegative):
        if nonneg:
            if s > 0:
                raise AssertionError("infeasibility certificate violates a column bound")
        elif s != 0:
            raise AssertionError("infeasibility certificate violates a free column")


def _check_duals(lp: LinearProgram, y: tuple[Fraction, ...], value: Fraction) -> None:
    total = ZERO
    for r, row in enumerate(lp.constraints):
        if row.relation is Relation.GE and y[r] < 0:
            raise AssertionError("duals have a negative >= multiplier")
        total += y[r] * row.rhs
    if total != value:
        raise AssertionError("duals do not reach the optimal value")
    for s, c, nonneg in zip(_column_sums(lp, y), lp.objective, lp.nonnegative):
        if nonneg:
            if s > c:
                raise AssertionError("duals violate a column bound")
        elif s != c:
            raise AssertionError("duals violate a free column")


def _check_ray(lp: LinearProgram, d: tuple[Fraction, ...]) -> None:
    for j, nonneg in enumerate(lp.nonnegative):
        if nonneg and d[j] < 0:
            raise AssertionError("ray violates a sign constraint")
    for row in lp.constraints:
        lhs = sum((a * v for a, v in zip(row.coeffs, d)), ZERO)
        if row.relation is Relation.GE:
            if lhs < 0:
                raise AssertionError("ray leaves a >= constraint")
        elif lhs != 0:
            raise AssertionError("ray leaves an == constraint")
    if sum((c * v for c, v in zip(lp.objective, d)), ZERO) >= 0:
        raise AssertionError("ray does not decrease the objective")


def _check_feasible(lp: LinearProgram, x: tuple[Fraction, ...]) -> None:
    for j, nonneg in enumerate(lp.nonnegative):
        if nonneg and x[j] < 0:
            raise AssertionError("optimizer violates a sign constraint")
    support = [j for j, v in enumerate(x) if v]
    for row in lp.constraints:
        lhs = sum((row.coeffs[j] * x[j] for j in support), ZERO)
        if row.relation is Relation.GE:
            if lhs < row.rhs:
                raise AssertionError("optimizer violates a >= constraint")
        elif lhs != row.rhs:
            raise AssertionError("optimizer violates an == constraint")
