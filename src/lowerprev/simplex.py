"""Exact-rational linear programming.

A dense two-phase primal simplex over :class:`fractions.Fraction`
entries, with Bland's rule for anti-cycling.  Problem sizes in this
library are desk scale (tens of variables and constraints), so the
solver favours exactness and determinism over speed: identical
programs always produce identical outcomes.

Every outcome carries its own proof, re-checked by direct substitution
before it is returned: an optimum comes with its optimizer and the row
duals (dual-feasible, with the same objective value), an unbounded
program with a ray along which the objective decreases without bound,
and an infeasible program with a Farkas certificate.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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
ONE = Fraction(1)


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
    """Dense simplex tableau; columns = structural, surplus, artificial."""

    def __init__(
        self,
        rows: list[list[Fraction]],
        rhs: list[Fraction],
        basis: list[int],
        ncols: int,
    ):
        self.rows = rows
        self.rhs = rhs
        self.basis = basis
        self.ncols = ncols

    def pivot(self, i: int, j: int) -> list[int]:
        """Pivot on (i, j); returns the nonzero columns of the new row i."""
        inv = ONE / self.rows[i][j]
        row_i = self.rows[i]
        support = [c for c, a in enumerate(row_i) if a]
        for c in support:
            row_i[c] *= inv
        self.rhs[i] *= inv
        for k, row_k in enumerate(self.rows):
            if k == i:
                continue
            factor = row_k[j]
            if factor == 0:
                continue
            for c in support:
                row_k[c] -= factor * row_i[c]
            self.rhs[k] -= factor * self.rhs[i]
        self.basis[i] = j
        return support

    def reduced_costs(self, cost: list[Fraction]) -> list[Fraction]:
        # r_j = c_j - sum_i c_{basis_i} T_ij, computed fresh for the basis
        multipliers = [cost[b] for b in self.basis]
        reduced = list(cost)
        for i, mult in enumerate(multipliers):
            if mult == 0:
                continue
            row = self.rows[i]
            for j in range(self.ncols):
                if row[j] != 0:
                    reduced[j] -= mult * row[j]
        return reduced

    def objective_value(self, cost: list[Fraction]) -> Fraction:
        return sum((cost[b] * self.rhs[i] for i, b in enumerate(self.basis)), ZERO)

    def run(self, cost: list[Fraction], allowed: Sequence[bool]) -> int | None:
        """Minimize with Bland's rule.

        Returns None at an optimum, or the entering column whose ratio
        test found no leaving row when the objective is unbounded.
        """
        reduced = self.reduced_costs(cost)
        while True:
            entering = -1
            for j in range(self.ncols):
                if allowed[j] and reduced[j] < 0:
                    entering = j
                    break
            if entering < 0:
                return None
            leaving = -1
            best = None
            for i in range(len(self.rows)):
                a = self.rows[i][entering]
                if a > 0:
                    ratio = self.rhs[i] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leaving]
                    ):
                        best = ratio
                        leaving = i
            if leaving < 0:
                return entering
            # the reduced-cost row is eliminated like any other row
            factor = reduced[entering]
            row = self.rows[leaving]
            for c in self.pivot(leaving, entering):
                reduced[c] -= factor * row[c]


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

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    row_sign: list[int] = []
    for r, row in enumerate(lp.constraints):
        coeffs = [ZERO] * ncols
        for c, (var, sign) in enumerate(col_of):
            coeffs[c] = sign * row.coeffs[var]
        if surplus_col[r] >= 0:
            coeffs[surplus_col[r]] = Fraction(-1)
        sign = -1 if row.rhs < 0 or start[r] < art0 else +1
        if sign < 0:
            coeffs = [-a for a in coeffs]
        coeffs[start[r]] = ONE
        rows.append(coeffs)
        rhs.append(sign * row.rhs)
        row_sign.append(sign)

    tableau = _Tableau(rows, rhs, list(start), ncols)

    if ncols > art0:
        # Phase one: drive the sum of artificials to zero.
        phase1_cost = [ZERO] * art0 + [ONE] * (ncols - art0)
        tableau.run(phase1_cost, [True] * ncols)
        if tableau.objective_value(phase1_cost) > 0:
            certificate = _row_multipliers(tableau, phase1_cost, start, row_sign)
            _check_certificate(lp, certificate)
            return LPOutcome(LPStatus.INFEASIBLE, certificate=certificate)
        _expel_artificials(tableau, art0)

    # Phase two over structural and surplus columns only.
    allowed = [j < art0 for j in range(ncols)]
    phase2_cost = [ZERO] * ncols
    for c, (var, sign) in enumerate(col_of):
        phase2_cost[c] = sign * lp.objective[var]
    entering = tableau.run(phase2_cost, allowed)
    if entering is not None:
        # Raise the entering column by one; the basic columns follow.
        steps = [(entering, ONE)]
        steps += [(b, -tableau.rows[i][entering]) for i, b in enumerate(tableau.basis)]
        d = [ZERO] * nvars
        for col, step in steps:
            if col < nstruct:
                var, sign = col_of[col]
                d[var] += sign * step
        ray = tuple(d)
        _check_ray(lp, ray)
        return LPOutcome(LPStatus.UNBOUNDED, ray=ray)

    x = [ZERO] * nvars
    for i, b in enumerate(tableau.basis):
        if b < nstruct:
            var, sign = col_of[b]
            x[var] += sign * tableau.rhs[i]
    optimizer = tuple(x)
    value = sum((c * v for c, v in zip(lp.objective, optimizer)), ZERO)
    _check_feasible(lp, optimizer)
    duals = _row_multipliers(tableau, phase2_cost, start, row_sign)
    _check_duals(lp, duals, value)
    return LPOutcome(LPStatus.OPTIMAL, value=value, optimizer=optimizer, duals=duals)


def _expel_artificials(tableau: _Tableau, art0: int) -> None:
    """Pivot zero-valued artificials out of the basis; drop redundant rows."""
    i = 0
    while i < len(tableau.rows):
        b = tableau.basis[i]
        if b >= art0:
            pivot_col = -1
            for j in range(art0):
                if tableau.rows[i][j] != 0:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                tableau.pivot(i, pivot_col)
            else:
                del tableau.rows[i]
                del tableau.rhs[i]
                del tableau.basis[i]
                continue
        i += 1


def _row_multipliers(
    tableau: _Tableau,
    cost: list[Fraction],
    start: list[int],
    row_sign: list[int],
) -> tuple[Fraction, ...]:
    """Simplex multipliers of the original rows for the current basis.

    Row r's start column is the unit vector e_r in the sign-normalised
    row space, so its reduced cost is ``cost - y_r`` there; undoing the
    normalisation gives the multiplier of the row as the caller wrote it.
    """
    reduced = tableau.reduced_costs(cost)
    return tuple(sign * (cost[j] - reduced[j]) for j, sign in zip(start, row_sign))


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
