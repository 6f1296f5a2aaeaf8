import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowerprev import (
    Assessment,
    Gamble,
    Space,
    avoids_sure_loss,
    find_attaining,
    is_coherent,
    natural_extension_exact,
    natural_extension_prevision,
    norm,
    simplex,
)
from lowerprev.simplex import (
    Constraint,
    LinearProgram,
    LPFormatError,
    LPStatus,
    Relation,
    solve,
)

from lowerprev.sampling import random_envelope, random_gamble

from .oracles import brute_force_lp, fraction_simplex

GE, EQ = Relation.GE, Relation.EQ


def lp(objective, rows, nonneg=True):
    return LinearProgram.make(objective, rows, nonneg)


class TestFrozenExamples:
    def test_single_active_bound(self):
        out = solve(lp([1], [([1], GE, F(3, 10))], nonneg=False))
        assert out.status is LPStatus.OPTIMAL
        assert out.value == F(3, 10)

    def test_infeasible_bounds_exceed_total(self):
        # lower bounds sum to 6/5 > 1, so no feasible point exists
        out = solve(
            lp([0, 0], [([1, 0], GE, F(3, 5)), ([0, 1], GE, F(3, 5)), ([1, 1], EQ, 1)])
        )
        assert out.status is LPStatus.INFEASIBLE
        assert out.certificate is not None

    def test_vertex_of_segment(self):
        out = solve(
            lp([2, 1], [([1, 0], GE, F(3, 10)), ([0, 1], GE, F(1, 2)), ([1, 1], EQ, 1)])
        )
        assert out.status is LPStatus.OPTIMAL
        assert out.value == F(13, 10)
        assert out.optimizer == (F(3, 10), F(7, 10))

    def test_unbounded(self):
        out = solve(lp([-1], [([1], GE, 0)]))
        assert out.status is LPStatus.UNBOUNDED

    def test_free_variable_split(self):
        out = solve(lp([1], [([1], GE, -5)], nonneg=False))
        assert out.status is LPStatus.OPTIMAL
        assert out.value == -5

    def test_no_constraints(self):
        assert solve(lp([1], [])).value == 0
        assert solve(lp([-1], [])).status is LPStatus.UNBOUNDED
        assert solve(lp([1], [], nonneg=False)).status is LPStatus.UNBOUNDED

    def test_width_mismatch(self):
        with pytest.raises(LPFormatError):
            LinearProgram((F(1),), (Constraint((F(1), F(2)), GE, F(0)),), (True,))
        with pytest.raises(LPFormatError):
            LinearProgram((), (), ())


def random_program(rng, nvars, nrows):
    objective = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(nvars)]
    rows = []
    for _ in range(nrows):
        coeffs = [F(rng.randint(-2, 3), 1) for _ in range(nvars)]
        rel = rng.choice([GE, EQ])
        rhs = F(rng.randint(-4, 4), rng.randint(1, 2))
        rows.append((coeffs, rel, rhs))
    # keep the feasible set bounded: total mass capped
    rows.append(([F(1)] * nvars, EQ, F(rng.randint(1, 3))))
    return lp(objective, rows)


class TestAgainstVertexEnumeration:
    def test_random_small_programs(self):
        rng = random.Random(20240811)
        statuses = set()
        for _ in range(120):
            program = random_program(rng, rng.randint(2, 3), rng.randint(1, 3))
            got = solve(program)
            expected_status, expected_value = brute_force_lp(program)
            statuses.add(got.status)
            assert got.status.value == expected_status
            if got.status is LPStatus.OPTIMAL:
                assert got.value == expected_value
        assert LPStatus.OPTIMAL in statuses and LPStatus.INFEASIBLE in statuses

    def test_determinism(self):
        rng = random.Random(7)
        program = random_program(rng, 3, 3)
        first = solve(program)
        for _ in range(3):
            again = solve(program)
            assert again == first


class TestCertificates:
    def test_optimizer_feasible_exactly(self):
        rng = random.Random(99)
        for _ in range(60):
            program = random_program(rng, 3, 2)
            out = solve(program)
            if out.status is not LPStatus.OPTIMAL:
                continue
            for row in program.constraints:
                lhs = sum(a * v for a, v in zip(row.coeffs, out.optimizer))
                assert lhs == row.rhs if row.relation is EQ else lhs >= row.rhs
            assert all(v >= 0 for v in out.optimizer)

    def test_farkas_certificate_separates(self):
        rng = random.Random(5)
        found = 0
        for _ in range(150):
            program = random_program(rng, 2, 3)
            out = solve(program)
            if out.status is not LPStatus.INFEASIBLE:
                continue
            found += 1
            y = out.certificate
            total = F(0)
            for mult, row in zip(y, program.constraints):
                if row.relation is GE:
                    assert mult >= 0
                total += mult * row.rhs
            assert total > 0
            for j in range(len(program.objective)):
                column = sum(
                    mult * row.coeffs[j] for mult, row in zip(y, program.constraints)
                )
                assert column <= 0
        assert found > 5


class TestDuality:
    def test_primal_equals_hand_built_dual(self):
        # min c.x st Ax >= b, x >= 0  <->  max b.y st A^T y <= c, y >= 0,
        # the latter posed as min -b.y with negated rows.
        rng = random.Random(13)
        checked = 0
        for _ in range(80):
            nvars, nrows = rng.randint(2, 3), rng.randint(2, 3)
            A = [[F(rng.randint(-2, 3)) for _ in range(nvars)] for _ in range(nrows)]
            b = [F(rng.randint(-3, 0)) for _ in range(nrows)]  # x = 0 feasible
            c = [F(rng.randint(0, 3)) for _ in range(nvars)]  # bounded below
            primal = lp(c, [(A[i], GE, b[i]) for i in range(nrows)])
            dual = lp(
                [-bi for bi in b],
                [([-A[i][j] for i in range(nrows)], GE, -c[j]) for j in range(nvars)],
            )
            p = solve(primal)
            d = solve(dual)
            assert p.status is LPStatus.OPTIMAL
            assert d.status is LPStatus.OPTIMAL
            assert p.value == -d.value
            checked += 1
        assert checked == 80


def check_duals(program, out):
    """Dual feasibility and strong duality, by substitution."""
    y = out.duals
    assert len(y) == len(program.constraints)
    for mult, row in zip(y, program.constraints):
        if row.relation is GE:
            assert mult >= 0
    assert sum(m * row.rhs for m, row in zip(y, program.constraints)) == out.value
    for j, (c, nonneg) in enumerate(zip(program.objective, program.nonnegative)):
        column = sum(m * row.coeffs[j] for m, row in zip(y, program.constraints))
        assert column <= c if nonneg else column == c


def check_ray(program, out):
    """A recession direction of a feasible program that lowers the objective."""
    d = out.ray
    assert all(v >= 0 for v, nonneg in zip(d, program.nonnegative) if nonneg)
    for row in program.constraints:
        lhs = sum(a * v for a, v in zip(row.coeffs, d))
        assert lhs >= 0 if row.relation is GE else lhs == 0
    assert sum(c * v for c, v in zip(program.objective, d)) < 0
    rows = [(row.coeffs, row.relation, row.rhs) for row in program.constraints]
    feasibility = lp([0] * len(d), rows, list(program.nonnegative))
    assert solve(feasibility).status is LPStatus.OPTIMAL


def random_open_program(rng, nvars, nrows):
    """No total-mass cap and some free variables: often unbounded."""
    objective = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(nvars)]
    rows = []
    for _ in range(nrows):
        coeffs = [F(rng.randint(-2, 3)) for _ in range(nvars)]
        rows.append((coeffs, rng.choice([GE, GE, EQ]), F(rng.randint(-4, 4), rng.randint(1, 2))))
    nonneg = [rng.random() < 0.7 for _ in range(nvars)]
    return lp(objective, rows, nonneg)


class TestDualsAndRays:
    def test_duals_on_vertex_enumeration_programs(self):
        rng = random.Random(20240811)
        checked = 0
        for _ in range(120):
            program = random_program(rng, rng.randint(2, 3), rng.randint(1, 3))
            out = solve(program)
            assert out.status.value == brute_force_lp(program)[0]
            assert (out.duals is not None) == (out.status is LPStatus.OPTIMAL)
            assert out.ray is None
            if out.status is LPStatus.OPTIMAL:
                check_duals(program, out)
                checked += 1
        assert checked > 20

    def test_rays_and_duals_on_open_programs(self):
        rng = random.Random(61)
        statuses = {status: 0 for status in LPStatus}
        for _ in range(200):
            program = random_open_program(rng, rng.randint(1, 3), rng.randint(0, 3))
            out = solve(program)
            statuses[out.status] += 1
            assert (out.ray is not None) == (out.status is LPStatus.UNBOUNDED)
            if out.status is LPStatus.UNBOUNDED:
                check_ray(program, out)
            elif out.status is LPStatus.OPTIMAL:
                check_duals(program, out)
        assert all(count > 10 for count in statuses.values())

    def test_frozen_ray(self):
        out = solve(lp([-1, 1], [([1, -1], GE, -2)]))
        assert out.status is LPStatus.UNBOUNDED
        assert out.ray == (F(1), F(0))

    def test_frozen_duals(self):
        # min 2x + y st x >= 3/10, y >= 1/2, x + y == 1: the duals price
        # the x bound at 1 and the total at 1
        out = solve(
            lp([2, 1], [([1, 0], GE, F(3, 10)), ([0, 1], GE, F(1, 2)), ([1, 1], EQ, 1)])
        )
        assert out.duals == (F(1), F(0), F(1))


class TestSlackStart:
    def count_runs(self, monkeypatch):
        calls = []
        original = simplex._Tableau.run

        def counted(self, cost, allowed):
            calls.append(1)
            return original(self, cost, allowed)

        monkeypatch.setattr(simplex._Tableau, "run", counted)
        return calls

    def test_nonpositive_rhs_skips_phase_one(self, monkeypatch):
        rng = random.Random(67)
        calls = self.count_runs(monkeypatch)
        signs = set()
        for _ in range(80):
            nvars = rng.randint(2, 3)
            rows = []
            for _ in range(rng.randint(1, 3)):
                coeffs = [F(rng.randint(-2, 3)) for _ in range(nvars)]
                rows.append((coeffs, GE, F(-rng.randint(0, 4), rng.randint(1, 2))))
            # a capped total written as two >= rows with nonpositive rhs
            cap = F(rng.randint(1, 3))
            rows += [([F(-1)] * nvars, GE, -cap), ([F(1)] * nvars, GE, F(0))]
            objective = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(nvars)]
            program = lp(objective, rows)
            del calls[:]
            out = solve(program)
            assert len(calls) == 1  # phase two only
            expected_status, expected_value = brute_force_lp(program)
            assert out.status.value == expected_status == "optimal"
            assert out.value == expected_value
            check_duals(program, out)
            signs.add(out.value < 0)
        assert signs == {True, False}

    def test_mixed_rows_run_phase_one(self, monkeypatch):
        calls = self.count_runs(monkeypatch)
        # x1 >= -2 starts on its surplus; x1 + x2 >= 1 needs an artificial
        program = lp([1, 2], [([1, 0], GE, -2), ([1, 1], GE, 1)])
        out = solve(program)
        assert len(calls) == 2
        assert out.status is LPStatus.OPTIMAL and out.value == 1
        assert out.duals == (F(0), F(1))
        check_duals(program, out)

    def test_slack_row_infeasible_certificate(self):
        # -x >= 0 starts on its surplus, x >= 1 does not: infeasible
        out = solve(lp([1], [([-1], GE, 0), ([1], GE, 1)]))
        assert out.status is LPStatus.INFEASIBLE
        assert out.certificate == (F(1), F(1))


# ---------------------------------------------------------------- differential


PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)
SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def programs(draw, relations=st.sampled_from([GE, EQ]), rhs=SMALL, values=SMALL,
             free=st.booleans(), max_rows=4):
    nvars = draw(st.integers(1, 4))
    objective = draw(st.lists(values, min_size=nvars, max_size=nvars))
    rows = [
        (draw(st.lists(values, min_size=nvars, max_size=nvars)), draw(relations), draw(rhs))
        for _ in range(draw(st.integers(0, max_rows)))
    ]
    nonneg = [not draw(free) for _ in range(nvars)]
    return lp(objective, rows, nonneg)


def assert_same_as_oracle(program):
    """The whole outcome: status, value, optimizer, duals, certificate and ray."""
    got = solve(program)
    assert got == fraction_simplex(program)
    return got


class TestAgainstFractionTableau:
    @PROPERTY
    @given(programs())
    def test_random_programs(self, program):
        assert_same_as_oracle(program)

    @PROPERTY
    @given(programs(relations=st.just(EQ), free=st.booleans()), st.data())
    def test_equalities_and_free_variables(self, program, data):
        # one more == row, and the first variable free
        coeffs = data.draw(st.lists(SMALL, min_size=len(program.objective),
                                    max_size=len(program.objective)))
        rows = [(r.coeffs, r.relation, r.rhs) for r in program.constraints]
        rows.append((coeffs, EQ, data.draw(SMALL)))
        nonneg = (False,) + program.nonnegative[1:]
        assert_same_as_oracle(lp(program.objective, rows, nonneg))

    @PROPERTY
    @given(programs(rhs=st.fractions(min_value=-3, max_value=F(-1, 4), max_denominator=4)),
           st.booleans())
    def test_phase_one_on_negative_rhs(self, program, flip_ge):
        # == rows with rhs < 0 and >= rows with rhs > 0 all start on artificials
        rows = [
            (r.coeffs, r.relation, -r.rhs if r.relation is GE and flip_ge else r.rhs)
            for r in program.constraints
        ]
        assert_same_as_oracle(lp(program.objective, rows, program.nonnegative))

    @PROPERTY
    @given(programs(relations=st.just(EQ), max_rows=3),
           st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=3))
    def test_redundant_rows(self, program, mixes):
        # combinations of the first two == rows, right-hand sides included,
        # are redundant: phase one ends with artificials basic at zero, which
        # are pivoted out (on negative entries too) or whose rows are dropped
        base = [(r.coeffs, r.rhs) for r in program.constraints][:2]
        rows = [(r.coeffs, EQ, r.rhs) for r in program.constraints]
        for a, b in mixes:
            if len(base) == 2:
                (c0, r0), (c1, r1) = base
                rows.append(([a * x + b * y for x, y in zip(c0, c1)], EQ, a * r0 + b * r1))
            elif base:
                rows.append(([a * x for x in base[0][0]], EQ, a * base[0][1]))
        assert_same_as_oracle(lp(program.objective, rows, program.nonnegative))

    @PROPERTY
    @given(programs(rhs=st.sampled_from([F(0), F(0), F(1)]),
                    values=st.sampled_from([F(-1), F(0), F(1), F(2)]), max_rows=5),
           st.booleans())
    def test_degenerate_ties(self, program, duplicate):
        # zero and repeated right-hand sides make equal ratios in the ratio test
        rows = [(r.coeffs, r.relation, r.rhs) for r in program.constraints]
        if duplicate and rows:
            rows.append(rows[0])
        assert_same_as_oracle(lp(program.objective, rows, program.nonnegative))

    def test_every_status_with_exact_divisions(self, monkeypatch):
        eliminate = simplex._eliminate

        def exact(row, row_i, p, d, j):
            assert all((p * a - row[j] * b) % d == 0 for a, b in zip(row, row_i))
            return eliminate(row, row_i, p, d, j)

        monkeypatch.setattr(simplex, "_eliminate", exact)
        rng = random.Random(20261018)
        statuses = {status: 0 for status in LPStatus}
        for _ in range(300):
            program = random_open_program(rng, rng.randint(1, 4), rng.randint(0, 4))
            statuses[assert_same_as_oracle(program).status] += 1
        assert all(count > 20 for count in statuses.values())

    def test_negative_pivot_and_dropped_row(self, monkeypatch):
        # -2x == 0 and x == 0: phase one ends with both artificials basic at
        # zero; expelling the first pivots on -2, the second row then has no
        # structural entry left and is dropped
        pivots, dropped = [], []
        pivot, expel = simplex._Tableau.pivot, simplex._expel_artificials

        def recording_pivot(self, i, j):
            pivots.append(self.rows[i][j])
            pivot(self, i, j)

        def recording_expel(tableau, art0):
            before = len(tableau.rows)
            expel(tableau, art0)
            dropped.append(before - len(tableau.rows))

        monkeypatch.setattr(simplex._Tableau, "pivot", recording_pivot)
        monkeypatch.setattr(simplex, "_expel_artificials", recording_expel)
        out = assert_same_as_oracle(lp([-1], [([-2], EQ, 0), ([1], EQ, 0)]))
        assert out.status is LPStatus.OPTIMAL and out.value == 0
        assert min(pivots) < 0 and dropped == [1]


class TestRecordedPrograms:
    """Every program a consistency session solves, against the oracle."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        programs = []

        def recording(program):
            programs.append(program)
            return solve(program)

        monkeypatch.setattr(simplex, "solve", recording)
        return programs

    @staticmethod
    def session(assessment, gambles):
        verdict = avoids_sure_loss(assessment)
        is_coherent(assessment)
        for g in gambles:
            if verdict:
                natural_extension_prevision(assessment, g)
        if verdict and norm(assessment) != float("inf"):
            for g in gambles:
                natural_extension_exact(assessment, g)
            find_attaining(assessment, gambles[0], gambles[1])

    def test_powerset_assessment(self, recorded):
        rng = random.Random(4)
        space = Space(("a", "b", "c", "d"))
        events = [e.indicator() for e in space.all_events()]
        assessment = random_envelope(rng, space, 3).restrict(events)
        self.session(assessment, [random_gamble(rng, space) for _ in range(2)])
        assert len(recorded) > 2 * 16
        statuses = {assert_same_as_oracle(program).status for program in recorded}
        assert statuses == set(LPStatus)

    def test_gamble_assessment(self, recorded):
        rng = random.Random(6)
        space = Space(tuple("abcdef"))
        gambles = [random_gamble(rng, space) for _ in range(4)] + [Gamble.constant(space, 1)]
        envelope = random_envelope(rng, space, 3)
        entries = dict(envelope.restrict(gambles).entries)
        entries[gambles[0]] -= F(1, 8)  # incoherent, still exact
        assessment = Assessment(space, tuple(entries.items()))
        self.session(assessment, [random_gamble(rng, space) for _ in range(3)])
        entries[gambles[1]] = gambles[1].sup + 1  # sure loss
        self.session(Assessment(space, tuple(entries.items())), gambles[:2])
        statuses = {assert_same_as_oracle(program).status for program in recorded}
        assert statuses == set(LPStatus)
