from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowerprev import (
    Assessment,
    ClosureBudgetError,
    Event,
    Gamble,
    HomomorphismTable,
    Space,
    SpaceMismatchError,
    check_wedge_homomorphism,
    is_comonotone,
    is_lattice_closed,
    join,
    lattice_closure,
    meet,
)
from lowerprev.monotone import minimum_table

from . import oracles

S3 = Space(("a", "b", "c"))
S2 = Space(("a", "b"))


def g3(*values) -> Gamble:
    return Gamble.make(S3, values)


def g2(*values) -> Gamble:
    return Gamble.make(S2, values)


class TestIndicator:
    def test_empty(self):
        assert Event.empty(S2).indicator() == g2(0, 0)

    def test_full(self):
        assert Event.full(S2).indicator() == g2(1, 1)

    def test_singleton(self):
        assert Event.from_labels(S3, ["a"]).indicator() == g3(1, 0, 0)


class TestMeetJoin:
    def test_step_meets_unit(self):
        assert meet(g3(0, 1, 2), g3(1, 1, 1)) == g3(0, 1, 1)

    def test_step_joins_unit(self):
        assert join(g3(0, 1, 2), g3(1, 1, 1)) == g3(1, 1, 2)

    def test_idempotent(self):
        f = g3(2, -1, F(1, 3))
        assert meet(f, f) == f

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            meet(g2(0, 1), g3(0, 1, 2))


class TestClosure:
    def test_step_and_unit(self):
        got = lattice_closure([g3(0, 1, 2), g3(1, 1, 1)])
        assert set(got) == {g3(0, 1, 2), g3(1, 1, 1), g3(0, 1, 1), g3(1, 1, 2)}

    def test_singleton(self):
        f = g3(0, 1, 2)
        assert lattice_closure([f]) == (f,)

    def test_two_indicators(self):
        got = lattice_closure([g2(1, 0), g2(0, 1)])
        assert set(got) == {g2(1, 0), g2(0, 1), g2(0, 0), g2(1, 1)}

    def test_budget_overflow(self):
        # singleton indicators generate the full 2^6 cube of 0/1 gambles
        s6 = Space(tuple("abcdef"))
        singletons = [Event.from_labels(s6, [w]).indicator() for w in s6.labels]
        with pytest.raises(ClosureBudgetError):
            lattice_closure(singletons, budget=5)
        assert len(lattice_closure(singletons, budget=100)) == 64


class TestComonotone:
    def test_constants_always(self):
        assert is_comonotone(g3(0, 1, 2), g3(5, 5, 5))

    def test_opposite(self):
        assert not is_comonotone(g2(0, 1), g2(1, 0))

    def test_join_meet_pair(self):
        assert is_comonotone(g3(1, 1, 2), g3(0, 1, 1))


class TestWedgeHomomorphism:
    def test_relative_minimum_is_homomorphism(self):
        domain = lattice_closure([g3(0, 1, 2), g3(1, 1, 1), g3(2, 0, 1)])
        table = minimum_table(domain, Event.from_labels(S3, ["b", "c"]))
        assert check_wedge_homomorphism(table).holds

    def test_identity(self):
        domain = lattice_closure([g2(1, 0), g2(0, 1)])
        table = HomomorphismTable.tabulate(domain, lambda g: g)
        assert check_wedge_homomorphism(table).holds

    def test_violating_pair(self):
        table = HomomorphismTable(
            (
                (g2(0, 1), g2(0, 0)),
                (g2(1, 0), g2(0, 0)),
                (g2(0, 0), g2(1, 1)),
            )
        )
        verdict = check_wedge_homomorphism(table)
        assert not verdict.holds
        # the returned pair re-checks as a violation by substitution
        witness = verdict.witness
        assert table(meet(witness.f, witness.g)) == witness.image_of_meet
        assert meet(table(witness.f), table(witness.g)) == witness.meet_of_images
        assert witness.image_of_meet != witness.meet_of_images
        # and the pair of the two incomparable sources violates as well
        assert table(meet(g2(0, 1), g2(1, 0))) == g2(1, 1)
        assert meet(table(g2(0, 1)), table(g2(1, 0))) == g2(0, 0)


small_values = st.integers(min_value=-4, max_value=4).map(lambda n: F(n, 2))


def gambles_on(space):
    return st.tuples(*[small_values] * space.size).map(lambda v: Gamble(space, v))


@settings(max_examples=150)
@given(gambles_on(S3), gambles_on(S3), gambles_on(S3))
def test_lattice_laws(f, g, h):
    assert meet(f, g) == meet(g, f)
    assert join(f, g) == join(g, f)
    assert meet(meet(f, g), h) == meet(f, meet(g, h))
    assert join(join(f, g), h) == join(f, join(g, h))
    assert meet(f, f) == f and join(f, f) == f
    assert meet(f, join(f, g)) == f
    assert join(f, meet(f, g)) == f


events_on_s3 = st.integers(min_value=0, max_value=7).map(lambda m: Event.from_mask(S3, m))


@given(events_on_s3, events_on_s3)
def test_indicator_is_lattice_homomorphism(a, b):
    assert (a & b).indicator() == meet(a.indicator(), b.indicator())
    assert (a | b).indicator() == join(a.indicator(), b.indicator())


@settings(max_examples=150)
@given(gambles_on(S3), gambles_on(S3))
def test_comonotone_symmetric_and_reflexive(f, g):
    assert is_comonotone(f, g) == is_comonotone(g, f)
    assert is_comonotone(f, f)
    assert is_comonotone(f, Gamble.constant(S3, 3))


@settings(max_examples=150)
@given(gambles_on(S3), gambles_on(S3))
def test_comonotone_pairs_survive_meet_and_join(f, g):
    if is_comonotone(f, g):
        assert is_comonotone(meet(f, g), join(f, g))
        assert is_comonotone(f, meet(f, g))
        assert is_comonotone(f, join(f, g))


@settings(max_examples=50, deadline=None)
@given(st.lists(gambles_on(S3), min_size=1, max_size=3))
def test_closure_is_closed(generators):
    closed = lattice_closure(generators)
    assert is_lattice_closed(closed)
    assert all(g in closed for g in generators)


# Differential tests: the integer closure and closedness test against the
# Fraction meets and joins of tests/oracles.py.
DIFFERENTIAL = settings(derandomize=True, max_examples=120, deadline=None)
mixed_values = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def generator_lists(draw):
    """1-4 gambles on 1-3 outcomes with mixed denominators and signs,
    sometimes with a repeated generator and sometimes with constants."""
    space = Space(tuple("abc"[: draw(st.integers(1, 3))]))
    point = st.tuples(*[mixed_values] * space.size).map(lambda v: Gamble(space, v))
    generators = draw(st.lists(point, min_size=1, max_size=4))
    if draw(st.booleans()):
        generators.append(draw(st.sampled_from(generators)))
    for value in draw(st.lists(mixed_values, max_size=2)):
        generators.append(Gamble.constant(space, value))
    return draw(st.permutations(generators))


class TestIntegerClosureAgainstFractions:
    @DIFFERENTIAL
    @given(generator_lists())
    def test_closure(self, generators):
        assert lattice_closure(generators) == oracles.fraction_closure(generators)

    @pytest.mark.parametrize("generators", [
        [g3(F(-1, 2), F(1, 3), 2)],
        [Gamble.constant(S3, F(-5, 4))],
        [Gamble.constant(S3, 0), Gamble.constant(S3, 1), Gamble.constant(S3, F(1, 2))],
        [g2(F(1, 2), 0), g2(F(1, 2), 0), g2(0, F(1, 3))],
    ], ids=["one", "one-constant", "constants", "duplicates"])
    def test_closure_cases(self, generators):
        assert lattice_closure(generators) == oracles.fraction_closure(generators)

    @DIFFERENTIAL
    @given(generator_lists())
    def test_closedness(self, generators):
        closure = lattice_closure(generators)
        assert is_lattice_closed(closure) and oracles.fraction_is_lattice_closed(list(closure))
        for k in range(len(closure)):
            rest = closure[:k] + closure[k + 1:]
            assert is_lattice_closed(rest) == oracles.fraction_is_lattice_closed(list(rest))
        assert is_lattice_closed(generators) == oracles.fraction_is_lattice_closed(generators)

    @DIFFERENTIAL
    @given(generator_lists())
    def test_budget_boundary(self, generators):
        size = len(lattice_closure(generators))
        if size == len({g.values for g in generators}):
            return  # nothing is added, so no budget is ever checked
        message = f"lattice closure exceeded the budget of {size - 1} elements"
        for closure in (lattice_closure, oracles.fraction_closure):
            with pytest.raises(ClosureBudgetError) as err:
                closure(generators, budget=size - 1)
            assert str(err.value) == message
        assert (lattice_closure(generators, budget=size)
                == oracles.fraction_closure(generators, budget=size))

    @DIFFERENTIAL
    @given(generator_lists())
    def test_lattice_tables(self, generators):
        closure = lattice_closure(generators)
        tables = Assessment.of(closure[0].space, ((g, 0) for g in closure)).lattice
        for i, f in enumerate(closure):
            assert [closure[k] for k in tables.meet[i]] == [meet(f, g) for g in closure]
            assert [closure[k] for k in tables.join[i]] == [join(f, g) for g in closure]
        for k in range(len(closure)):
            rest = closure[:k] + closure[k + 1:]
            unclosed = Assessment.of(closure[0].space, ((g, 0) for g in rest)).lattice is None
            assert unclosed == (not oracles.fraction_is_lattice_closed(list(rest)))

    def test_space_mismatch(self):
        mixed = [g2(0, 1), Gamble.make(Space(("x", "y")), [1, 0])]
        for closure in (lattice_closure, oracles.fraction_closure):
            with pytest.raises(SpaceMismatchError):
                closure(mixed)
        with pytest.raises(SpaceMismatchError):
            is_lattice_closed(mixed)


# The one-sort comonotonicity test against the pairwise definition, on
# values with many ties.
tied_values = st.fractions(min_value=-1, max_value=1, max_denominator=2)


@st.composite
def gamble_pairs(draw):
    """Two gambles on 1-7 outcomes: drawn apart, or the second the first
    clipped at a constant (comonotone with it), at times with two of its
    outcomes swapped."""
    space = Space(tuple("abcdefg"[: draw(st.integers(1, 7))]))
    point = st.tuples(*[tied_values] * space.size).map(lambda v: Gamble(space, v))
    f = draw(point)
    kind = draw(st.sampled_from(["apart", "clipped", "swapped"]))
    if kind == "apart":
        return f, draw(point)
    cap = draw(tied_values)
    values = [min(x, cap) for x in f.values]
    if kind == "swapped" and space.size > 1:
        i, j = draw(st.permutations(range(space.size)))[:2]
        values[i], values[j] = values[j], values[i]
    return f, Gamble(space, tuple(values))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(gamble_pairs())
def test_is_comonotone_matches_the_pairwise_definition(pair):
    f, g = pair
    assert is_comonotone(f, g) == oracles.pairwise_comonotone(f, g)
    assert is_comonotone(g, f) == is_comonotone(f, g)
