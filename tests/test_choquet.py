import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lowerprev import (
    Assessment,
    DomainError,
    Event,
    Gamble,
    MassFunctional,
    Space,
    Verdict,
    choquet_integral,
    decreasing_distribution,
    is_comonotone,
    is_comonotone_additive,
    is_n_monotone,
    join,
    lattice_closure,
    meet,
    natural_extension_exact,
    norm,
    powerset_inner,
)
from lowerprev.sampling import (
    random_completely_monotone,
    random_event_lattice,
    random_floor_additive,
    random_gamble,
    random_gamble_lattice,
    random_probability,
    random_rational,
)

from .oracles import pairwise_comonotone

ZERO = F(0)


def random_monotone_set_function(rng, space, denominator=4):
    """Monotonize arbitrary nonnegative values; zero at the empty event."""
    raw = {
        mask: F(rng.randint(0, 2 * denominator), denominator)
        for mask in range(1 << space.size)
    }
    raw[0] = ZERO
    entries = []
    for event in space.all_events():
        target = event.mask
        best = max(raw[m] for m in range(1 << space.size) if m & target == m)
        entries.append((event, best))
    return Assessment.on_events(space, entries)


def comonotone_pair(rng, space):
    """Two gambles nondecreasing along one shared outcome order."""
    order = list(space.outcomes())
    rng.shuffle(order)
    pair = []
    for _ in range(2):
        levels = sorted(random_rational(rng) for _ in order)
        values = [ZERO] * space.size
        for position, outcome in enumerate(order):
            values[outcome] = levels[position]
        pair.append(Gamble(space, tuple(values)))
    assert is_comonotone(*pair)
    return pair


class TestDecreasingDistribution:
    def test_step_gamble_under_event_restriction(self, step_event_assessment, step_gamble):
        dist = decreasing_distribution(step_event_assessment, step_gamble)
        assert dist.steps == ((F(0), F(1)), (F(1), F(1, 2)), (F(2), F(0)))
        assert dist(F(1)) == F(1, 2)

    def test_constant_gamble(self, step_event_assessment, abc):
        dist = decreasing_distribution(step_event_assessment, Gamble.constant(abc, 7))
        assert dist.steps == ((F(7), F(1)),)

    def test_indicator(self, abc):
        rng = random.Random(1)
        mu = random_completely_monotone(rng, abc)
        a = Event.from_labels(abc, ["b"])
        dist = decreasing_distribution(mu, a.indicator())
        assert dist.steps == (
            (F(0), mu.value(Event.full(abc).indicator())),
            (F(1), mu.value(a.indicator())),
        )

    def test_non_monotone_rejected(self, abc):
        entries = {e: F(1) if e.size == 1 else ZERO for e in abc.all_events()}
        bad = Assessment.on_events(abc, entries)
        with pytest.raises(DomainError):
            decreasing_distribution(bad, Gamble.make(abc, [0, 1, 2]))


class TestChoquetIntegral:
    def test_vacuous(self, abc, step_gamble):
        entries = ((e, F(int(e.size == 3))) for e in abc.all_events())
        mu = Assessment.on_events(abc, entries)
        assert choquet_integral(mu, step_gamble).value == 0

    def test_uniform_probability(self, abc, step_gamble):
        mu = MassFunctional.make(abc, ["1/3", "1/3", "1/3"]).as_set_function()
        assert choquet_integral(mu, step_gamble).value == 1

    def test_event_restriction_underestimates_step(self, step_event_assessment, step_gamble):
        # the event data alone cannot reproduce the non-2-monotone extension
        result = choquet_integral(step_event_assessment, step_gamble)
        assert result.value == F(1, 2)

    def test_trace_recomputes(self, abc):
        rng = random.Random(3)
        for _ in range(10):
            mu = random_monotone_set_function(rng, abc)
            g = random_gamble(rng, abc)
            result = choquet_integral(mu, g)
            assert result.recompute() == result.value

    def test_matches_expectation_for_additive(self, abc):
        rng = random.Random(5)
        for _ in range(10):
            mass = random_probability(rng, abc)
            g = random_gamble(rng, abc)
            assert choquet_integral(mass.as_set_function(), g).value == mass(g)

    def test_homogeneity_and_shift(self, abc):
        rng = random.Random(7)
        for _ in range(10):
            mu = random_monotone_set_function(rng, abc)
            top = mu.value(Event.full(abc).indicator())
            g = random_gamble(rng, abc)
            lam = F(rng.randint(0, 4), 2)
            shift = random_rational(rng)
            lhs = choquet_integral(mu, lam * g + shift).value
            assert lhs == lam * choquet_integral(mu, g).value + shift * top

    def test_lipschitz(self, abc):
        rng = random.Random(9)
        for _ in range(10):
            mu = random_monotone_set_function(rng, abc)
            top = mu.value(Event.full(abc).indicator())
            f, g = random_gamble(rng, abc), random_gamble(rng, abc)
            gap = max(abs(a - b) for a, b in zip(f.values, g.values))
            diff = abs(choquet_integral(mu, f).value - choquet_integral(mu, g).value)
            assert diff <= top * gap


class TestComonotoneAdditivityOfIntegral:
    def test_direct_on_monotone_set_functions(self, abc):
        rng = random.Random(11)
        for _ in range(15):
            mu = random_monotone_set_function(rng, abc)
            f, g = comonotone_pair(rng, abc)
            total = choquet_integral(mu, f + g).value
            assert total == choquet_integral(mu, f).value + choquet_integral(mu, g).value


class TestIsComonotoneAdditive:
    def test_choquet_restrictions_pass(self, abc):
        rng = random.Random(13)
        for make in (random_completely_monotone, random_floor_additive):
            mu = make(rng, abc)
            lattice = random_gamble_lattice(rng, abc, generators=2, include_constants=(1,))
            values = Assessment.of(
                abc, ((g, choquet_integral(mu, g).value) for g in lattice)
            )
            verdict = is_comonotone_additive(values)
            assert verdict.holds

    def test_closure_fails_with_join_meet_pair(self, step_closure_assessment, abc, step_gamble):
        verdict = is_comonotone_additive(step_closure_assessment)
        assert not verdict.holds
        unit = Gamble.constant(abc, 1)
        witness = verdict.witness
        assert {witness.f, witness.g} == {join(step_gamble, unit), meet(step_gamble, unit)}
        assert witness.sum_value == 2
        assert witness.parts_total == F(3, 2)
        assert witness.via_extension

    def test_linear_prevision_passes(self, abc):
        rng = random.Random(17)
        mass = random_probability(rng, abc)
        lattice = random_gamble_lattice(rng, abc, generators=2)
        assert is_comonotone_additive(mass.restrict(lattice)).holds

    def test_non_lattice_rejected(self, ab):
        p = Assessment.of(ab, {Gamble.make(ab, [1, 0]): 0, Gamble.make(ab, [0, 1]): 0})
        with pytest.raises(DomainError):
            is_comonotone_additive(p)

    def test_inexact_lattice_with_an_off_domain_sum_is_rejected(self, ab):
        # no dominating mass attains (1, 0) and (0, 1) at once; (0, 1) + (1, 1)
        # is the first comonotone sum outside the domain
        values = {(0, 0): 0, (1, 0): 1, (0, 1): 1, (1, 1): 1}
        p = Assessment.of(ab, {Gamble.make(ab, v): x for v, x in values.items()})
        assert p.lattice is not None and norm(p) == math.inf
        with pytest.raises(DomainError) as err:
            is_comonotone_additive(p)
        assert str(err.value) == (
            "cannot evaluate the sum of (Fraction(0, 1), Fraction(1, 1)) and "
            "(Fraction(1, 1), Fraction(1, 1)): the assessment is not exact"
        )

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_inexact_lattices_against_the_pairwise_walk(self, seed):
        # arbitrary values on a gamble lattice are almost never exact: the
        # first comonotone pair off the additivity, or off the domain, decides
        rng = random.Random(seed)
        space = Space(tuple("abc"[: rng.randint(2, 3)]))
        lattice = random_gamble_lattice(rng, space, rng.randint(1, 3), include_constants=(0,))
        p = Assessment.of(space, ((g, random_rational(rng, -2, 2, 4)) for g in lattice))
        assume(norm(p) == math.inf)
        for f, g in itertools.combinations(p.domain, 2):
            if not pairwise_comonotone(f, g):
                continue
            if f + g not in p:
                message = (f"cannot evaluate the sum of {f.values} and {g.values}: "
                           "the assessment is not exact")
                with pytest.raises(DomainError) as err:
                    is_comonotone_additive(p)
                assert str(err.value) == message
                return
            if p.value(f + g) != p.value(f) + p.value(g):
                verdict = is_comonotone_additive(p)
                assert not verdict.holds and (verdict.witness.f, verdict.witness.g) == (f, g)
                assert verdict.info == {"extended_pairs": ()}
                return
        assert is_comonotone_additive(p) == Verdict(True, info={"extended_pairs": ()})


class TestRepresentation:
    def test_choquet_equals_natural_extension(self, abc):
        rng = random.Random(19)
        for _ in range(5):
            lattice = random_event_lattice(rng, abc)
            base = random_completely_monotone(rng, abc, total=F(rng.randint(1, 3), 2))
            restricted = Assessment.on_events(
                abc, ((e, base.value(e.indicator())) for e in lattice)
            )
            inner = powerset_inner(restricted)
            for _ in range(6):
                g = random_gamble(rng, abc)
                assert (
                    choquet_integral(inner, g).value
                    == natural_extension_exact(restricted, g)
                )

    def test_chain_preservation_positive(self, abc):
        rng = random.Random(23)
        mu = random_floor_additive(rng, abc)
        assert is_n_monotone(mu, 2).holds
        lattice = random_gamble_lattice(rng, abc, generators=2)
        extension = Assessment.of(
            abc, ((g, choquet_integral(mu, g).value) for g in lattice)
        )
        assert is_n_monotone(extension, 2).holds

    def test_unique_two_monotone_extension_is_the_integral(self):
        # the canonical credal representation of a supermodular set
        # function (the envelope of its permutation marginal vectors) is
        # its one 2-monotone exact extension, i.e. the Choquet integral
        import itertools

        from lowerprev import LowerEnvelope

        rng = random.Random(29)
        for trial in range(6):
            space = Space.make("abcd"[: rng.choice((3, 4))])
            mu = (
                random_floor_additive(rng, space)
                if trial % 2
                else random_completely_monotone(rng, space, total=F(rng.randint(1, 3), 2))
            )
            by_mask = {g.as_event().mask: v for g, v in mu.entries}
            vectors = []
            for perm in itertools.permutations(range(space.size)):
                masses = [ZERO] * space.size
                mask = 0
                for w in perm:
                    previous = by_mask[mask]
                    mask |= 1 << w
                    masses[w] = by_mask[mask] - previous
                vectors.append(MassFunctional(space, tuple(masses)))
            envelope = LowerEnvelope(tuple(vectors))
            for _ in range(8):
                g = random_gamble(rng, space)
                integral = choquet_integral(mu, g).value
                assert envelope(g) == integral
                assert natural_extension_exact(mu, g) == integral

    def test_chain_preservation_negative(self):
        # the envelope of two disjointly supported coin flips is exact
        # on four outcomes but not 2-monotone
        abcd = Space(("a", "b", "c", "d"))
        halves = (
            MassFunctional.make(abcd, ["1/2", "1/2", 0, 0]),
            MassFunctional.make(abcd, [0, 0, "1/2", "1/2"]),
        )
        entries = []
        for event in abcd.all_events():
            entries.append((event, min(m.event_value(event) for m in halves)))
        mu = Assessment.on_events(abcd, entries)
        report = is_n_monotone(mu, 2)
        assert not report.holds
        # the witness events embed into any sampled lattice that contains them
        v = report.violation
        witness_lattice = lattice_closure([v.base, *v.companions])
        values = Assessment.of(
            abcd, ((g, natural_extension_exact(mu, g)) for g in witness_lattice)
        )
        assert not is_n_monotone(values, 2).holds
