import math
import random
from fractions import Fraction as F

import pytest

from lowerprev import (
    Assessment,
    DomainError,
    Event,
    Gamble,
    HomomorphismTable,
    MassFunctional,
    compose_homomorphism,
    conjugate,
    inner_extension,
    inner_set_function,
    is_completely_monotone,
    is_n_alternating,
    is_n_monotone,
    join,
    lattice_closure,
    minimum_preserving_check,
    minimum_table,
    mobius,
    natural_extension_exact,
    powerset_inner,
    vacuous,
)
from lowerprev.monotone import revalidate_violation
from lowerprev.sampling import (
    random_completely_monotone,
    random_event_lattice,
    random_gamble_lattice,
    random_probability,
)

from .oracles import multiset_n_monotone

INF = math.inf


class TestIsNMonotone:
    def test_closure_violation(self, step_closure_assessment, abc, step_gamble):
        report = is_n_monotone(step_closure_assessment, 2)
        assert not report.holds
        violation = report.violation
        unit = Gamble.constant(abc, 1)
        assert violation.base == join(step_gamble, unit)
        assert set(violation.companions) == {step_gamble, unit}
        assert violation.total == F(-1, 2)
        assert report.max_verified == 1
        assert revalidate_violation(step_closure_assessment, violation) == F(-1, 2)

    def test_event_restriction_passes(self, step_event_assessment):
        assert is_n_monotone(step_event_assessment, 2).holds

    def test_uniform_expectation(self, abc):
        rng = random.Random(41)
        mass = MassFunctional.make(abc, ["1/3", "1/3", "1/3"])
        lattice = random_gamble_lattice(rng, abc, generators=3)
        assert is_n_monotone(mass.restrict(lattice), 4).holds

    def test_non_lattice_domain_rejected(self, ab):
        p = Assessment.of(ab, {Gamble.make(ab, [1, 0]): 0, Gamble.make(ab, [0, 1]): 0})
        with pytest.raises(DomainError):
            is_n_monotone(p, 2)

    def test_bool_order_rejected(self, step_event_assessment):
        for order in (True, False):
            with pytest.raises(ValueError):
                is_n_monotone(step_event_assessment, order)
            with pytest.raises(ValueError):
                is_n_alternating(step_event_assessment, order)

    def test_empty_assessment_verifies_every_order(self, abc):
        empty = Assessment(abc, ())
        for order in (1, 3, INF):
            for check in (is_n_monotone, is_n_alternating):
                report = check(empty, order)
                assert report.holds
                assert report.max_verified == order

    def test_downward_closure(self, abc):
        rng = random.Random(43)
        for _ in range(5):
            lattice = random_gamble_lattice(rng, abc, generators=2)
            p = random_probability(rng, abc).restrict(lattice)
            if is_n_monotone(p, 3).holds:
                assert is_n_monotone(p, 2).holds
                assert is_n_monotone(p, 1).holds


class TestDistinctTupleReduction:
    def test_matches_multiset_enumeration(self, ab):
        # arbitrary (often non-monotone) values on 4-element lattices
        rng = random.Random(47)
        lattice = lattice_closure([Gamble.make(ab, [1, 0]), Gamble.make(ab, [0, 1])])
        for _ in range(40):
            values = [F(rng.randint(-2, 4), 2) for _ in lattice]
            p = Assessment.of(ab, zip(lattice, values))
            for n in (1, 2, 3):
                assert is_n_monotone(p, n).holds == multiset_n_monotone(p, n)


class TestIsNAlternating:
    def test_upper_vacuous(self, abc):
        rng = random.Random(53)
        lattice = random_gamble_lattice(rng, abc, generators=2)
        upper = Assessment.of(abc, ((g, g.sup) for g in lattice))
        for n in (1, 2, 3):
            assert is_n_alternating(upper, n).holds

    def test_linear_prevision(self, abc):
        rng = random.Random(59)
        lattice = random_gamble_lattice(rng, abc, generators=2)
        p = random_probability(rng, abc).restrict(lattice)
        assert is_n_alternating(p, 3).holds

    def test_conjugate_of_closure_violates(self, step_closure_assessment):
        flipped = conjugate(step_closure_assessment)
        report = is_n_alternating(flipped, 2)
        assert not report.holds
        assert report.violation.total > 0
        assert revalidate_violation(flipped, report.violation) == report.violation.total

    def test_agrees_with_conjugate_route(self, abc):
        rng = random.Random(61)
        for _ in range(5):
            lattice = random_gamble_lattice(rng, abc, generators=2)
            values = [F(rng.randint(-2, 4), 2) for _ in lattice]
            p = Assessment.of(abc, zip(lattice, values))
            for n in (1, 2, 3):
                assert is_n_alternating(p, n).holds == is_n_monotone(conjugate(p), n).holds


class TestInnerSetFunction:
    @pytest.fixture
    def chain(self, abc):
        labels = [frozenset(), {"a"}, {"a", "b"}, {"a", "b", "c"}]
        values = ["0", "1/4", "1/2", "1"]
        return Assessment.on_events(
            abc, ((Event.from_labels(abc, e), v) for e, v in zip(labels, values))
        )

    def test_coincides_on_domain(self, chain, abc):
        assert inner_set_function(chain, Event.from_labels(abc, ["a", "b"])) == F(1, 2)

    def test_partial_overlap(self, chain, abc):
        assert inner_set_function(chain, Event.from_labels(abc, ["a", "c"])) == F(1, 4)

    def test_only_empty_inside(self, chain, abc):
        assert inner_set_function(chain, Event.from_labels(abc, ["c"])) == 0

    def test_needs_empty_and_full(self, abc):
        p = Assessment.on_events(abc, {Event.from_labels(abc, ["a"]): "1/2"})
        with pytest.raises(DomainError):
            inner_set_function(p, Event.full(abc))

    def test_preserves_n_monotonicity(self, abc):
        rng = random.Random(67)
        for _ in range(6):
            lattice = random_event_lattice(rng, abc)
            base = random_completely_monotone(rng, abc)
            restricted = Assessment.on_events(
                abc, ((e, base.value(e.indicator())) for e in lattice)
            )
            extended = powerset_inner(restricted)
            for n in (2, 3):
                assert is_n_monotone(extended, n).holds

    def test_agrees_with_natural_extension_on_events(self, abc):
        rng = random.Random(71)
        for _ in range(4):
            lattice = random_event_lattice(rng, abc)
            base = random_completely_monotone(rng, abc, total=F(rng.randint(1, 3), 2))
            restricted = Assessment.on_events(
                abc, ((e, base.value(e.indicator())) for e in lattice)
            )
            for event in abc.all_events():
                assert inner_set_function(restricted, event) == natural_extension_exact(
                    restricted, event.indicator()
                )


class TestInnerExtension:
    @pytest.fixture
    def three_gambles(self, ab):
        return Assessment.of(
            ab,
            {
                Gamble.constant(ab, 0): 0,
                Gamble.make(ab, [1, 1]): 1,
                Gamble.make(ab, [2, 0]): "1/2",
            },
        )

    def test_domain_point(self, three_gambles, ab):
        assert inner_extension(three_gambles, Gamble.make(ab, [1, 1])) == 1

    def test_all_candidates(self, three_gambles, ab):
        assert inner_extension(three_gambles, Gamble.make(ab, [2, 1])) == 1

    def test_partial_candidates(self, three_gambles, ab):
        assert inner_extension(three_gambles, Gamble.make(ab, ["2", "1/2"])) == F(1, 2)

    def test_empty_candidates(self, three_gambles, ab):
        with pytest.raises(DomainError):
            inner_extension(three_gambles, Gamble.make(ab, [-1, -1]))

    def test_preserves_n_monotonicity(self, abc):
        rng = random.Random(73)
        for _ in range(5):
            floor = Gamble.constant(abc, -3)
            domain = random_gamble_lattice(rng, abc, generators=2)
            domain = lattice_closure(list(domain) + [floor])
            p = vacuous(Event.from_labels(abc, ["b", "c"]), domain)
            sampled = random_gamble_lattice(rng, abc, generators=2)
            inner_values = Assessment.of(
                abc, ((g, inner_extension(p, g)) for g in sampled)
            )
            for n in (2, 3):
                assert is_n_monotone(inner_values, n).holds


class TestMobius:
    def test_uniform(self, ab):
        uniform = Assessment.on_events(
            ab, ((e, F(e.size, 2)) for e in ab.all_events())
        )
        transform = mobius(uniform)
        coefficients = {e.labels: c for e, c in transform.items()}
        assert coefficients == {
            (): 0,
            ("a",): F(1, 2),
            ("b",): F(1, 2),
            ("a", "b"): 0,
        }

    def test_vacuous_set_function(self, abc):
        entries = ((e, F(int(e.size == 3))) for e in abc.all_events())
        transform = mobius(Assessment.on_events(abc, entries))
        for event, coefficient in transform.items():
            assert coefficient == (1 if event.size == 3 else 0)

    def test_step_event_restriction(self, step_event_assessment, abc):
        transform = mobius(step_event_assessment)
        nonzero = {e.labels: c for e, c in transform.items() if c != 0}
        assert nonzero == {("b", "c"): F(1, 2), ("a", "b", "c"): F(1, 2)}

    def test_inversion_round_trip(self, abc):
        rng = random.Random(79)
        values = {e: F(rng.randint(-3, 6), 3) for e in abc.all_events()}
        p = Assessment.on_events(abc, values)
        transform = mobius(p)
        for event, value in values.items():
            assert transform.reconstruct(event) == value

    def test_partial_domain_rejected(self, abc):
        p = Assessment.on_events(abc, {Event.full(abc): 1, Event.empty(abc): 0})
        with pytest.raises(DomainError):
            mobius(p)


class TestIsCompletelyMonotone:
    def test_additive_probability(self, abc):
        rng = random.Random(83)
        mass = random_probability(rng, abc)
        assert is_completely_monotone(mass.as_set_function()).holds

    def test_vacuous_set_function(self, abc):
        entries = ((e, F(int(e.size == 3))) for e in abc.all_events())
        assert is_completely_monotone(Assessment.on_events(abc, entries)).holds

    def test_step_event_restriction(self, step_event_assessment):
        assert is_completely_monotone(step_event_assessment).holds

    def test_negative_coefficient_witnessed(self, abc):
        # pairs at 1/2 with a unit total forces a negative top coefficient
        entries = {
            e: (F(1, 2) if e.size == 2 else F(int(e.size == 3))) for e in abc.all_events()
        }
        p = Assessment.on_events(abc, entries)
        verdict = is_completely_monotone(p)
        assert not verdict.holds
        violation = verdict.witness
        assert violation.total == F(-1, 2)
        assert revalidate_violation(p, violation) == violation.total
        # the certificate agrees with the exhaustive scan
        assert not is_n_monotone(p, INF).holds
        assert is_n_monotone(p, 2).holds

    def test_infinite_marker_routes_agree(self, abc):
        rng = random.Random(89)
        for _ in range(6):
            p = random_completely_monotone(rng, abc)
            assert is_n_monotone(p, INF).holds
            lattice = random_event_lattice(rng, abc)
            restricted = Assessment.on_events(
                abc, ((e, p.value(e.indicator())) for e in lattice)
            )
            report = is_n_monotone(restricted, INF)
            assert report.holds

    def test_infinite_marker_rejects_non_monotone_event_lattice(self, abc):
        # the empty event priced above the full one: the infinite-order
        # route must find the order-1 violation, not certify via the
        # (vacuously monotone) inner set function
        chain = [Event.empty(abc), Event.from_labels(abc, ["a"]), Event.full(abc)]
        p = Assessment.on_events(abc, zip(chain, (F(1, 2), F(0), F(1))))
        report = is_n_monotone(p, INF)
        assert not report.holds
        assert report.violation.order == 1
        assert revalidate_violation(p, report.violation) == report.violation.total

    def test_infinite_alternating_witness_revalidates_through_conjugate(self, abc):
        # a sub-power-set event assessment that is not completely
        # monotone: its conjugate fails complete alternation, and the
        # via-inner witness must re-check through the conjugate
        lattice = [
            Event.empty(abc),
            Event.from_labels(abc, ["a", "b"]),
            Event.from_labels(abc, ["b", "c"]),
            Event.from_labels(abc, ["b"]),
            Event.full(abc),
        ]
        values = {e.mask: F(0) for e in lattice}
        values[Event.from_labels(abc, ["a", "b"]).mask] = F(1, 2)
        values[Event.from_labels(abc, ["b", "c"]).mask] = F(1, 2)
        values[Event.full(abc).mask] = F(1, 2)
        p = Assessment.on_events(abc, ((e, values[e.mask]) for e in lattice))
        assert not is_n_monotone(p, INF).holds
        flipped = conjugate(p)
        report = is_n_alternating(flipped, INF)
        assert not report.holds
        assert report.violation.via_inner and report.violation.alternating
        assert revalidate_violation(flipped, report.violation) == report.violation.total


class TestComposeHomomorphism:
    def test_relative_minimum_gives_vacuous(self, abc):
        rng = random.Random(97)
        domain = random_gamble_lattice(rng, abc, generators=2)
        event = Event.from_labels(abc, ["b", "c"])
        table = minimum_table(domain, event)
        constants = sorted({t.values[0] for t in table.targets})
        base = Assessment.of(
            abc, ((Gamble.constant(abc, c), c) for c in constants)
        )  # natural extension of the two-point unit scale at the constants
        composed = compose_homomorphism(base, table)
        expected = vacuous(event, domain)
        assert composed.entries == expected.entries

    def test_identity(self, step_closure_assessment):
        table = HomomorphismTable.tabulate(
            step_closure_assessment.domain, lambda g: g
        )
        assert (
            compose_homomorphism(step_closure_assessment, table).entries
            == step_closure_assessment.entries
        )

    def test_chain_collapse_stays_monotone(self, ab):
        lattice = lattice_closure([Gamble.make(ab, [1, 0]), Gamble.make(ab, [0, 1])])
        table = minimum_table(lattice, Event.from_labels(ab, ["a"]))
        constants = sorted({t.values[0] for t in table.targets})
        base = Assessment.of(ab, ((Gamble.constant(ab, c), c) for c in constants))
        composed = compose_homomorphism(base, table)
        for n in (1, 2, 3):
            assert is_n_monotone(composed, n).holds

    def test_non_homomorphism_rejected(self, ab):
        table = HomomorphismTable(
            (
                (Gamble.make(ab, [0, 1]), Gamble.make(ab, [0, 0])),
                (Gamble.make(ab, [1, 0]), Gamble.make(ab, [0, 0])),
                (Gamble.make(ab, [0, 0]), Gamble.make(ab, [1, 1])),
            )
        )
        p = Assessment.of(ab, {Gamble.make(ab, [0, 0]): 0, Gamble.make(ab, [1, 1]): 1})
        with pytest.raises(DomainError):
            compose_homomorphism(p, table)

    def test_preserves_n_monotonicity_on_samples(self, abc):
        rng = random.Random(101)
        for _ in range(4):
            domain = random_gamble_lattice(rng, abc, generators=2)
            event = Event.from_labels(abc, ["a", "c"])
            table = minimum_table(domain, event)
            constants = sorted({t.values[0] for t in table.targets})
            base = MassFunctional.make(abc, ["1/2", "1/4", "1/4"]).restrict(
                [Gamble.constant(abc, c) for c in constants]
            )
            composed = compose_homomorphism(base, table)
            for n in (2, 3):
                assert is_n_monotone(composed, n).holds


class TestVacuous:
    def test_full_space(self, abc, step_gamble):
        assert vacuous(Event.full(abc), [step_gamble]).value(step_gamble) == 0

    def test_singleton(self, abc, step_gamble):
        event = Event.from_labels(abc, ["c"])
        assert vacuous(event, [step_gamble]).value(step_gamble) == 2

    def test_pair(self, abc, step_gamble):
        event = Event.from_labels(abc, ["b", "c"])
        assert vacuous(event, [step_gamble]).value(step_gamble) == 1

    def test_empty_event_rejected(self, abc, step_gamble):
        with pytest.raises(DomainError):
            vacuous(Event.empty(abc), [step_gamble])


class TestMinimumPreserving:
    def test_vacuous_is_minimum_preserving(self, abc):
        rng = random.Random(103)
        domain = random_gamble_lattice(rng, abc, generators=2)
        p = vacuous(Event.from_labels(abc, ["a", "b"]), domain)
        assert minimum_preserving_check(p).holds

    def test_uniform_expectation_is_not(self, ab):
        lattice = lattice_closure([Gamble.make(ab, [1, 0]), Gamble.make(ab, [0, 1])])
        p = MassFunctional.make(ab, ["1/2", "1/2"]).restrict(lattice)
        verdict = minimum_preserving_check(p)
        assert not verdict.holds
        witness = verdict.witness
        assert {witness.f, witness.g} == {Gamble.make(ab, [1, 0]), Gamble.make(ab, [0, 1])}
        assert witness.value_of_meet == 0
        assert witness.min_of_values == F(1, 2)

    def test_monotone_chain_always_passes(self, abc):
        chain = [Gamble.constant(abc, c) for c in range(4)]
        p = Assessment.of(abc, ((g, F(i, 2)) for i, g in enumerate(chain)))
        assert minimum_preserving_check(p).holds

    def test_implies_complete_monotonicity(self, abc):
        rng = random.Random(107)
        for _ in range(4):
            domain = random_gamble_lattice(rng, abc, generators=2)
            p = vacuous(Event.from_labels(abc, ["b"]), domain)
            assert minimum_preserving_check(p).holds
            assert is_n_monotone(p, INF).holds
