import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lowerprev import (
    Assessment,
    ClosureBudgetError,
    DomainError,
    Event,
    Gamble,
    HomomorphismTable,
    LowerEnvelope,
    MassFunctional,
    Space,
    compose_homomorphism,
    conjugate,
    inner_extension,
    inner_set_function,
    is_completely_monotone,
    is_lattice_closed,
    is_n_alternating,
    is_n_monotone,
    join,
    lattice_closure,
    minimum_preserving_check,
    minimum_table,
    mobius,
    natural_extension_exact,
    powerset_inner,
    sort_gambles,
    vacuous,
)
from lowerprev.monotone import MonotonicityReport, MonotonicityViolation, revalidate_violation
from lowerprev.sampling import (
    random_completely_monotone,
    random_event_lattice,
    random_gamble_lattice,
    random_probability,
)

from .oracles import multiset_n_monotone, ordered_scan, subset_mobius

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

    @pytest.mark.parametrize(
        "entries",
        [
            {(1, 2): 1},
            {(0, 0, 0): 0, (1, 2, 0): 1, (2, 3, 1): 2},
        ],
        ids=["single-gamble", "three-chain"],
    )
    def test_clean_gamble_lattice_verifies_every_order(self, entries):
        width = len(next(iter(entries)))
        space = Space(("a", "b", "c")[:width])
        p = Assessment.of(space, {Gamble.make(space, g): v for g, v in entries.items()})
        for check in (is_n_monotone, is_n_alternating):
            report = check(p, INF)
            assert report.holds
            assert report.max_verified == INF

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


SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=3)
PROPERTY = settings(derandomize=True, max_examples=80, deadline=None)
ORDERS = st.sampled_from([1, 2, 3, 4, INF])


@st.composite
def lattice_domains(draw) -> tuple[Space, tuple[Gamble, ...]]:
    """A closure of gambles with non-integer coordinates, an event
    lattice (the closure of a few events), or a full power set."""
    m = draw(st.integers(2, 3))
    space = Space(("a", "b", "c")[:m])
    shape = draw(st.sampled_from(["gambles", "events", "powerset"]))
    if shape == "powerset":
        return space, tuple(e.indicator() for e in space.all_events())
    if shape == "events":
        masks = st.lists(st.integers(0, (1 << m) - 1), min_size=2, max_size=4, unique=True)
        generators = [Event.from_mask(space, k).indicator() for k in draw(masks)]
    else:
        vectors = st.lists(st.tuples(*[SMALL] * m), min_size=2, max_size=4, unique=True)
        generators = [Gamble.make(space, v) for v in draw(vectors)]
    try:
        return space, lattice_closure(generators, budget=8)
    except ClosureBudgetError:
        assume(False)


def masses(space: Space):
    weights = st.lists(st.integers(1, 4), min_size=space.size, max_size=space.size)
    return weights.map(lambda w: MassFunctional.make(space, [F(x, sum(w)) for x in w]))


@st.composite
def lattice_assessments(draw) -> Assessment:
    """A probability mass's values (monotone and alternating of every
    order), a lower envelope's (monotone, often not 2-monotone), or
    arbitrary values, on a lattice domain."""
    space, domain = draw(lattice_domains())
    valuation = draw(st.sampled_from(["mass", "envelope", "arbitrary"]))
    if valuation == "mass":
        return draw(masses(space)).restrict(domain)
    if valuation == "envelope":
        members = draw(st.lists(masses(space), min_size=2, max_size=3))
        return LowerEnvelope(tuple(members)).restrict(domain)
    values = draw(st.lists(SMALL, min_size=len(domain), max_size=len(domain)))
    return Assessment.of(space, zip(domain, values))


class TestScanAgainstOracles:
    """The difference-recursion scan against the ordered 2^p-term scan
    and the multiset enumeration, on whole reports."""

    @PROPERTY
    @given(lattice_assessments(), ORDERS, st.booleans())
    def test_report_matches_ordered_scan(self, p, n, alternating):
        assume(n != INF or len(p) <= 7)  # the reference scans every order below the size
        check = is_n_alternating if alternating else is_n_monotone
        report = check(p, n)
        if n == INF and alternating:
            # complete alternation is decided as complete monotonicity of the conjugate
            subject = conjugate(p)
            mirror = ordered_scan(subject, n)
            violation = None if mirror.holds else mirror.violation.conjugate()
            expected = MonotonicityReport(n, mirror.max_verified, violation)
        else:
            subject = p
            expected = ordered_scan(p, n, alternating)
        masks = subject.by_mask or {}
        if n == INF and 0 in masks and (1 << p.space.size) - 1 in masks:
            # decided by an inversion certificate, whose witness is the
            # tuple of a negative coefficient, not the first tuple
            assert report.holds == expected.holds
        else:
            assert report == expected
        if report.violation is not None:
            assert report.violation.check(p)

    @PROPERTY
    @given(lattice_assessments(), st.integers(1, 3), st.booleans())
    def test_verdict_matches_multiset_enumeration(self, p, n, alternating):
        assume(len(p) <= 6 or n <= 2)
        check = is_n_alternating if alternating else is_n_monotone
        assert check(p, n).holds == multiset_n_monotone(p, n, alternating)

    @settings(PROPERTY, max_examples=40)
    @given(lattice_domains(), st.data())
    def test_non_lattice_domain_rejected(self, drawn, data):
        space, domain = drawn
        holes = [
            domain[:k] + domain[k + 1:]
            for k in range(len(domain))
            if not is_lattice_closed(domain[:k] + domain[k + 1:])
        ]
        assume(holes)
        p = Assessment.of(space, ((g, 0) for g in data.draw(st.sampled_from(holes))))
        for check in (is_n_monotone, is_n_alternating):
            for n in (1, 2, INF):
                with pytest.raises(DomainError, match="not lattice-closed"):
                    check(p, n)


class TestFastMobius:
    @pytest.mark.parametrize("m", range(1, 8))
    def test_matches_subset_loop(self, m):
        rng = random.Random(109 + m)
        space = Space(tuple("abcdefg"[:m]))
        p = Assessment.on_events(
            space, ((e, F(rng.randint(-6, 6), rng.randint(1, 4))) for e in space.all_events())
        )
        transform = mobius(p)
        expected = subset_mobius(p.by_mask, m)
        assert transform.coefficients == tuple(enumerate(expected))
        for event in space.all_events():
            assert transform.reconstruct(event) == p.value(event.indicator())

    @pytest.mark.parametrize("m", range(2, 6))
    def test_certificate_witness_is_first_negative_coefficient(self, m):
        rng = random.Random(113 + m)
        space = Space(tuple("abcde"[:m]))
        for _ in range(4):
            values = {e: F(rng.randint(0, 4), 4) for e in space.all_events()}
            values[Event.empty(space)] = F(0)
            p = Assessment.on_events(space, values)
            coefficients = subset_mobius(p.by_mask, m)
            negative = [k for k in range(1, 1 << m) if coefficients[k] < 0]
            verdict = is_completely_monotone(p)
            report = is_n_monotone(p, INF)
            assert verdict.holds == report.holds == (not negative)
            if not negative:
                continue
            event = Event.from_mask(space, negative[0])
            expected = MonotonicityViolation(
                order=event.size,
                base=event.indicator(),
                companions=tuple(
                    Event(space, event.members - {w}).indicator() for w in sorted(event.members)
                ),
                total=coefficients[negative[0]],
            )
            assert verdict.witness == report.violation == expected
            assert verdict.info == {"event": event.labels, "coefficient": expected.total}


class TestEventBudget:
    """Routines over all 2^m events fail fast on the closure budget."""

    @pytest.fixture
    def full(self, abc):
        return Assessment.on_events(abc, ((e, F(e.size, 3)) for e in abc.all_events()))

    @pytest.fixture
    def chain(self, abc):
        return Assessment.on_events(abc, {Event.empty(abc): 0, Event.full(abc): 1})

    def test_over_budget_raises(self, abc, full, chain, monkeypatch):
        monkeypatch.setenv("LOWERPREV_LATTICE_BUDGET", "7")
        with pytest.raises(ClosureBudgetError):
            abc.all_events()  # raised on the call, before any event is made
        with pytest.raises(ClosureBudgetError):
            mobius(full)
        with pytest.raises(ClosureBudgetError):
            powerset_inner(chain)

    def test_at_budget_runs(self, abc, full, chain, monkeypatch):
        monkeypatch.setenv("LOWERPREV_LATTICE_BUDGET", "8")
        assert len(list(abc.all_events())) == 8
        assert len(mobius(full).coefficients) == 8
        assert len(powerset_inner(chain)) == 8


class TestInfiniteOrderBudget:
    """The order-inf scan of a gamble lattice fails fast on the closure budget."""

    @staticmethod
    def probability_on(closure):
        space = closure[0].space
        return MassFunctional.make(space, [F(1, space.size)] * space.size).restrict(closure)

    @pytest.fixture
    def twenty(self):
        space = Space(tuple("abcde"))
        generators = [
            Gamble.make(space, [-1, 2, 1, -2, F(-3, 2)]),
            Gamble.make(space, [F(-3, 4), F(-7, 4), F(1, 4), -2, 0]),
            Gamble.make(space, [F(7, 4), 1, F(5, 4), 1, F(3, 2)]),
            Gamble.constant(space, 0),
            Gamble.constant(space, 1),
        ]
        closure = lattice_closure(generators)
        assert len(closure) == 20
        return self.probability_on(closure)

    @pytest.fixture
    def cube(self, abc):
        # {0, 2} x {0, 1} x {0, 1}: a gamble lattice, not an event lattice
        closure = sort_gambles(
            Gamble.make(abc, [2 * a, b, c]) for a in (0, 1) for b in (0, 1) for c in (0, 1)
        )
        return self.probability_on(closure)

    def test_twenty_elements_raise_before_order_five(self, twenty):
        # orders 1..4 visit 20 + 190 + 1140 + 4845 = 6195 tuples; order 5
        # would bring the count to 21699, past the budget of 10000
        with pytest.raises(ClosureBudgetError, match="order 5 of a 20-element"):
            is_n_monotone(twenty, INF)
        with pytest.raises(ClosureBudgetError, match="order 5 of a 20-element"):
            is_n_alternating(twenty, INF)

    def test_violation_inside_the_budget_is_reported(self, monkeypatch):
        # decided on the conjugate, a 16-element gamble lattice whose
        # 2**16 - 2 tuples exceed the budget: the order-2 violation is
        # found after 16 + 120 = 136 of them
        f = random_completely_monotone(random.Random(1), Space(tuple("abcd")))
        report = is_n_alternating(f, INF)
        assert (report.max_verified, report.violation.order) == (1, 2)
        assert report.violation.total == F(6, 29)
        assert revalidate_violation(f, report.violation) == report.violation.total
        monkeypatch.setenv("LOWERPREV_LATTICE_BUDGET", "136")
        assert is_n_alternating(f, INF) == report
        monkeypatch.setenv("LOWERPREV_LATTICE_BUDGET", "135")
        with pytest.raises(ClosureBudgetError, match="order 2 of a 16-element"):
            is_n_alternating(f, INF)

    def test_finite_orders_still_scan(self, twenty):
        assert is_n_monotone(twenty, 2).holds
        assert is_n_alternating(twenty, 2).holds

    def test_budget_variable(self, cube, monkeypatch):
        # 8 elements: 2**8 - 2 = 254 companion tuples
        monkeypatch.setenv("LOWERPREV_LATTICE_BUDGET", "253")
        with pytest.raises(ClosureBudgetError):
            is_n_monotone(cube, INF)
        with pytest.raises(ClosureBudgetError):
            is_n_alternating(cube, INF)
        assert is_n_monotone(cube, 7) == MonotonicityReport(7, 7, None)
        monkeypatch.setenv("LOWERPREV_LATTICE_BUDGET", "254")
        assert is_n_monotone(cube, INF) == MonotonicityReport(INF, INF, None)
        assert is_n_alternating(cube, INF) == MonotonicityReport(INF, INF, None)
