import math
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowerprev import (
    Assessment,
    DomainError,
    Event,
    Gamble,
    InfeasibleTotalError,
    MassFunctional,
    NotExactError,
    Space,
    SureLossError,
    Verdict,
    avoids_sure_loss,
    conjugate,
    decompose,
    find_attaining,
    inner_set_function,
    is_coherent,
    is_comonotone_additive,
    is_exact,
    is_n_monotone,
    join,
    meet,
    natural_extension_exact,
    natural_extension_prevision,
    norm,
)
from lowerprev import consistency, simplex
from lowerprev.consistency import (
    CoherenceGap,
    UnattainableGamble,
    _certified_table,
    _locally_two_monotone,
    extension_minimum,
)
from lowerprev.sampling import (
    random_completely_monotone,
    random_envelope,
    random_event_lattice,
    random_floor_additive,
    random_gamble,
)

from .conftest import step_extension_value
from .oracles import (
    credal_vertices,
    definitional_norm_single,
    lp_extension,
    lp_is_coherent,
    lp_norm_analysis,
    ordered_scan,
)

INF = math.inf


class TestEvaluate:
    def test_dot_product(self, abc, step_gamble):
        mass = MassFunctional.make(abc, ["1/2", 0, "1/2"])
        assert mass(step_gamble) == 1

    def test_zero_gamble(self, abc):
        mass = MassFunctional.make(abc, ["1/3", "1/5", 1])
        assert mass(Gamble.constant(abc, 0)) == 0

    def test_uniform_expectation(self, abc, step_gamble):
        mass = MassFunctional.make(abc, ["1/3", "1/3", "1/3"])
        assert mass(step_gamble) == 1

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.lists(st.fractions(0, 3, max_denominator=12), min_size=3, max_size=3),
           st.lists(st.fractions(-5, 5, max_denominator=9), min_size=3, max_size=3))
    def test_matches_fraction_dot_product(self, masses, values):
        abc = Space(("a", "b", "c"))
        mass = MassFunctional(abc, tuple(masses))
        expected = sum((m * v for m, v in zip(masses, values)), F(0))
        assert mass(Gamble(abc, tuple(values))) == expected


class TestAvoidsSureLoss:
    def test_overpriced_events(self, ab):
        bad = Assessment.on_events(
            ab,
            {
                Event.from_labels(ab, ["a"]): "3/5",
                Event.from_labels(ab, ["b"]): "3/5",
            },
        )
        verdict = avoids_sure_loss(bad)
        assert not verdict.holds
        witness = verdict.witness
        # sup of the combination falls short of the assessed total: 1 < 6/5
        assert witness.sup_combination == 1
        assert witness.assessed_total == F(6, 5)
        combined = witness.gambles[0] * witness.multiplicities[0]
        for g, k in zip(witness.gambles[1:], witness.multiplicities[1:]):
            combined = combined + g * k
        assert combined.sup == witness.sup_combination

    def test_empty_assessment(self, ab):
        assert avoids_sure_loss(Assessment(ab, ())).holds

    def test_dominated_events(self, ab):
        good = Assessment.on_events(
            ab,
            {
                Event.from_labels(ab, ["a"]): "3/10",
                Event.from_labels(ab, ["b"]): "1/2",
            },
        )
        verdict = avoids_sure_loss(good)
        assert verdict.holds
        mass = verdict.witness
        assert mass.total_mass == 1
        assert all(mass(g) >= v for g, v in good.entries)


class TestNaturalExtensionPrevision:
    def test_join_with_unit(self, step_assessment, step_gamble, abc):
        unit = Gamble.constant(abc, 1)
        assert natural_extension_prevision(step_assessment, join(step_gamble, unit)) == 1

    def test_meet_with_unit(self, step_assessment, step_gamble, abc):
        unit = Gamble.constant(abc, 1)
        assert natural_extension_prevision(step_assessment, meet(step_gamble, unit)) == F(1, 2)

    def test_two_event_segment(self, ab):
        p = Assessment.on_events(
            ab,
            {
                Event.from_labels(ab, ["a"]): "3/10",
                Event.from_labels(ab, ["b"]): "1/2",
            },
        )
        assert natural_extension_prevision(p, Gamble.make(ab, [2, 1])) == F(13, 10)

    def test_sure_loss_refused(self, ab):
        bad = Assessment.on_events(
            ab,
            {
                Event.from_labels(ab, ["a"]): "3/5",
                Event.from_labels(ab, ["b"]): "3/5",
            },
        )
        with pytest.raises(SureLossError):
            natural_extension_prevision(bad, Gamble.constant(ab, 0))

    def test_matches_vertex_enumeration(self, step_assessment, abc):
        rng = random.Random(3)
        vertices = credal_vertices(step_assessment, F(1))
        assert vertices  # the credal set is a nonempty polytope
        for _ in range(25):
            g = random_gamble(rng, abc)
            by_vertices = min(
                sum((m * x for m, x in zip(v, g.values)), F(0)) for v in vertices
            )
            assert natural_extension_prevision(step_assessment, g) == by_vertices


class TestIsCoherent:
    def test_step_assessment(self, step_assessment):
        assert is_coherent(step_assessment).holds

    def test_sure_loss_is_incoherent(self, ab):
        bad = Assessment.on_events(
            ab,
            {
                Event.from_labels(ab, ["a"]): "3/5",
                Event.from_labels(ab, ["b"]): "3/5",
            },
        )
        verdict = is_coherent(bad)
        assert not verdict.holds
        assert verdict.info == {"sure_loss": True}

    def test_unit_and_free_event(self, ab):
        p = Assessment.of(
            ab,
            {
                Gamble.constant(ab, 1): 1,
                Event.from_labels(ab, ["a"]).indicator(): 0,
            },
        )
        assert is_coherent(p).holds

    def test_gap_witness(self, ab):
        # I_a priced at 1/2 makes the sum assessment dominated but slack
        p = Assessment.of(
            ab,
            {
                Event.from_labels(ab, ["a"]).indicator(): "1/2",
                Event.from_labels(ab, ["b"]).indicator(): "1/4",
                Gamble.constant(ab, 1): "1/2",
            },
        )
        verdict = is_coherent(p)
        assert not verdict.holds
        gap = verdict.witness
        assert isinstance(gap, CoherenceGap)
        assert gap.extension > gap.assessed
        assert natural_extension_prevision(p, gap.gamble) == gap.extension


class TestNorm:
    def test_single_event(self, abc):
        a = Event.from_labels(abc, ["a"])
        p = Assessment.of(abc, {a.indicator(): "1/3"})
        assert norm(p) == F(1, 3)
        assert definitional_norm_single(a.indicator(), F(1, 3)) == F(1, 3)

    def test_single_positive_gamble(self, ab):
        f = Gamble.make(ab, [1, 2])
        p = Assessment.of(ab, {f: 1})
        assert norm(p) == F(1, 2)
        assert definitional_norm_single(f, F(1)) == F(1, 2)

    def test_zero_assessment(self, abc, step_gamble):
        p = Assessment.of(abc, {step_gamble: 0, Gamble.make(abc, [2, 0, 1]): 0})
        assert norm(p) == 0

    def test_definitional_oracle_on_random_singletons(self, abc):
        rng = random.Random(17)
        for _ in range(60):
            f = random_gamble(rng, abc)
            value = F(rng.randint(-4, 4), rng.randint(1, 3))
            p = Assessment.of(abc, {f: value})
            assert norm(p) == definitional_norm_single(f, value)


class TestIsExact:
    def test_two_monotone_events(self, step_event_assessment):
        assert _certified_table(step_event_assessment) is not None
        verdict = is_exact(step_event_assessment)
        assert verdict == Verdict(True, info={"norm": F(1)})
        assert lp_norm_analysis(step_event_assessment) == ("exact", F(1))

    def test_nonzero_empty_event(self, abc):
        entries = {e: F(1, 10) if e.size == 0 else F(e.size, 3) for e in abc.all_events()}
        p = Assessment.on_events(abc, entries)
        assert _certified_table(p) is None
        verdict = is_exact(p)
        kind, witness = lp_norm_analysis(p)
        assert not verdict.holds and kind == "unattainable"
        assert verdict.witness == witness == UnattainableGamble(Gamble.constant(abc, 0))

    def test_negative_gamble(self, ab):
        f = Gamble.make(ab, [-2, -1])
        p = Assessment.of(ab, {f: -2})
        verdict = is_exact(p)
        assert verdict.holds
        assert norm(p) == 1
        assert definitional_norm_single(f, F(-2)) == 1

    def test_infinite_norm_is_not_exact(self, ab):
        # monotonicity broken between comparable gambles
        p = Assessment.of(
            ab,
            {
                Event.from_labels(ab, ["a"]).indicator(): "1/2",
                Gamble.constant(ab, 1): "1/4",
            },
        )
        assert norm(p) == INF
        assert not is_exact(p).holds


@st.composite
def event_assessments(draw):
    """Set functions on full power sets (m = 1..4), on event sublattices and
    on domains that need not be lattice-closed: 2-monotone, envelope,
    maxitive (monotone, generally neither supermodular nor exact) and
    arbitrary values, with mixed denominators, at times shifted by a
    constant (which keeps 2-monotonicity) or at the empty event alone.

    Every choice comes from one seeded generator, so the examples spread
    evenly over the families instead of shrinking towards the first."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    space = Space(tuple("abcd"[: rng.randint(1, 4)]))
    family = rng.choice(["cm", "floor", "envelope", "maxitive", "arbitrary"])
    if family == "cm":
        total = F(rng.randint(0, 6), rng.choice([1, 2, 3, 5]))
        values = random_completely_monotone(rng, space, total).by_mask
    elif family == "floor":
        values = random_floor_additive(rng, space).by_mask
    elif family == "envelope":
        envelope = random_envelope(rng, space, rng.randint(1, 3))
        values = {e.mask: envelope(e.indicator()) for e in space.all_events()}
    elif family == "maxitive":
        weights = [F(rng.randint(1, 4), rng.choice([1, 2, 3])) for _ in space.outcomes()]
        values = {e.mask: max((weights[i] for i in e.members), default=F(0))
                  for e in space.all_events()}
    else:
        values = {
            e.mask: F(rng.randint(0, 6), rng.choice([1, 2, 3, 4, 6, 12])) if e.mask else F(0)
            for e in space.all_events()
        }
    shift = rng.choice(["none", "none", "constant", "empty"])
    if shift == "constant":
        c = F(rng.choice([-1, 1]), rng.choice([1, 3, 7]))
        values = {mask: v + c for mask, v in values.items()}
    elif shift == "empty":
        values[0] += F(rng.choice([-1, 1]), rng.choice([1, 3, 7]))
    domain = rng.choice(["powerset", "sublattice", "unclosed"])
    masks = set(values)
    if domain == "sublattice":
        masks = {e.mask for e in random_event_lattice(rng, space, rng.randint(0, 3))}
    elif domain == "unclosed":
        masks = {k for k in masks if k == 0 or rng.random() < 0.5}
    events = [e for e in space.all_events() if e.mask in masks]
    return Assessment.on_events(space, ((e, values[e.mask]) for e in events))


@contextmanager
def programs_only():
    """Every call on the linear programs: the certificate switched off and
    the norm cache emptied on the way in and out."""
    consistency._norm_analysis.cache_clear()
    with mock.patch.object(consistency, "_certified_table", lambda assessment: None):
        yield
    consistency._norm_analysis.cache_clear()


def outcome(call):
    """The call's value, or the type and message of the library error it raised."""
    try:
        return call()
    except (DomainError, SureLossError, NotExactError, InfeasibleTotalError) as exc:
        return type(exc), str(exc)


class TestExactnessRoutes:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(event_assessments())
    def test_is_exact_agrees_with_norm_programs(self, p):
        kind, payload = lp_norm_analysis(p)
        exact = kind == "exact"
        expected = Verdict(True, info={"norm": payload}) if exact else Verdict(False, payload)
        assert is_exact(p) == expected
        if _certified_table(p) is not None:
            assert exact and payload == p.value(Gamble.constant(p.space, 1))

    def test_shortcut_decides_two_monotone_lattices(self):
        # 2-monotone on the power set, so on every sublattice too; adding a
        # constant keeps 2-monotonicity and sets P(empty)
        rng = random.Random(7)
        for m in range(2, 5):
            space = Space(tuple("abcd"[:m]))
            for _ in range(10):
                values = random_floor_additive(rng, space).by_mask
                shift = F(rng.randint(-1, 1), 2)
                events = space.all_events()
                if rng.random() < 0.5:
                    events = random_event_lattice(rng, space, rng.randint(1, 3))
                p = Assessment.on_events(space, ((e, values[e.mask] + shift) for e in events))
                assert (_certified_table(p) is not None) == (shift == 0)
                assert is_exact(p).holds == (shift == 0)


class TestChoquetRoute:
    """The certified calls against the linear programs alone."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(event_assessments(), st.integers(0, 2**32 - 1))
    def test_routed_calls_equal_the_programs(self, p, seed):
        rng = random.Random(seed)
        unit = Gamble.constant(p.space, 1)
        outside = random_gamble(rng, p.space)
        inside = rng.choice(p.domain) if p.domain else outside
        kind, payload = lp_norm_analysis(p)
        scale = payload if kind == "exact" else INF

        def composed():
            return [
                outcome(lambda: decompose(p)),
                outcome(lambda: is_comonotone_additive(p)),
                outcome(lambda: find_attaining(p, inside, outside)),
            ]

        with programs_only():
            expected = composed()
        assert composed() == expected
        assert is_coherent(p) == lp_is_coherent(p)
        assert norm(p) == scale
        assert is_exact(p).holds == (kind == "exact")
        for g in (outside, inside, unit):
            value = lp_extension(p, g, F(1))
            if value is None:
                message = "^assessment incurs sure loss; no natural extension exists$"
                with pytest.raises(SureLossError, match=message):
                    natural_extension_prevision(p, g)
            else:
                assert natural_extension_prevision(p, g) == value
            if scale == INF:
                with pytest.raises(NotExactError):
                    natural_extension_exact(p, g)
                continue
            assert natural_extension_exact(p, g) == lp_extension(p, g, scale)
            for total in (scale, scale + F(1, 2), scale - F(1, 2)):
                value = lp_extension(p, g, total)
                if value is None:
                    with pytest.raises(InfeasibleTotalError):
                        extension_minimum(p, g, total)
                else:
                    assert extension_minimum(p, g, total) == value

    def test_certificate_matches_the_scans_on_power_sets(self):
        rng = random.Random(2008)
        agreed = {True: 0, False: 0}
        for m in range(1, 6):
            space = Space(tuple("abcde"[:m]))
            for index in range(24 if m < 5 else 8):
                p = certificate_family(rng, space, index % 4)
                local = _locally_two_monotone([p.by_mask[mask] for mask in range(1 << m)])
                assert local == is_n_monotone(p, 2).holds
                if m <= 4 or index < 2:
                    assert local == ordered_scan(p, 2).holds
                assert (_certified_table(p) is not None) == local
                agreed[local] += 1
        assert min(agreed.values()) >= 20

    def test_certificate_matches_the_scans_on_sublattices(self):
        # the inner table of a lattice holding the empty and full events is
        # 2-monotone iff the assessment is, on the lattice
        rng = random.Random(2009)
        agreed = {True: 0, False: 0}
        for m in range(2, 6):
            space = Space(tuple("abcde"[:m]))
            for index in range(24 if m < 5 else 8):
                values = certificate_family(rng, space, index % 4).by_mask
                lattice = random_event_lattice(rng, space, rng.randint(1, 3))
                p = Assessment.on_events(space, ((e, values[e.mask]) for e in lattice))
                certified = _certified_table(p) is not None
                assert certified == is_n_monotone(p, 2).holds
                if len(p) <= 12:
                    assert certified == ordered_scan(p, 2).holds
                if certified:
                    assert _certified_table(p) == [
                        inner_set_function(p, e) for e in space.all_events()
                    ]
                agreed[certified] += 1
        assert min(agreed.values()) >= 15

    def test_certificate_matches_the_programs_off_lattices(self):
        # event domains holding the empty and full events but not closed
        # under union and intersection: only the inner table is certified
        rng = random.Random(2010)
        agreed = {True: 0, False: 0}
        for m in (3, 4):  # on two outcomes every such domain is a lattice
            space = Space(tuple("abcd"[:m]))
            full = (1 << m) - 1
            while min(agreed.values()) < 5 * (m - 2):
                values = certificate_family(rng, space, rng.randrange(4)).by_mask
                masks = {0, full} | {k for k in values if rng.random() < 0.4}
                p = Assessment.on_events(space, (
                    (e, values[e.mask]) for e in space.all_events() if e.mask in masks
                ))
                if p.lattice is not None:
                    continue
                certified = _certified_table(p) is not None
                assert is_coherent(p) == lp_is_coherent(p)
                kind, payload = lp_norm_analysis(p)
                assert norm(p) == (payload if kind == "exact" else INF)
                if certified:
                    assert (kind, payload) == ("exact", values[full])
                    for g in (random_gamble(rng, space), Gamble.constant(space, 1)):
                        assert extension_minimum(p, g, payload) == lp_extension(p, g, payload)
                        if payload == 1:
                            assert natural_extension_prevision(p, g) == lp_extension(p, g, F(1))
                agreed[certified] += 1


def certificate_family(rng: random.Random, space: Space, family: int) -> Assessment:
    """A set function on the full power set, zero at the empty event: a
    supermodular one less a modular part, which may break monotonicity;
    completely monotone; a lower envelope; or arbitrary values."""
    if family == 0:
        weight = F(rng.randint(0, 3), 4)
        values = random_floor_additive(rng, space).by_mask
        return Assessment.on_events(space, (
            (e, values[e.mask] - weight * e.size) for e in space.all_events()
        ))
    if family == 1:
        return random_completely_monotone(rng, space)
    if family == 2:
        envelope = random_envelope(rng, space, rng.randint(1, 3))
        return envelope.restrict([e.indicator() for e in space.all_events()])
    low = rng.choice([-2, 0])
    return Assessment.on_events(space, (
        (e, F(rng.randint(low, 6), rng.choice([1, 2, 3])) if e.mask else F(0))
        for e in space.all_events()
    ))


class TestCertificateBudget:
    """Over the closure budget the certificate declines and the programs answer."""

    def test_chain_over_budget_is_answered_by_the_programs(self, abc, monkeypatch):
        chain = [Event.empty(abc), Event.from_labels(abc, ["a"]), Event.full(abc)]
        powerset = Assessment.on_events(abc, ((e, F(e.size, 3)) for e in abc.all_events()))
        g = Gamble.make(abc, [2, 0, 1])
        monkeypatch.setenv("LOWERPREV_LATTICE_BUDGET", "7")
        consistency._certified_table.cache_clear()
        consistency._norm_analysis.cache_clear()
        p = Assessment.on_events(abc, zip(chain, (F(0), F(1, 4), F(1))))
        assert _certified_table(p) is None
        assert is_coherent(p) == lp_is_coherent(p) == Verdict(True)
        assert lp_norm_analysis(p) == ("exact", F(1))
        assert norm(p) == 1
        assert is_exact(p) == Verdict(True, info={"norm": F(1)})
        assert decompose(p).scale == 1
        assert natural_extension_prevision(p, g) == lp_extension(p, g, F(1)) == F(1, 2)
        assert extension_minimum(p, g, F(1)) == F(1, 2)
        assert _certified_table(powerset) is not None  # a full power set is its own table
        consistency._certified_table.cache_clear()
        consistency._norm_analysis.cache_clear()


class TestNaturalExtensionExact:
    def test_doubled_unit(self, ab):
        p = Assessment.of(ab, {Gamble.constant(ab, 1): 2})
        assert norm(p) == 2
        assert natural_extension_exact(p, Gamble.make(ab, [0, 3])) == 0

    def test_step_formula(self, step_assessment, abc):
        rng = random.Random(5)
        for _ in range(20):
            g = random_gamble(rng, abc)
            assert natural_extension_exact(step_assessment, g) == step_extension_value(g)

    def test_zero_functional(self, abc, step_gamble):
        p = Assessment.of(abc, {step_gamble: 0})
        assert natural_extension_exact(p, Gamble.make(abc, [5, -7, 3])) == 0

    def test_not_exact_refused(self, ab):
        p = Assessment.of(
            ab,
            {
                Event.from_labels(ab, ["a"]).indicator(): "1/2",
                Gamble.constant(ab, 1): "1/4",
            },
        )
        with pytest.raises(NotExactError):
            natural_extension_exact(p, Gamble.constant(ab, 0))


class TestDecompose:
    def test_single_event(self, abc):
        a = Event.from_labels(abc, ["a"]).indicator()
        parts = decompose(Assessment.of(abc, {a: "1/3"}))
        assert parts.scale == F(1, 3)
        assert parts.coherent_part.value(a) == 1
        assert not parts.is_unique

    def test_scaled_vacuous(self, abc):
        f = Gamble.make(abc, [0, 3, 1])
        p = Assessment.of(abc, {Gamble.constant(abc, 1): 2, f: 2 * f.inf})
        parts = decompose(p)
        assert parts.scale == 2
        assert parts.coherent_part.value(f) == f.inf
        assert parts.is_unique

    def test_zero_case(self, abc, step_gamble):
        parts = decompose(Assessment.of(abc, {step_gamble: 0}))
        assert parts.scale == 0
        assert parts.coherent_part.value(step_gamble) == step_gamble.inf
        assert not parts.is_unique

    def test_round_trip_and_coherence(self, step_event_assessment):
        parts = decompose(step_event_assessment)
        rebuilt = parts.coherent_part.scale(parts.scale)
        assert rebuilt.entries == step_event_assessment.entries
        assert is_coherent(parts.coherent_part).holds


class TestConjugate:
    def test_definition(self, abc, step_gamble):
        p = Assessment.of(abc, {step_gamble: 1})
        q = conjugate(p)
        assert q.value(-step_gamble) == -1

    def test_involution(self, step_assessment):
        assert conjugate(conjugate(step_assessment)).entries == step_assessment.entries

    def test_linear_prevision_restriction(self, abc):
        mass = MassFunctional.make(abc, ["1/6", "1/3", "1/2"])
        rng = random.Random(11)
        domain = [random_gamble(rng, abc) for _ in range(4)]
        p = mass.restrict(domain)
        q = conjugate(p)
        for g in domain:
            assert q.value(-g) == -mass(g) == mass(-g)


class TestFindAttaining:
    def test_nested_events_through_extension(self, step_assessment, abc):
        small = Event.from_labels(abc, ["b", "c"]).indicator()
        big = Event.full(abc).indicator()
        mass = find_attaining(step_assessment, small, big)
        # the only dominating probability attaining both targets
        assert mass.masses == (F(1, 2), F(0), F(1, 2))

    def test_absent_on_closure_pair(self, step_closure_assessment, abc, step_gamble):
        unit = Gamble.constant(abc, 1)
        mass = find_attaining(
            step_closure_assessment, join(step_gamble, unit), meet(step_gamble, unit)
        )
        assert mass is None

    def test_same_gamble_always_attained(self, abc):
        rng = random.Random(23)
        for _ in range(10):
            envelope = random_envelope(rng, abc, members=2)
            domain = [random_gamble(rng, abc) for _ in range(3)]
            p = envelope.restrict(domain)
            f = domain[0]
            mass = find_attaining(p, f, f)
            assert mass is not None
            assert mass(f) == p.value(f)


class TestExactFunctionalLaws:
    def test_axioms_on_extensions(self, abc):
        rng = random.Random(2024)
        for _ in range(8):
            envelope = random_envelope(rng, abc, members=3, total=F(rng.randint(1, 3), 2))
            p = envelope.restrict(
                [random_gamble(rng, abc) for _ in range(3)] + [Gamble.constant(abc, 1)]
            )
            scale = norm(p)
            assert scale == p.value(Gamble.constant(abc, 1))  # norm identity
            for _ in range(6):
                f, g = random_gamble(rng, abc), random_gamble(rng, abc)
                lam = F(rng.randint(0, 4), 2)
                mu = F(rng.randint(-3, 3), 2)
                ef = natural_extension_exact(p, f)
                eg = natural_extension_exact(p, g)
                assert natural_extension_exact(p, f + g) >= ef + eg
                assert natural_extension_exact(p, lam * f) == lam * ef
                assert natural_extension_exact(p, f + mu) == ef + mu * scale
                if f.dominates(g):
                    assert ef >= eg
                assert scale * f.inf <= ef <= scale * f.sup
                gap = max(abs(a - b) for a, b in zip(f.values, g.values))
                assert abs(ef - eg) <= scale * gap

    def test_scaling_commutation(self, abc):
        # scaling a norm-one coherent assessment commutes with extension
        rng = random.Random(31)
        for _ in range(6):
            envelope = random_envelope(rng, abc, members=2)
            p = envelope.restrict(
                [random_gamble(rng, abc) for _ in range(2)] + [Gamble.constant(abc, 1)]
            )
            assert is_coherent(p).holds  # restrictions of envelopes always are
            lam = F(rng.randint(0, 5), 2)
            scaled = p.scale(lam)
            for _ in range(4):
                g = random_gamble(rng, abc)
                assert natural_extension_exact(scaled, g) == lam * natural_extension_prevision(p, g)

    def test_extension_factors_through_decomposition(self, abc):
        # the exact extension is the norm times the prevision extension
        # of the decomposed coherent part, whatever the domain
        rng = random.Random(37)
        for _ in range(6):
            total = F(rng.randint(1, 4), 2)
            envelope = random_envelope(rng, abc, members=2, total=total)
            p = envelope.restrict([random_gamble(rng, abc) for _ in range(3)])
            parts = decompose(p)
            for _ in range(4):
                g = random_gamble(rng, abc)
                expected = (
                    parts.scale * natural_extension_prevision(parts.coherent_part, g)
                    if parts.scale
                    else F(0)
                )
                assert natural_extension_exact(p, g) == expected

    def test_transitivity_of_extension(self, step_assessment, abc):
        rng = random.Random(47)
        extra = [random_gamble(rng, abc) for _ in range(3)]
        bigger = Assessment.of(
            abc,
            list(step_assessment.entries)
            + [(g, natural_extension_prevision(step_assessment, g)) for g in extra],
        )
        for _ in range(15):
            g = random_gamble(rng, abc)
            assert natural_extension_prevision(bigger, g) == natural_extension_prevision(
                step_assessment, g
            )

    def test_envelope_dominance(self, abc):
        rng = random.Random(53)
        for _ in range(6):
            envelope = random_envelope(rng, abc, members=2)
            p = envelope.restrict([random_gamble(rng, abc) for _ in range(3)])
            for g, v in p.entries:
                assert natural_extension_prevision(p, g) >= v


class TestExtensionMinimum:
    def test_total_below_norm_is_a_typed_error(self, step_assessment, abc):
        assert norm(step_assessment) == 1
        assert extension_minimum(step_assessment, Gamble.constant(abc, 2), F(1)) == 2
        for total in (F(1, 2), F(0)):
            with pytest.raises(InfeasibleTotalError):
                extension_minimum(step_assessment, Gamble.constant(abc, 0), total)

    def test_typed_error_survives_optimisation(self, src_env):
        # `python -O` strips assert statements; the refusal must not be one
        script = (
            "from fractions import Fraction as F\n"
            "from lowerprev import Assessment, Gamble, InfeasibleTotalError, Space\n"
            "from lowerprev.consistency import extension_minimum\n"
            "s = Space(('a', 'b', 'c'))\n"
            "p = Assessment.of(s, {Gamble.make(s, [0, 1, 2]): 1, Gamble.constant(s, 1): 1})\n"
            "try:\n"
            "    extension_minimum(p, Gamble.constant(s, 0), F(1, 2))\n"
            "except InfeasibleTotalError:\n"
            "    print('refused', __debug__)\n"
        )
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env=src_env,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "refused False"


SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=2)
SHAPES = pytest.mark.parametrize("tall", [True, False], ids=["tall", "wide"])
PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)


@st.composite
def masses_on(draw, space, total):
    weights = draw(st.lists(st.integers(1, 4), min_size=space.size, max_size=space.size))
    return MassFunctional(space, tuple(total * F(w, sum(weights)) for w in weights))


@st.composite
def assessments(draw, tall: bool, envelope: bool = False):
    """More gambles than outcomes when ``tall``, fewer otherwise.

    Either a lower envelope of one to three masses of a common total,
    restricted to the gambles (exact), or one probability's expectations
    moved by small offsets (sure loss, coherence and incoherence all
    come up).
    """
    m = draw(st.integers(2, 4))
    k = draw(st.integers(m + 1, m + 3) if tall else st.integers(1, m - 1))
    space = Space(tuple("abcd"[:m]))
    rows = draw(st.lists(st.tuples(*[SMALL] * m), min_size=k, max_size=k, unique=True))
    gambles = [Gamble(space, row) for row in rows]
    if envelope:
        total = draw(st.sampled_from([F(1, 2), F(1), F(2)]))
        members = draw(st.lists(masses_on(space, total), min_size=1, max_size=3))
        return Assessment.of(space, ((g, min(q(g) for q in members)) for g in gambles))
    mass = draw(masses_on(space, F(1)))
    # below the mass the assessment avoids sure loss; raised, it may not
    raised = draw(st.booleans())
    offsets = st.sampled_from([F(-1), F(-1, 2), F(0), F(0)] + [F(1, 4), F(1)] * raised)
    return Assessment.of(space, ((g, mass(g) + draw(offsets)) for g in gambles))


def gambles_on(space):
    return st.tuples(*[SMALL] * space.size).map(lambda row: Gamble(space, row))


def dot(masses, gamble):
    return sum((m * x for m, x in zip(masses, gamble.values)), F(0))


# The dual programs against vertex enumeration of the credal set, on
# both shapes of assessment.


@SHAPES
@PROPERTY
@given(data=st.data())
def test_natural_extension_is_the_vertex_minimum(tall, data):
    p = data.draw(assessments(tall))
    g = data.draw(gambles_on(p.space))
    vertices = credal_vertices(p, F(1))
    if not vertices:
        with pytest.raises(SureLossError):
            natural_extension_prevision(p, g)
    else:
        assert natural_extension_prevision(p, g) == min(dot(v, g) for v in vertices)


@SHAPES
@PROPERTY
@given(data=st.data())
def test_sure_loss_verdicts_recheck(tall, data):
    p = data.draw(assessments(tall))
    verdict = avoids_sure_loss(p)
    assert verdict.holds == bool(credal_vertices(p, F(1)))
    if verdict.holds:
        mass = verdict.witness
        assert mass.total_mass == 1 and all(x >= 0 for x in mass.masses)
        assert all(mass(g) >= v for g, v in p.entries)
    else:
        witness = verdict.witness
        combined = [F(0)] * p.space.size
        assessed = F(0)
        for g, count in zip(witness.gambles, witness.multiplicities):
            assert isinstance(count, int) and count > 0 and g in p
            combined = [c + count * x for c, x in zip(combined, g.values)]
            assessed += count * p.value(g)
        assert max(combined) == witness.sup_combination < assessed
        assert assessed == witness.assessed_total


@SHAPES
@PROPERTY
@given(data=st.data())
def test_find_attaining_at_the_norm(tall, data):
    p = data.draw(st.one_of(assessments(tall, envelope=True), assessments(tall)))
    f = data.draw(st.sampled_from(p.domain))
    g = data.draw(st.one_of(st.sampled_from(p.domain), gambles_on(p.space)))
    scale = norm(p)
    if scale == INF:
        with pytest.raises(NotExactError):
            find_attaining(p, f, g)
        return
    vertices = credal_vertices(p, scale)
    assert vertices
    target_g = p.value(g) if g in p else natural_extension_exact(p, g)
    if g not in p:
        assert target_g == min(dot(v, g) for v in vertices)
    targets = (p.value(f), target_g)
    mass = find_attaining(p, f, g)
    # the attaining masses form a face of the credal set: nonempty
    # exactly when some vertex attains both targets
    assert (mass is not None) == any((dot(v, f), dot(v, g)) == targets for v in vertices)
    if mass is not None:
        assert mass.total_mass == scale and all(x >= 0 for x in mass.masses)
        assert all(mass(h) >= v for h, v in p.entries)
        assert (mass(f), mass(g)) == targets


# One valuation route: natural_extension_prevision is extension_minimum
# at total one, and a certified table answers a total below P(full)
# without a program.

SURE_LOSS = "^assessment incurs sure loss; no natural extension exists$"


def assert_prevision_is_the_minimum_at_one(p, g):
    try:
        expected = extension_minimum(p, g, F(1))
    except InfeasibleTotalError:
        with pytest.raises(SureLossError, match=SURE_LOSS):
            natural_extension_prevision(p, g)
    else:
        assert natural_extension_prevision(p, g) == expected


@PROPERTY
@given(data=st.data())
def test_prevision_is_the_minimum_at_total_one(data):
    p = data.draw(st.one_of(event_assessments(), assessments(True), assessments(False)))
    assert_prevision_is_the_minimum_at_one(p, data.draw(gambles_on(p.space)))


def certified_events(rng: random.Random, full: F) -> Assessment:
    """A completely monotone set function of total ``full``, on the power
    set or on an event sublattice: certified either way."""
    space = Space(tuple("abcd"[: rng.randint(1, 4)]))
    values = random_completely_monotone(rng, space, full).by_mask
    events = space.all_events()
    if rng.random() < 0.5:
        events = random_event_lattice(rng, space, rng.randint(0, 3))
    p = Assessment.on_events(space, ((e, values[e.mask]) for e in events))
    assert _certified_table(p) is not None
    return p


@pytest.mark.parametrize("full", [F(1, 2), F(1), F(3, 2)], ids=["below-one", "one", "above-one"])
@PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_prevision_on_certified_tables_around_one(full, seed):
    rng = random.Random(seed)
    p = certified_events(rng, full)
    g = random_gamble(rng, p.space)
    assert_prevision_is_the_minimum_at_one(p, g)
    assert (lp_extension(p, g, F(1)) is None) == (full > 1)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_total_below_a_certified_full_event_solves_no_program(seed):
    rng = random.Random(seed)
    full = F(rng.randint(1, 6), rng.choice([1, 2, 3]))
    p = certified_events(rng, full)
    g = random_gamble(rng, p.space)
    below = full - F(rng.randint(1, 4), rng.choice([1, 2, 5]))
    message = f"^no mass functional of total {below} dominates the assessment$"
    with mock.patch.object(simplex, "solve", side_effect=RuntimeError("a program was solved")):
        with pytest.raises(InfeasibleTotalError, match=message):
            extension_minimum(p, g, below)
        if full > 1:
            with pytest.raises(SureLossError, match=SURE_LOSS):
                natural_extension_prevision(p, g)
    assert lp_extension(p, g, below) is None
