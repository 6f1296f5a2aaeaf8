"""The witness protocol: every witness re-checks itself and serialises generically.

Each case builds a witness through the operation that produces it,
checks that ``check`` accepts it against the subject it was produced
from, that ``check`` rejects it once ``dataclasses.replace`` perturbs a
single field, and that ``check`` returns False (rather than raising)
when a gamble field is replaced by one outside the subject's domain.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction as F

import pytest

from lowerprev import (
    Assessment,
    Event,
    Gamble,
    HomomorphismTable,
    Space,
    avoids_sure_loss,
    check_wedge_homomorphism,
    is_coherent,
    is_comonotone_additive,
    is_exact,
    is_n_alternating,
    is_n_monotone,
    minimum_preserving_check,
)
from lowerprev.document import to_json

AB = Space(("a", "b"))
ABC = Space(("a", "b", "c"))


def step_closure() -> Assessment:
    """The closure of the 0/1/2 step and the unit constant, valued by the
    step assessment's natural extension: coherent but not 2-monotone."""
    return Assessment.of(
        ABC,
        {
            Gamble.make(ABC, [0, 1, 1]): F(1, 2),
            Gamble.make(ABC, [0, 1, 2]): 1,
            Gamble.make(ABC, [1, 1, 1]): 1,
            Gamble.make(ABC, [1, 1, 2]): 1,
        },
    )


def dominating_mass():
    step = Assessment.of(ABC, {Gamble.make(ABC, [0, 1, 2]): 1, Gamble.constant(ABC, 1): 1})
    witness = avoids_sure_loss(step).witness
    return witness, step, "masses", (F(1), F(0), F(0))


def sure_loss_combination():
    bad = Assessment.on_events(
        AB, {Event.from_labels(AB, ["a"]): "3/5", Event.from_labels(AB, ["b"]): "3/5"}
    )
    witness = avoids_sure_loss(bad).witness
    return witness, bad, "sup_combination", witness.sup_combination + 1


def coherence_gap():
    low = Assessment.of(
        ABC,
        {
            Gamble.make(ABC, [0, 1, 2]): 1,
            Gamble.constant(ABC, 1): 1,
            Gamble.make(ABC, [1, 1, 2]): F(1, 2),
        },
    )
    witness = is_coherent(low).witness
    return witness, low, "extension", witness.extension + 1


def unattainable_gamble():
    over = Assessment.of(
        AB,
        {Gamble.make(AB, [1, 0]): 1, Gamble.make(AB, [0, 1]): 1, Gamble.constant(AB, 1): 1},
    )
    witness = is_exact(over).witness
    return witness, over, "gamble", Gamble.make(AB, [1, 0])


def norm_interval_gap():
    split = Assessment.of(AB, {Gamble.constant(AB, -1): F(-3, 2), Gamble.constant(AB, 1): 0})
    witness = is_exact(split).witness
    return witness, split, "lower", witness.lower + 1


def monotonicity_violation():
    closure = step_closure()
    witness = is_n_monotone(closure, 2).violation
    return witness, closure, "total", witness.total - 1


def alternating_violation():
    closure = step_closure()
    flipped = Assessment(ABC, tuple((-g, -v) for g, v in closure.entries))
    witness = is_n_alternating(flipped, 2).violation
    return witness, flipped, "total", witness.total + 1


def additivity_gap():
    closure = step_closure()
    witness = is_comonotone_additive(closure).witness
    return witness, closure, "sum_value", witness.sum_value + 1


def min_preservation_gap():
    closure = step_closure()
    witness = minimum_preserving_check(closure).witness
    return witness, closure, "value_of_meet", witness.value_of_meet + 1


def wedge_gap():
    lattice = [Gamble.make(AB, v) for v in ([0, 0], [0, 1], [1, 0], [1, 1])]
    swap_top = {(1, 1): Gamble.make(AB, [0, 1])}
    table = HomomorphismTable.tabulate(lattice, lambda g: swap_top.get(g.values, g))
    witness = check_wedge_homomorphism(table).witness
    return witness, table, "image_of_meet", witness.meet_of_images


CASES = [
    dominating_mass,
    sure_loss_combination,
    coherence_gap,
    unattainable_gamble,
    norm_interval_gap,
    monotonicity_violation,
    alternating_violation,
    additivity_gap,
    min_preservation_gap,
    wedge_gap,
]


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.__name__)
def test_check_accepts_produced_witness(case):
    witness, subject, _, _ = case()
    assert witness is not None
    assert witness.check(subject) is True


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.__name__)
def test_check_rejects_perturbed_witness(case):
    witness, subject, name, value = case()
    perturbed = dataclasses.replace(witness, **{name: value})
    assert perturbed != witness
    assert perturbed.check(subject) is False


def outside(witness, name: str):
    """``witness`` with its gamble field ``name`` (or the first gamble of
    a tuple field) replaced by the constant -2, which no subject assesses
    and which is its own meet with every gamble of the subjects."""
    current = getattr(witness, name)
    first = current[0] if isinstance(current, tuple) else current
    stranger = Gamble.constant(first.space, -2)
    value = (stranger,) + current[1:] if isinstance(current, tuple) else stranger
    return dataclasses.replace(witness, **{name: value})


# the gamble field of each witness kind; a dominating mass names no gamble
GAMBLE_FIELDS = {
    sure_loss_combination: "gambles",
    coherence_gap: "gamble",
    unattainable_gamble: "gamble",
    norm_interval_gap: "upper_gamble",
    monotonicity_violation: "base",
    alternating_violation: "base",
    additivity_gap: "f",
    min_preservation_gap: "g",
    wedge_gap: "f",
}


@pytest.mark.parametrize("case", GAMBLE_FIELDS, ids=lambda c: c.__name__)
def test_check_rejects_gamble_outside_domain(case):
    witness, subject, _, _ = case()
    stranger = outside(witness, GAMBLE_FIELDS[case])
    assert stranger.check(subject) is False


def test_gamble_fields_cover_every_kind():
    kinds = {type(case()[0]).kind for case in GAMBLE_FIELDS}
    assert kinds | {"dominating_mass"} == {type(case()[0]).kind for case in CASES}


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.__name__)
def test_json_is_kind_plus_fields(case):
    witness, _, _, _ = case()
    names = [f.metadata.get("json", f.name) for f in dataclasses.fields(witness)]
    encoded = to_json(witness)
    assert list(encoded) == ["kind"] + [n for n in names if n is not None]
    assert encoded["kind"] == type(witness).kind


def test_kinds_are_distinct():
    kinds = {type(case()[0]).kind for case in CASES}
    assert len(kinds) == len(CASES) - 1  # two monotonicity cases share a kind


def test_violation_sum_keeps_report_name():
    witness, _, _, _ = monotonicity_violation()
    encoded = to_json(witness)
    assert encoded["sum"] == "-1/2" and "total" not in encoded
