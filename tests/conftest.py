"""Shared fixtures: the worked three-point example and small spaces."""

from __future__ import annotations

import os
from fractions import Fraction
from pathlib import Path

import pytest

from lowerprev import Assessment, Gamble, Space, lattice_closure


@pytest.fixture(scope="session")
def src_env() -> dict[str, str]:
    """The environment of a child Python that imports lowerprev from ``src/``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


@pytest.fixture
def abc() -> Space:
    return Space(("a", "b", "c"))


@pytest.fixture
def ab() -> Space:
    return Space(("a", "b"))


@pytest.fixture
def step_gamble(abc) -> Gamble:
    return Gamble.make(abc, [0, 1, 2])


@pytest.fixture
def step_assessment(abc, step_gamble) -> Assessment:
    """Lower value 1 on both the 0/1/2 step and the unit constant.

    Its natural extension evaluates gambles at
    ``min(g(b), g(c), (g(a) + g(c)) / 2)``; the closure of its domain
    under meet and join is the standard source of 2-monotonicity
    failures in this suite.
    """
    return Assessment.of(abc, {step_gamble: 1, Gamble.constant(abc, 1): 1})


def step_extension_value(g: Gamble) -> Fraction:
    return min(g("b"), g("c"), (g("a") + g("c")) / 2)


@pytest.fixture
def step_closure(abc, step_gamble) -> tuple[Gamble, ...]:
    return lattice_closure([step_gamble, Gamble.constant(abc, 1)])


@pytest.fixture
def step_closure_assessment(step_closure) -> Assessment:
    space = step_closure[0].space
    return Assessment.of(space, ((g, step_extension_value(g)) for g in step_closure))


@pytest.fixture
def step_event_assessment(abc) -> Assessment:
    """The natural extension's restriction to all events of the space."""
    return Assessment.on_events(
        abc, ((e, step_extension_value(e.indicator())) for e in abc.all_events())
    )
