"""The three library workloads: seeded inputs and their query chains.

Session ``i`` of a workload is built from its own ``random.Random`` seeded
with ``"<workload>/<seed>/<i>"``, so it depends on the seed and its index
only, and every session carries a fresh assessment: the ``lru_cache`` on
``consistency._norm_analysis`` is hit by chained queries inside a session,
never across sessions.  The slot of session ``i`` in its workload's cycle
fixes its family and size, so every seed runs the same mix.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import lowerprev as lp
from lowerprev import sampling

import checks
from harness import Chain, Checker

INF = math.inf
LABELS = "abcdefgh"


def space(m: int) -> lp.Space:
    return lp.Space(tuple(LABELS[:m]))


def event_indicators(s: lp.Space) -> list[lp.Gamble]:
    return [e.indicator() for e in s.all_events()]


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple
    warmup: tuple
    trace_sessions: int
    make: Callable[[random.Random, tuple], object]
    chain: Callable[[object, Checker], Chain]

    def case(self, seed: int, index: int) -> object:
        slot = self.cycle[index % len(self.cycle)]
        return self.make(random.Random(f"{self.name}/{seed}/{index}"), slot)

    def warmup_cases(self, seed: int, rep: int) -> list[object]:
        return [
            self.make(random.Random(f"{self.name}/{seed}/warmup/{rep}/{j}"), slot)
            for j, slot in enumerate(self.warmup)
        ]


# ---------------------------------------------------------------- powerset-decide


@dataclass(frozen=True)
class PowersetCase:
    family: str  # "cm" completely monotone, "fa" floor-additive, "env" envelope restriction
    assessment: lp.Assessment
    gambles: tuple[lp.Gamble, ...]


def powerset_function(rng: random.Random, family: str, m: int, full: Fraction | None = None):
    """A full power-set lower probability of the family."""
    s = space(m)
    if family == "cm":
        return sampling.random_completely_monotone(rng, s)
    if family == "fa":
        return floor_additive(rng, s, full)
    return sampling.random_envelope(rng, s, 3).restrict(event_indicators(s))


def floor_additive(rng: random.Random, s: lp.Space, full: Fraction) -> lp.Assessment:
    """``A -> max(0, w(A) - t)`` with the full event worth ``full``.

    The weights are drawn on the 1/6 grid as ``sampling.random_floor_additive``
    draws them, and t = w(full) - ``full``, redrawn until t lies in [0, 1].
    A fixed total keeps each slot on one side of sure loss for every seed;
    hitting it without a rescaling keeps every value on the grid, so the
    cost of the slot's programs varies little between seeds.  The function
    is 2-monotone because the floor is convex.
    """
    while True:
        weights = [Fraction(rng.randint(1, 6), 6) for _ in range(s.size)]
        threshold = sum(weights) - full
        if 0 <= threshold <= 1:
            break
    return lp.Assessment.on_events(s, [
        (e, max(Fraction(0), sum((weights[i] for i in e.members), Fraction(0)) - threshold))
        for e in s.all_events()
    ])


def make_powerset(rng: random.Random, slot: tuple) -> PowersetCase:
    family, m, count, *full = slot
    s = space(m)
    assessment = powerset_function(rng, family, m, *full)
    gambles = tuple(sampling.random_gamble(rng, s) for _ in range(count))
    return PowersetCase(family, assessment, gambles)


def powerset_chain(case: PowersetCase, ck: Checker) -> Chain:
    """Decisions on a full power-set lower probability.

    Programs per query grow with the 2^m assessed events, so the
    2^m-program queries (coherence, norm, decomposition, exact extension,
    comonotone additivity) run at m=4 only; m=5 sessions run the
    single-program ones.
    """
    a = case.assessment
    m = a.space.size
    full = a.value(lp.Gamble.constant(a.space, 1))
    two_monotone = case.family in ("cm", "fa")
    # Floor-additive values are max(0, w(A) - t): 2-monotone with the empty
    # event at 0, so exact with norm value(full), avoiding sure loss iff
    # value(full) <= 1 and coherent iff value(full) == 1.  Completely
    # monotone functions and envelope restrictions are coherent.
    sure = case.family != "fa" or full <= 1
    coherent = case.family != "fa" or full == 1

    asl = (yield "avoids_sure_loss", lambda: lp.avoids_sure_loss(a)).value()
    ck.expect(asl.holds == sure, f"avoids_sure_loss {asl.holds} on {case.family}")
    mass = asl.witness if asl.holds else None
    if asl.holds:
        ck.expect(checks.dominates(mass, a, Fraction(1)), "dominating mass does not re-check")
    else:
        checks.sure_loss(ck, a, asl.witness)

    if m <= 4:
        coh = (yield "is_coherent", lambda: lp.is_coherent(a)).value()
        ck.expect(coh.holds == coherent, f"is_coherent {coh.holds} on {case.family}")
        if not coh.holds:
            if asl.holds:
                checks.coherence_gap(ck, a, coh.witness, mass)
            else:
                checks.sure_loss(ck, a, coh.witness)
        scale = (yield "norm", lambda: lp.norm(a)).value()
        ck.expect(scale == full, f"norm {scale} != {full}")
    if m <= 4 or two_monotone:
        exact = (yield "is_exact", lambda: lp.is_exact(a)).value()
        ck.expect(exact.holds, "is_exact false on an exact family")
    if m <= 4:
        parts = (yield "decompose", lambda: lp.decompose(a)).value()
        ck.expect(
            parts.scale == full and parts.is_unique
            and all(v * full == w for (_, v), (_, w) in zip(parts.coherent_part.entries, a.entries)),
            "decomposition does not re-check",
        )

    prevision = {}
    for g in case.gambles:
        out = yield "natural_extension_prevision", lambda g=g: lp.natural_extension_prevision(a, g)
        if asl.holds:
            prevision[g] = out.value()
            ck.expect(prevision[g] <= checks.dot(mass.masses, g.values),
                      "natural extension above a dominating mass")
        else:
            ck.expect_raises(out, lp.SureLossError, "natural extension under sure loss")
    extension = {}
    if m <= 4:
        for g in case.gambles:
            extension[g] = (yield "natural_extension_exact",
                            lambda g=g: lp.natural_extension_exact(a, g)).value()
            if case.family == "env":
                ck.expect(extension[g] == prevision[g], "norm-one extensions differ")
    for g in case.gambles:
        result = (yield "choquet_integral", lambda g=g: lp.choquet_integral(a, g)).value()
        ck.expect(result.recompute() == result.value, "Choquet trace does not telescope")
        if two_monotone and g in extension:
            ck.expect(result.value == extension[g], "Choquet != exact natural extension")
        if two_monotone and full == 1 and g in prevision:
            ck.expect(result.value == prevision[g], "Choquet != natural extension")
    if m == 4 and two_monotone:
        # On envelope restrictions the scan stops at a seed-dependent first gap,
        # which would make the latency tail depend on the seed.
        additive = (yield "is_comonotone_additive", lambda: lp.is_comonotone_additive(a)).value()
        ck.expect(additive.holds, "2-monotone exact set function not comonotone additive")


POWERSET = Workload(
    name="powerset-decide",
    # (family, m, gambles to extend, value of the full event for floor-additive
    # functions).  A short cycle gives a run several cycles to take medians
    # over.  Every program of the sure-loss session stops after the same
    # infeasible phase one.  With three gambles on the m=4 sessions a run's
    # p90 falls among the is_coherent queries, not in the gap between them
    # and the norm queries.
    cycle=(("cm", 4, 3), ("fa", 5, 2, Fraction(4, 3)), ("env", 4, 3), ("cm", 5, 2)),
    warmup=(("cm", 3, 2), ("fa", 3, 2, Fraction(4, 3)), ("env", 3, 2)),
    trace_sessions=4,
    make=make_powerset,
    chain=powerset_chain,
)


# ---------------------------------------------------------------- gamble-extend


@dataclass(frozen=True)
class GambleCase:
    variant: str  # "coherent", "down" (one value lowered) or "up" (one value above its sup)
    assessment: lp.Assessment
    queries: tuple[lp.Gamble, ...]


def make_gambles(rng: random.Random, slot: tuple) -> GambleCase:
    variant, m, k = slot
    s = space(m)
    unit = lp.Gamble.constant(s, 1)
    domain = {g.values: g for g in (sampling.random_gamble(rng, s) for _ in range(k))}
    domain.pop(unit.values, None)
    gambles = list(domain.values())
    entries = dict(sampling.random_envelope(rng, s, 3).restrict(gambles + [unit]).entries)
    target = rng.choice(gambles)
    step = Fraction(rng.randint(1, 4), 8)
    if variant == "down":
        entries[target] -= step
    elif variant == "up":
        entries[target] = target.sup + step
    queries = tuple(sampling.random_gamble(rng, s) for _ in range(4))
    return GambleCase(variant, lp.Assessment(s, tuple(entries.items())), queries)


def gamble_chain(case: GambleCase, ck: Checker) -> Chain:
    """Many cheap programs on few gambles over more outcomes."""
    a = case.assessment
    asl = (yield "avoids_sure_loss", lambda: lp.avoids_sure_loss(a)).value()
    # Envelope members dominate "coherent" and "down"; a value above sup is sure loss.
    ck.expect(asl.holds == (case.variant != "up"), f"avoids_sure_loss {asl.holds} on {case.variant}")
    mass = asl.witness if asl.holds else None
    if asl.holds:
        ck.expect(checks.dominates(mass, a, Fraction(1)), "dominating mass does not re-check")
    else:
        checks.sure_loss(ck, a, asl.witness)
    coh = (yield "is_coherent", lambda: lp.is_coherent(a)).value()
    if case.variant == "coherent":
        ck.expect(coh.holds, "envelope restriction reported incoherent")
    if not coh.holds:
        if asl.holds:
            checks.coherence_gap(ck, a, coh.witness, mass)
        else:
            checks.sure_loss(ck, a, coh.witness)
    scale = (yield "norm", lambda: lp.norm(a)).value()
    # With the unit gamble assessed at 1, exactness means norm 1, hence coherence.
    ck.expect((scale == 1) == coh.holds and scale in (1, INF), f"norm {scale} vs coherence {coh.holds}")

    prevision = {}
    for q in case.queries:
        out = yield "natural_extension_prevision", lambda q=q: lp.natural_extension_prevision(a, q)
        if asl.holds:
            prevision[q] = out.value()
            ck.expect(prevision[q] <= checks.dot(mass.masses, q.values),
                      "natural extension above a dominating mass")
        else:
            ck.expect_raises(out, lp.SureLossError, "natural extension under sure loss")
    extension = {}
    for q in case.queries[:3]:
        out = yield "natural_extension_exact", lambda q=q: lp.natural_extension_exact(a, q)
        if scale == INF:
            ck.expect_raises(out, lp.NotExactError, "exact extension of a non-exact assessment")
        else:
            extension[q] = out.value()
            ck.expect(extension[q] == prevision[q], "norm-one extensions differ")
    domain = a.domain
    pairs = ((domain[0], domain[-1]), (domain[1], case.queries[0]), (case.queries[1], case.queries[2]))
    for f, g in pairs:
        out = yield "find_attaining", lambda f=f, g=g: lp.find_attaining(a, f, g)
        if scale == INF:
            ck.expect_raises(out, lp.NotExactError, "attainment on a non-exact assessment")
            continue
        found = out.value()
        if found is not None:
            targets = [a.value(q) if q in a else extension[q] for q in (f, g)]
            checks.attaining(ck, a, found, scale, f, g, targets)


GAMBLES = Workload(
    name="gamble-extend",
    cycle=(("coherent", 6, 3), ("down", 7, 4), ("up", 8, 5),
           ("coherent", 8, 6), ("down", 6, 5), ("up", 7, 3)),
    warmup=(("coherent", 4, 2), ("down", 4, 2), ("up", 4, 2)),
    trace_sessions=6,
    make=make_gambles,
    chain=gamble_chain,
)


# ---------------------------------------------------------------- lattice-scan


@dataclass(frozen=True)
class LatticeCase:
    valuation: str  # "mass" (linear, scans run to completion) or "envelope"
    generators: tuple[lp.Gamble, ...]
    closure: tuple[lp.Gamble, ...]
    assessment: lp.Assessment
    max_order: int
    probes: tuple[lp.Gamble, ...]


@dataclass(frozen=True)
class PowersetScanCase:
    family: str  # "cm" or "env"
    assessment: lp.Assessment
    sub_lattice: lp.Assessment
    gamble: lp.Gamble


def make_scan(rng: random.Random, slot: tuple):
    if slot[0] == "powerset":
        _, family, m = slot
        s = space(m)
        a = powerset_function(rng, family, m)
        events = sampling.random_event_lattice(rng, s, 2)
        sub = lp.Assessment.on_events(s, [(e, a.value(e.indicator())) for e in events])
        return PowersetScanCase(family, a, sub, sampling.random_gamble(rng, s))
    _, valuation, m, k, low, high, max_order = slot
    s = space(m)
    constants = (lp.Gamble.constant(s, 0), lp.Gamble.constant(s, 1))
    # A full scan costs about size^(n+1), so mass-valued closures, whose scans
    # run to completion, are drawn at one size and envelope-valued ones inside
    # a band; the budget stops oversized candidates early.
    for _ in range(5000):
        generators = lp.sort_gambles(
            [sampling.random_gamble(rng, s, -1, 2, 2) for _ in range(k)] + list(constants)
        )
        try:
            closure = lp.lattice_closure(generators, budget=high)
        except lp.ClosureBudgetError:
            continue
        if len(closure) >= low:
            break
    else:
        raise RuntimeError(f"no closure of {low}..{high} elements drawn")
    functional = (sampling.random_probability(rng, s) if valuation == "mass"
                  else sampling.random_envelope(rng, s, 3))
    probes = tuple(sampling.random_gamble(rng, s, 0, 3, 2) for _ in range(2))
    return LatticeCase(valuation, generators, closure, functional.restrict(closure), max_order, probes)


def scan_chain(case, ck: Checker) -> Chain:
    if isinstance(case, PowersetScanCase):
        yield from powerset_scan_chain(case, ck)
        return
    closure = (yield "lattice_closure", lambda: lp.lattice_closure(case.generators)).value()
    ck.expect([g.values for g in closure] == [g.values for g in case.closure], "closure differs")
    a = case.assessment
    linear = case.valuation == "mass"
    for n in range(2, case.max_order + 1):
        report = (yield "is_n_monotone", lambda n=n: lp.is_n_monotone(a, n)).value()
        _check_report(ck, a, report, linear)
    report = (yield "is_n_alternating", lambda: lp.is_n_alternating(a, 2)).value()
    _check_report(ck, a, report, linear)
    for q in case.probes:
        value = (yield "inner_extension", lambda q=q: lp.inner_extension(a, q)).value()
        below = [v for g, v in a.entries if all(x >= y for x, y in zip(q.values, g.values))]
        ck.expect(value == max(below), "inner extension differs from the largest value below")


def powerset_scan_chain(case: PowersetScanCase, ck: Checker) -> Chain:
    a = case.assessment
    m = a.space.size
    complete = case.family == "cm"
    report = (yield "is_n_monotone", lambda: lp.is_n_monotone(a, INF)).value()
    _check_report(ck, a, report, complete)
    transform = (yield "mobius", lambda: lp.mobius(a)).value()
    coefficients = checks.mobius_identity(ck, a, transform)
    nonnegative = all(c >= 0 for mask, c in coefficients.items() if mask)
    ck.expect(nonnegative or not complete, "negative Mobius mass on a completely monotone family")
    verdict = (yield "is_completely_monotone", lambda: lp.is_completely_monotone(a)).value()
    ck.expect(verdict.holds == nonnegative, "complete monotonicity disagrees with the Mobius signs")
    if not verdict.holds:
        checks.alternating_sum(ck, a, verdict.witness)
    inner = (yield "powerset_inner", lambda: lp.powerset_inner(case.sub_lattice)).value()
    sub = checks.values_of(case.sub_lattice)
    ck.expect(all(v == checks.inner_value(sub, g.values) for g, v in inner.entries),
              "inner set function differs from the largest value below")
    result = (yield "choquet_integral", lambda: lp.choquet_integral(a, case.gamble)).value()
    ck.expect(result.value == result.recompute() == checks.choquet_by_mobius(coefficients, case.gamble),
              "Choquet integral differs from its Mobius form")
    orders = (2, 3) if m <= 4 else (2,) if m <= 5 else ()
    for n in orders:
        report = (yield "is_n_monotone", lambda n=n: lp.is_n_monotone(a, n)).value()
        _check_report(ck, a, report, complete)
    if m <= 5:
        report = (yield "is_n_alternating", lambda: lp.is_n_alternating(a, 2)).value()
        _check_report(ck, a, report, False)


def _check_report(ck: Checker, a, report, guaranteed: bool) -> None:
    if guaranteed:
        ck.expect(report.holds, f"order {report.requested} scan failed on a family that satisfies it")
    if report.violation is not None:
        checks.alternating_sum(ck, a, report.violation)


SCAN = Workload(
    name="lattice-scan",
    # ("lattice", valuation, m, generators, closure size low, high, top order)
    cycle=(
        ("lattice", "mass", 3, 3, 12, 12, 3), ("powerset", "cm", 4),
        ("lattice", "envelope", 3, 3, 12, 16, 2), ("powerset", "env", 5),
        ("lattice", "mass", 4, 3, 18, 18, 2), ("powerset", "cm", 6),
        ("lattice", "envelope", 4, 3, 18, 26, 2), ("powerset", "env", 7),
        ("lattice", "mass", 5, 3, 29, 29, 2), ("powerset", "env", 4),
        ("lattice", "envelope", 5, 3, 24, 32, 2), ("powerset", "cm", 5),
    ),
    warmup=(("lattice", "mass", 2, 2, 4, 12, 3), ("lattice", "envelope", 2, 2, 4, 12, 2),
            ("powerset", "cm", 3)),
    trace_sessions=12,
    make=make_scan,
    chain=scan_chain,
)

LIBRARY_WORKLOADS = {w.name: w for w in (POWERSET, GAMBLES, SCAN)}
