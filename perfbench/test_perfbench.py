"""Tests for the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import lowerprev as lp  # noqa: E402
from lowerprev import sampling  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402
from clidocs import SCHEMA_DEFECT, CliCase, CliWorkload  # noqa: E402
from harness import Checker, Record  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402


class TestPercentiles:
    def test_p90_needs_a_hundred_samples(self):
        assert harness.samples_beyond(100, 90) == 10
        assert harness.samples_beyond(99, 90) == 9
        assert harness.min_queries() == 100

    def test_loop_reaches_the_sample_floor(self):
        def tiny():
            yield "noop", lambda: None

        records, ends = harness.run_loop(
            (tiny() for _ in range(10_000)), Checker(), seconds=0, cycle=7, wall_cap=60
        )
        assert len(records) == 105  # whole cycles of 7, at least 100
        assert ends == list(range(7, 106, 7))

    def test_summary_of_a_run(self):
        records = [Record("q", s) for s in (0.1, 0.1, 0.5, 0.5, 0.2, 0.2)]
        summary = harness.summarize(records, [2, 4, 6])
        assert summary["queries_per_s"] == pytest.approx(6 / 1.6)  # queries over total query time
        assert summary["query_p50_ms"] == pytest.approx(200.0)  # cycle medians 100, 500 and 200 ms
        assert 200.0 < summary["query_p90_ms"] < 500.0  # over all six queries

    def test_summary_uses_the_scaled_times(self):
        records = [Record("q", 0.1, scale=0.5) for _ in range(4)]
        assert harness.summarize(records, [4])["query_p50_ms"] == pytest.approx(50.0)
        assert harness.summarize(records, [4], scaled=False)["query_p50_ms"] == pytest.approx(100.0)


class TestQuantile:
    def test_beta_function(self):
        assert harness.regularized_beta(2, 3, 0.5) == pytest.approx(11 / 16)
        assert harness.regularized_beta(1, 1, 0.3) == pytest.approx(0.3)
        assert harness.regularized_beta(90.9, 10.1, 0) == 0.0
        assert harness.regularized_beta(90.9, 10.1, 1) == 1.0

    def test_weights_sum_to_one(self):
        assert harness.quantile([7.0] * 250, 90) == pytest.approx(7.0)
        assert harness.quantile(range(1, 102), 50) == pytest.approx(51.0)

    def test_a_gap_moves_it_by_a_weight_not_a_jump(self):
        # The nearest-rank p90 of these is 10 and 20: one sample changing
        # sides moves it across the whole gap.
        low = [10.0] * 90 + [20.0] * 10
        high = [10.0] * 89 + [20.0] * 11
        assert 0 < harness.quantile(high, 90) - harness.quantile(low, 90) < 5.0


class TestCalibration:
    def test_scale_takes_times_to_the_reference_speed(self):
        assert harness.speed_scale(harness.REFERENCE_S, harness.REFERENCE_S) == 1.0
        # A machine running at half speed doubles the reference time.
        assert harness.speed_scale(2 * harness.REFERENCE_S, 2 * harness.REFERENCE_S) == 0.5

    def test_calibrated_session_records_a_scale(self):
        def chain():
            yield "noop", lambda: None

        records: list[Record] = []
        harness.run_session(chain(), Checker(), records, calibrate=True)
        assert records[0].scale > 0 and records[0].scaled == records[0].seconds * records[0].scale


class TestSelfTime:
    def test_nested_and_overlapping_children(self):
        spans = [
            Span("root", 0.0, 10.0, -1, 0),
            Span("a", 1.0, 4.0, 0, 0),
            Span("b", 3.0, 6.0, 0, 0),  # overlaps a: the union [1, 6] is covered
            Span("a.inner", 2.0, 3.0, 1, 0),
            Span("late", 9.0, 12.0, 0, 0),  # runs past its parent: clipped
        ]
        assert self_times(spans) == [4.0, 2.0, 3.0, 1.0, 3.0]

    def test_no_children(self):
        assert self_times([Span("x", 1.0, 2.5, -1, 0)]) == [1.5]


class TestInputs:
    def test_seed_fixes_the_inputs(self, tmp_path):
        cli = CliWorkload(ROOT, tmp_path, in_process=True)
        for workload in (*workloads.LIBRARY_WORKLOADS.values(), cli):
            count = min(len(workload.cycle), 4)

            def digest(seed):
                return harness.digest(workload.case(seed, i) for i in range(count))

            assert digest(1) == digest(1), workload.name
            assert digest(1) != digest(2), workload.name


class TestFailureAccounting:
    def test_wrong_expectation_is_counted(self):
        def chain(ck):
            out = yield "first", lambda: 1
            ck.expect(out.value() == 2, "deliberately wrong")
            yield "second", lambda: 2

        checker = Checker()
        records: list[Record] = []
        harness.run_session(chain(checker), checker, records)
        assert [r.name for r in records] == ["first", "second"]
        assert [r.failure for r in records] == ["deliberately wrong", None]

    def test_unexpected_error_ends_the_session(self):
        def chain(ck):
            out = yield "boom", lambda: lp.natural_extension_prevision(sure_loss, one)
            out.value()
            yield "never", lambda: None

        s = workloads.space(2)
        one = lp.Gamble.constant(s, 1)
        sure_loss = lp.Assessment.of(s, {one: 2})
        checker = Checker()
        records: list[Record] = []
        harness.run_session(chain(checker), checker, records)
        assert len(records) == 1
        assert records[0].failure.startswith("unexpected SureLossError")

    def test_mislabelled_family_fails_its_checks(self):
        rng = random.Random(0)
        s = workloads.space(3)
        while True:
            fa = sampling.random_floor_additive(rng, s)
            if fa.value(lp.Gamble.constant(s, 1)) > 1:
                break
        case = workloads.PowersetCase("cm", fa, (sampling.random_gamble(rng, s),))
        checker = Checker()
        records: list[Record] = []
        harness.run_session(workloads.powerset_chain(case, checker), checker, records)
        assert records[0].failure.startswith("avoids_sure_loss False")

    def test_known_cli_failure_is_labelled(self, tmp_path):
        cli = CliWorkload(ROOT, tmp_path, in_process=True)
        words = ("mobius", "three_point_step.json")
        code, text = cli.run_main(cli.argv(CliCase("fixtures", None, ()), words))
        checker = Checker()
        checker.current = record = Record("cli mobius")
        cli.check(checker, words, [], code, text, 2)
        assert code == 2
        assert record.failure == f"known: {SCHEMA_DEFECT}"


class TestTracer:
    def test_nested_calls_get_parent_links(self):
        s = workloads.space(3)
        f = lp.Gamble.make(s, [0, 1, 2])
        a = lp.Assessment.of(s, {f: 1, lp.Gamble.constant(s, 1): 1})
        original = lp.norm
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.query("extend"):
                value = lp.natural_extension_exact(a, lp.Gamble.make(s, [1, 1, 2]))
            lp.norm(a)  # outside a query: not recorded
        finally:
            tracer.uninstall()
        assert value == Fraction(1)
        assert lp.norm is original
        names = [span.name for span in tracer.spans]
        assert names[:3] == ["query.extend", "consistency.natural_extension_exact", "consistency.norm"]
        assert tracer.spans[2].parent == 1 and tracer.spans[1].parent == 0
        assert {span.query for span in tracer.spans} == {0}
        metrics = tracer.layer_metrics()
        assert metrics["simplex.solve_calls"] == names.count("simplex.solve") > 0
        assert metrics["simplex.rows_max"] == 3  # total mass, two dominance rows, one pin
