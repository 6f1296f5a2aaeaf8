"""Closed-loop session runner, failure accounting and summary statistics.

A session is one assessment's query chain, written as a generator: it
yields ``(name, thunk)`` pairs and receives an :class:`Outcome` for each.
Only the thunk runs inside the timed interval; the generator's own code
between yields (the correctness checks) runs outside it.  A check that
fails marks the current query failed through :class:`Checker` and the
chain carries on; an exception that escapes the chain (an unexpected
error surfaced by :meth:`Outcome.value`, or a bug in a check) marks the
current query failed and ends the session.  Nothing a session does can
raise out of :func:`run_session`.

A query's time is CPU time: this process's and its waited-for
children's, so a pause while the virtual machine's CPU is taken away
(steal) does not count.  The CPU's speed still changes from second to
second, so timed sessions also time a fixed reference loop around every
query and record the factor that takes the query's time to the
reference speed.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, ContextManager, Generator, Iterable, Iterator

# p90 needs at least ten samples beyond it, hence at least 100 queries a run.
TAIL_PERCENTILE = 90
MIN_TAIL_SAMPLES = 10

# The reference loop's time at the speed every reported time is scaled to.
REFERENCE_S = 0.004


def reference_work() -> Fraction:
    """A fixed loop of exact rational arithmetic that uses no library code."""
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i) * Fraction(i % 7 + 1, 3)
    return total


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference_seconds() -> float:
    """How much CPU time the reference loop takes now."""
    start = time.process_time()
    reference_work()
    return time.process_time() - start


def speed_scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two reference timings to
    the reference speed: ``REFERENCE_S`` over their mean."""
    return 2 * REFERENCE_S / (before + after)


@dataclass
class Record:
    """One timed query."""

    name: str
    seconds: float = 0.0  # CPU time, see cpu_seconds
    failure: str | None = None
    scale: float = 1.0  # from speed_scale when the session is calibrated

    @property
    def scaled(self) -> float:
        """The query's time at the reference speed, in seconds."""
        return self.seconds * self.scale

    def fail(self, reason: str) -> None:
        if self.failure is None:
            self.failure = reason


class Outcome:
    """A query's result, or the exception it raised."""

    __slots__ = ("result", "error")

    def __init__(self, result=None, error: BaseException | None = None):
        self.result = result
        self.error = error

    def value(self):
        """The result; re-raises the query's exception if it raised one."""
        if self.error is not None:
            raise self.error
        return self.result

    def raised(self, kind: type[BaseException]) -> bool:
        return isinstance(self.error, kind)


class Checker:
    """Marks the query whose outcome is being checked as failed."""

    def __init__(self) -> None:
        self.current: Record | None = None

    def expect(self, condition: bool, reason: str) -> bool:
        if not condition and self.current is not None:
            self.current.fail(reason)
        return condition

    def expect_raises(self, outcome: Outcome, kind: type[BaseException], reason: str) -> None:
        if not outcome.raised(kind):
            self.expect(False, f"{reason}: expected {kind.__name__}, got "
                        f"{type(outcome.error).__name__ if outcome.error else 'a result'}")


Query = tuple[str, Callable[[], object]]
Chain = Generator[Query, Outcome, None]


def run_session(
    chain: Chain,
    checker: Checker,
    records: list[Record],
    around: Callable[[str], ContextManager] | None = None,
    calibrate: bool = False,
) -> None:
    """Run one chain to completion, appending one record per query.

    With ``calibrate``, the reference loop is timed before the first
    query and after each one, outside the timed interval, and each
    record gets the scale of the two timings around it.
    """
    record: Record | None = None
    before = reference_seconds() if calibrate else 0.0
    try:
        query = next(chain)
        while True:
            name, thunk = query
            record = Record(name)
            scope = around(name) if around is not None else contextlib.nullcontext()
            with scope:
                start = cpu_seconds()
                try:
                    outcome = Outcome(thunk())
                except Exception as exc:  # the chain decides whether it was expected
                    outcome = Outcome(error=exc)
                record.seconds = cpu_seconds() - start
            if calibrate:
                after = reference_seconds()
                record.scale = speed_scale(before, after)
                before = after
            records.append(record)
            checker.current = record
            query = chain.send(outcome)
    except StopIteration:
        pass
    except Exception as exc:
        if record is not None:
            record.fail(f"unexpected {type(exc).__name__}: {exc}")
    finally:
        checker.current = None
        chain.close()


def min_queries(percentile: float = TAIL_PERCENTILE, tail: int = MIN_TAIL_SAMPLES) -> int:
    """Smallest sample count with at least ``tail`` samples beyond the percentile."""
    n = 1
    while samples_beyond(n, percentile) < tail:
        n += 1
    return n


def samples_beyond(n: int, percentile: float) -> int:
    """Samples ranked strictly above the nearest-rank percentile of n samples."""
    return n - max(1, math.ceil(percentile / 100 * n))


def quantile(values: Iterable[float], q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile.

    A weighted mean of all order statistics, with weights from the
    Beta(p(n+1), (1-p)(n+1)) distribution, p = q/100, over the intervals
    [(i-1)/n, i/n].  Query costs come in clusters, one per kind of query;
    where a percentile falls between two clusters, the nearest-rank value
    jumps from one to the other when a single query changes sides, while
    this estimate moves by that query's weight.
    """
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("percentile of no samples")
    p = q / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [regularized_beta(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], ordered))


def regularized_beta(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b), by its continued
    fraction (Numerical Recipes, section 6.4)."""
    if x <= 0:
        return 0.0
    if x >= 1:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_fraction(a, b, x) / a
    return 1 - front * _beta_fraction(b, a, 1 - x) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    tiny = 1e-300

    def guard(v: float) -> float:
        return v if abs(v) > tiny else tiny

    c, d = 1.0, 1 / guard(1 - (a + b) * x / (a + 1))
    h = d
    for m in range(1, 10_000):
        even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1 / guard(1 + even * d)
        c = guard(1 + even / c)
        h *= d * c
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1 / guard(1 + odd * d)
        c = guard(1 + odd / c)
        h *= d * c
        if abs(d * c - 1) < 1e-15:
            break
    return h


def run_loop(
    sessions: Iterator[Chain],
    checker: Checker,
    seconds: float,
    cycle: int,
    wall_cap: float,
) -> tuple[list[Record], list[int]]:
    """Closed loop, one client: run whole calibrated cycles of sessions until
    ``seconds`` of query time at the reference speed and the p90 sample
    floor are both reached, or the wall-clock cap passes.

    Stopping only at cycle boundaries gives every run the same mix of
    session kinds, whatever the seed, and counting scaled time gives it
    the same number of cycles whatever the machine's speed.  Returns the
    records and, for each completed cycle, the number of records at its
    end.
    """
    floor = min_queries()
    records: list[Record] = []
    ends: list[int] = []
    started = time.perf_counter()
    count = 0
    for chain in sessions:
        run_session(chain, checker, records, calibrate=True)
        count += 1
        if count % cycle == 0:
            ends.append(len(records))
            if len(records) >= floor and sum(r.scaled for r in records) >= seconds:
                break
        if time.perf_counter() - started > wall_cap:
            if count % cycle:
                ends.append(len(records))  # the cut cycle still counts
            break
    return records, ends


def summarize(records: list[Record], ends: list[int], scaled: bool = True) -> dict[str, float]:
    """Throughput and latency of a run's queries (times in ms), from the
    scaled times or, with ``scaled`` false, the times as measured.

    Throughput is queries over total query time.  The median latency is
    the median over cycles of each cycle's, which a burst of machine
    noise in one cycle moves little; p90 is taken over all queries of
    the run, which holds the samples beyond it that a cycle alone lacks.
    Both percentiles are Harrell-Davis estimates (:func:`quantile`).
    """
    times = [r.scaled if scaled else r.seconds for r in records]
    medians = [quantile((t * 1000 for t in times[lo:hi]), 50) for lo, hi in zip([0, *ends], ends)]
    return {
        "queries_per_s": len(times) / sum(times),
        "query_p50_ms": statistics.median(medians),
        "query_p90_ms": quantile((t * 1000 for t in times), TAIL_PERCENTILE),
    }


def child_env(src) -> dict[str, str]:
    """This process's environment with ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def digest(items: Iterable[object]) -> str:
    """A short stable hash of the canonical reprs of generated inputs."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
