"""The cli-documents workload: the ``lowerprev`` command line, one process a query.

Sessions alternate between the README's commands on the fixture
documents (including runs that exit 1 and 2) and documents the benchmark
writes: power-set event functions at m=4 and small gamble assessments,
both with ``queries`` sections.  Each report is parsed, validated against
the bundled ``report.schema.json`` and compared with the same command run
in-process through ``cli.main``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

import jsonschema

import lowerprev as lp
from lowerprev import cli, document, sampling

from harness import Chain, Checker, child_env
from workloads import powerset_function, space

SCHEMA_DEFECT = (
    "exit-2 error report has no exit_status or results, but report.schema.json "
    "requires exit_status in {0, 1}"
)

# (argv after the command's document, expected exit status); the document
# is the second word.  Exit 2 cases are kept on purpose: see KNOWN_FAILURES.
FIXTURE_COMMANDS = (
    (("check-coherent", "three_point_step.json"), 0),
    (("natext", "three_point_step.json", "--gamble", "1,1,2"), 0),
    (("nmono", "three_point_step_closure.json", "--n", "2", "--gambles"), 1),
    (("choquet", "three_point_step_events.json", "--gamble", "0,1,2"), 0),
    (("attain", "three_point_step_events.json"), 0),
    (("decompose", "event_price_third.json"), 0),
    (("check-asl", "event_prices_sure_loss.json", "--verify-witness"), 1),
    (("norm", "negative_ramp_price.json"), 0),
    (("check-exact", "ramp_price.json"), 0),
    (("vacuous", "vacuous_tail.json"), 0),
    (("nmono", "vacuous_tail.json"), 0),
    (("inner", "three_point_step_events.json"), 0),
    (("comadd", "three_point_step_closure.json", "--verify-witness"), 1),
    (("natext", "event_prices_sure_loss.json", "--gamble", "1,0"), 2),
    (("mobius", "three_point_step.json"), 2),
    (("choquet", "ramp_price.json", "--gamble", "1,2"), 2),
)

# Runs whose report is known not to validate, with the reason.  They stay in
# the workload and count as failed queries.
KNOWN_FAILURES = {
    ("natext", "event_prices_sure_loss.json", "--gamble", "1,0"): SCHEMA_DEFECT,
    ("mobius", "three_point_step.json"): SCHEMA_DEFECT,
    ("choquet", "ramp_price.json", "--gamble", "1,2"): SCHEMA_DEFECT,
}


@dataclass(frozen=True)
class CliCase:
    kind: str
    document: dict | None  # None for the fixture session
    # (argv with "{doc}" for a written document, expected exit status or None)
    commands: tuple[tuple[tuple[str, ...], int | None], ...]
    path: str | None = field(default=None, repr=False)  # where the document was written


def _gamble_json(gamble: lp.Gamble) -> list[str]:
    return [str(v) for v in gamble.values]


def make_cli(rng: random.Random, slot: tuple) -> CliCase:
    kind = slot[0]
    if kind == "fixtures":
        half = len(FIXTURE_COMMANDS) // 2
        return CliCase(kind, None, FIXTURE_COMMANDS[half * slot[1]:half * (slot[1] + 1)])
    if kind == "warmup":
        return CliCase(kind, None, FIXTURE_COMMANDS[:1])
    if kind == "powerset":
        family = slot[1]
        s = space(4)
        a = powerset_function(rng, family, 4, Fraction(4, 3))
        queries = [{"gamble": _gamble_json(sampling.random_gamble(rng, s))} for _ in range(2)]
        doc = {
            "space": list(s.labels),
            "assessment": [{"event": list(g.as_event().labels), "lower": str(v)}
                           for g, v in a.entries],
            "queries": queries,
        }
        commands = [
            (("check-asl", "{doc}", "--verify-witness"), 1 if family == "fa" else 0),
            (("choquet", "{doc}"), 0),
            (("mobius", "{doc}"), 0),
            (("nmono", "{doc}", "--n", "inf", "--events"), 0 if family == "cm" else None),
        ]
        if family != "fa":  # floor-additive documents incur sure loss
            commands.append((("natext", "{doc}"), 0))
        return CliCase(kind, doc, tuple(commands))
    m = slot[1]
    s = space(m)
    domain = {g.values: g for g in (sampling.random_gamble(rng, s) for _ in range(3))}
    domain.pop(lp.Gamble.constant(s, 1).values, None)
    gambles = list(domain.values()) + [lp.Gamble.constant(s, 1)]
    a = sampling.random_envelope(rng, s, 3).restrict(gambles)
    q1, q2 = (sampling.random_gamble(rng, s) for _ in range(2))
    doc = {
        "space": list(s.labels),
        "assessment": [{"gamble": _gamble_json(g), "lower": str(v)} for g, v in a.entries],
        "queries": [
            {"gamble": _gamble_json(q1), "mode": "exact"},
            {"gamble": _gamble_json(q2), "mode": "prevision"},
            {"f": _gamble_json(a.domain[0]), "g": _gamble_json(q1)},
        ],
    }
    commands = (
        (("check-coherent", "{doc}", "--verify-witness"), 0),
        (("norm", "{doc}"), 0),
        (("natext", "{doc}"), 0),
        (("attain", "{doc}", "--verify-witness"), None),
        (("decompose", "{doc}"), 0),
    )
    return CliCase(kind, doc, commands)


class CliWorkload:
    """Runs each command as a child process, or in-process for the traced pass."""

    name = "cli-documents"
    # Four cycles give the p90 its hundred samples; the families of the
    # power-set documents rotate across cycles.
    cycle = (("fixtures", 0), ("powerset",), ("fixtures", 1), ("gambles",))
    warmup = (("warmup",),)
    trace_sessions = 4

    def __init__(self, root: Path, workdir: Path, in_process: bool):
        self.fixtures = root / "demos" / "documents"
        self.workdir = workdir
        self.in_process = in_process
        self.env = child_env(root / "src")
        schema = document.report_schema()
        self.validator = jsonschema.validators.validator_for(schema)(schema)

    def case(self, seed: int, index: int) -> CliCase:
        slot = self.cycle[index % len(self.cycle)]
        turn = index // len(self.cycle)
        if slot[0] == "powerset":
            slot = (*slot, ("cm", "env", "fa")[turn % 3])
        elif slot[0] == "gambles":
            slot = (*slot, (3, 4)[turn % 2])
        case = make_cli(random.Random(f"{self.name}/{seed}/{index}"), slot)
        if case.document is None:
            return case
        path = self.workdir / f"doc-{seed}-{index}.json"
        path.write_text(json.dumps(case.document), encoding="utf-8")
        return replace(case, path=str(path))

    def warmup_cases(self, seed: int, rep: int) -> list[CliCase]:
        return [make_cli(random.Random(f"{self.name}/{seed}/warmup/{rep}/{j}"), slot)
                for j, slot in enumerate(self.warmup)]

    def argv(self, case: CliCase, words: tuple[str, ...]) -> list[str]:
        doc = case.path or str(self.fixtures / words[1])
        return [words[0], doc, *words[2:]]

    def run_child(self, argv: list[str]) -> tuple[int, str]:
        proc = subprocess.run(
            [sys.executable, "-m", "lowerprev.cli", *argv],
            capture_output=True, text=True, env=self.env, timeout=120,
        )
        return proc.returncode, proc.stdout

    @staticmethod
    def run_main(argv: list[str]) -> tuple[int, str]:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        return code, buffer.getvalue()

    def chain(self, case: CliCase, ck: Checker) -> Chain:
        run = self.run_main if self.in_process else self.run_child
        for words, expected in case.commands:
            argv = self.argv(case, words)
            out = yield f"cli {words[0]}", lambda argv=argv: run(argv)
            code, text = out.value()
            self.check(ck, words, argv, code, text, expected)

    def check(self, ck: Checker, words, argv, code: int, text: str, expected) -> None:
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            ck.expect(False, f"{words[0]}: report is not JSON")
            return
        known = KNOWN_FAILURES.get(words)
        try:
            self.validator.validate(report)
        except jsonschema.ValidationError as exc:
            ck.expect(False, f"known: {known}" if known else f"{words[0]}: report fails schema: {exc.message}")
        ck.expect(report.get("exit_status", 2) == code, f"{words[0]}: exit {code} != exit_status")
        if expected is not None:
            ck.expect(code == expected, f"{words[0]}: exit {code}, expected {expected}")
        if not self.in_process:
            same_code, same_text = self.run_main(argv)
            ck.expect(same_code == code and json.loads(same_text) == report,
                      f"{words[0]}: child report differs from the in-process one")
