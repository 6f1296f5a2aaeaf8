"""Batch front-end: parse a problem document, dispatch, emit JSON verdicts.

Exit status 0 for yes/success verdicts, 1 when any query produced a
no verdict (its witness is in the report), 2 for input errors.  All
numbers in reports are exact rational strings.  A witness is reported
as its ``kind`` plus its dataclass fields.  With ``--verify-witness``
every emitted witness is re-validated by its own ``check`` against the
assessment, and an attaining functional by its total mass, dominance
and targets; the result is recorded per query.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Callable

from .assessment import Assessment
from .choquet import choquet_integral, is_comonotone_additive
from .consistency import (
    avoids_sure_loss,
    decompose,
    exact_value,
    find_attaining,
    is_coherent,
    is_exact,
    natural_extension_exact,
    natural_extension_prevision,
    norm,
)
from .document import (
    DocumentError,
    ProblemDocument,
    assessment_to_json,
    choquet_to_json,
    event_to_json,
    gamble_to_json,
    load_document,
    mobius_to_json,
    to_json,
    verdict_to_json,
)
from .errors import (
    ClosureBudgetError,
    DomainError,
    NotExactError,
    SpaceMismatchError,
    SureLossError,
)
from .gambles import BUDGET_ENV_VAR
from .monotone import (
    inner_extension,
    inner_set_function,
    is_n_alternating,
    is_n_monotone,
    mobius,
    powerset_inner,
    vacuous,
)
from .rational import format_rational
from .verdict import Verdict

__all__ = ["main"]


class _QueryError(DocumentError):
    pass


def _queries(doc: ProblemDocument, flags: dict[str, Any], needed: tuple[str, ...]) -> list[dict]:
    """Flag values win; otherwise document queries carrying the needed keys."""
    if all(flags.get(k) is not None for k in needed):
        return [flags]
    picked = [q for q in doc.queries if all(k in q for k in needed)]
    if not picked:
        raise _QueryError(
            f"no query provides {', '.join('--' + k for k in needed)} "
            "(pass flags or add a queries section)"
        )
    return picked


def _parse_n(raw: Any) -> int | float:
    if raw in ("inf", math.inf):
        return math.inf
    return int(raw)


def _report_verdict(verdict: Verdict, doc: ProblemDocument, args) -> tuple[list[dict], bool]:
    result = verdict_to_json(verdict)
    if args.verify_witness and verdict.witness is not None:
        result["witness_verified"] = verdict.witness.check(doc.assessment)
    return [result], not verdict.holds


def _cmd_check_asl(doc, args):
    return _report_verdict(avoids_sure_loss(doc.assessment), doc, args)


def _cmd_check_coherent(doc, args):
    return _report_verdict(is_coherent(doc.assessment), doc, args)


def _cmd_check_exact(doc, args):
    return _report_verdict(is_exact(doc.assessment), doc, args)


def _cmd_norm(doc, args):
    return [{"value": format_rational(norm(doc.assessment))}], False


def _cmd_decompose(doc, args):
    parts = decompose(doc.assessment)
    return [
        {
            "scale": format_rational(parts.scale),
            "coherent_part": assessment_to_json(parts.coherent_part),
            "unique": parts.is_unique,
        }
    ], False


def _cmd_natext(doc, args):
    flags = {"gamble": args.gamble}
    results = []
    for query in _queries(doc, flags, ("gamble",)):
        gamble = doc.resolve_gamble(query["gamble"])
        mode = query.get("mode") or args.mode
        if mode == "exact":
            value = natural_extension_exact(doc.assessment, gamble)
        else:
            value = natural_extension_prevision(doc.assessment, gamble)
        results.append(
            {
                "gamble": gamble_to_json(gamble),
                "mode": mode,
                "value": format_rational(value),
            }
        )
    return results, False


def _cmd_inner(doc, args):
    results = []
    if args.gamble is None and args.event is None:
        queries = [q for q in doc.queries if "gamble" in q or "event" in q]
        if not queries:
            raise _QueryError("inner needs --event or --gamble, or document queries")
    else:
        queries = [{k: v for k, v in (("gamble", args.gamble), ("event", args.event)) if v is not None}]
    for query in queries:
        if "event" in query:
            event = doc.resolve_event(query["event"])
            value = inner_set_function(doc.assessment, event)
            results.append({"event": event_to_json(event), "value": format_rational(value)})
        else:
            gamble = doc.resolve_gamble(query["gamble"])
            value = inner_extension(doc.assessment, gamble)
            results.append({"gamble": gamble_to_json(gamble), "value": format_rational(value)})
    return results, False


def _restricted_assessment(doc: ProblemDocument, domain: str) -> Assessment:
    if domain == "events":
        entries = [(g, v) for g, v in doc.assessment.entries if g.is_indicator()]
        if not entries:
            raise DomainError("the assessment has no event entries to restrict to")
        return Assessment(doc.space, tuple(entries))
    return doc.assessment


def _cmd_nmono(doc, args, alternating=False):
    flags = {"n": args.n}
    results = []
    any_no = False
    for query in _queries(doc, flags, ("n",)):
        n = _parse_n(query["n"])
        domain = query.get("domain") or args.domain
        assessment = _restricted_assessment(doc, domain)
        check = is_n_alternating if alternating else is_n_monotone
        report = check(assessment, n)
        result = {
            "decision": report.holds,
            "requested": "inf" if report.requested == math.inf else report.requested,
            "max_verified": "inf" if report.max_verified == math.inf else report.max_verified,
            "witness": to_json(report.violation),
        }
        if args.verify_witness and report.violation is not None:
            result["witness_verified"] = report.violation.check(assessment)
        results.append(result)
        any_no = any_no or not report.holds
    return results, any_no


def _cmd_nalt(doc, args):
    return _cmd_nmono(doc, args, alternating=True)


def _cmd_comadd(doc, args):
    return _report_verdict(is_comonotone_additive(doc.assessment), doc, args)


def _cmd_mobius(doc, args):
    transform = mobius(doc.assessment)
    return [{"coefficients": mobius_to_json(transform)}], False


def _cmd_choquet(doc, args):
    if not doc.assessment.is_lower_probability():
        raise _QueryError(
            "choquet needs an assessment on events; this document assesses gambles"
        )
    flags = {"gamble": args.gamble}
    extended = not doc.assessment.is_full_powerset
    set_function = powerset_inner(doc.assessment) if extended else doc.assessment
    results = []
    for query in _queries(doc, flags, ("gamble",)):
        gamble = doc.resolve_gamble(query["gamble"])
        result = choquet_to_json(choquet_integral(set_function, gamble))
        result["gamble"] = gamble_to_json(gamble)
        if extended:
            result["inner_extended"] = True
        results.append(result)
    return results, False


def _cmd_attain(doc, args):
    flags = {"f": args.f, "g": args.g}
    results = []
    any_no = False
    for query in _queries(doc, flags, ("f", "g")):
        f = doc.resolve_gamble(query["f"], "f")
        g = doc.resolve_gamble(query["g"], "g")
        mass = find_attaining(doc.assessment, f, g)
        if mass is None:
            results.append({"found": False, "f": gamble_to_json(f), "g": gamble_to_json(g)})
            any_no = True
            continue
        result = {
            "found": True,
            "f": gamble_to_json(f),
            "g": gamble_to_json(g),
            "masses": to_json(mass.masses),
        }
        if args.verify_witness:
            result["witness_verified"] = (
                mass.total_mass == norm(doc.assessment)
                and mass.dominates(doc.assessment)
                and all(mass(q) == exact_value(doc.assessment, q) for q in (f, g))
            )
        results.append(result)
    return results, any_no


def _cmd_vacuous(doc, args):
    flags = {"event": args.event, "gamble": args.gamble}
    results = []
    for query in _queries(doc, flags, ("event", "gamble")):
        event = doc.resolve_event(query["event"])
        gamble = doc.resolve_gamble(query["gamble"])
        value = vacuous(event, [gamble]).entries[0][1]
        results.append(
            {
                "event": event_to_json(event),
                "gamble": gamble_to_json(gamble),
                "value": format_rational(value),
            }
        )
    return results, False


_COMMANDS: dict[str, Callable] = {
    "check-asl": _cmd_check_asl,
    "check-coherent": _cmd_check_coherent,
    "check-exact": _cmd_check_exact,
    "norm": _cmd_norm,
    "decompose": _cmd_decompose,
    "natext": _cmd_natext,
    "inner": _cmd_inner,
    "nmono": _cmd_nmono,
    "nalt": _cmd_nalt,
    "mobius": _cmd_mobius,
    "choquet": _cmd_choquet,
    "comadd": _cmd_comadd,
    "attain": _cmd_attain,
    "vacuous": _cmd_vacuous,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowerprev",
        description="Exact verdicts on lower prevision assessments from a JSON document.",
        epilog=f"The {BUDGET_ENV_VAR} environment variable caps lattice closures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("document", help="path to a problem document (schema/v1)")
        cmd.add_argument("--verify-witness", action="store_true",
                         help="re-validate every emitted witness through the kernel")
        if name in ("natext", "choquet", "inner", "vacuous"):
            cmd.add_argument("--gamble", help="gamble name or comma list of rationals")
        if name == "natext":
            cmd.add_argument("--mode", choices=["prevision", "exact"], default="prevision")
        if name in ("inner", "vacuous"):
            cmd.add_argument("--event", help="event name or comma list of labels")
        if name in ("nmono", "nalt"):
            cmd.add_argument("--n", help="order to verify, or 'inf'")
            group = cmd.add_mutually_exclusive_group()
            group.add_argument("--events", dest="domain", action="store_const",
                               const="events", help="restrict to the event entries")
            group.add_argument("--gambles", dest="domain", action="store_const",
                               const="gambles", help="use the full gamble domain (default)")
            cmd.set_defaults(domain="gambles")
        if name == "attain":
            cmd.add_argument("--f", help="first target gamble")
            cmd.add_argument("--g", help="second target gamble")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        doc = load_document(args.document)
        results, any_no = _COMMANDS[args.command](doc, args)
    except (
        DocumentError,
        DomainError,
        SureLossError,
        NotExactError,
        SpaceMismatchError,
        ClosureBudgetError,
        OSError,
        ValueError,
    ) as exc:
        report = {"schema": "v1", "command": args.command, "error": str(exc)}
        print(json.dumps(report, indent=2))
        return 2
    status = 1 if any_no else 0
    report = {
        "schema": "v1",
        "command": args.command,
        "exit_status": status,
        "results": results,
    }
    print(json.dumps(report, indent=2))
    return status


if __name__ == "__main__":
    sys.exit(main())
