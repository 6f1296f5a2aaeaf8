"""Problem documents: the JSON wire format of the batch front-end.

A document names a space, optionally some gambles and events, an
assessment of lower values, and a query section.  Rationals travel as
strings so nothing ever round-trips through a float; a gamble
serializes as an array of rational strings and an event as an array of
outcome labels.  Parsing checks the document against the bundled JSON
schema (``schema/v1``) and then resolves references; re-serializing a
parsed document reproduces the input value for value.

A small bundled checker, :func:`_conforms`, decides acceptance: it
implements the draft 2020-12 keywords that the problem schema uses and
nothing else.  ``jsonschema`` is imported only when that checker rejects
a document, to word the diagnostic (its ``best_match`` error) and to
have the last word: a document it finds no error in is accepted.  So
start-up on the accept path never imports it.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib.resources
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping

from .assessment import Assessment
from .choquet import ChoquetResult
from .gambles import Event, Gamble, Space
from .monotone import MobiusTransform
from .rational import format_rational, parse_rational
from .verdict import Verdict

__all__ = [
    "DocumentError",
    "ProblemDocument",
    "parse_document",
    "load_document",
    "problem_schema",
    "report_schema",
    "gamble_to_json",
    "event_to_json",
    "to_json",
]


class DocumentError(ValueError):
    """A document that does not validate, with a field-path diagnostic."""


def _schema(name: str) -> dict:
    text = (
        importlib.resources.files("lowerprev").joinpath(f"schema/v1/{name}").read_text()
    )
    return json.loads(text)


def problem_schema() -> dict:
    return _schema("problem.schema.json")


def report_schema() -> dict:
    return _schema("report.schema.json")


# Parsed once per process; ``problem_schema`` hands out a fresh copy.
_cached_problem_schema = functools.cache(problem_schema)

# The draft 2020-12 type names the problem schema uses; bool is not an
# integer, and an integral float is.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}


def _conforms(value: Any, schema: Any, root: Mapping[str, Any]) -> bool:
    """Whether ``value`` is valid under ``schema``, a subschema of ``root``.

    Implements exactly the keywords of ``problem.schema.json`` v1: type,
    properties, required, additionalProperties, items, minItems, minimum,
    pattern, oneOf, enum and const (string values only) and local
    ``#/$defs/...`` references.  Every other keyword is treated as an
    annotation and ignored.
    """
    if isinstance(schema, bool):
        return schema
    if "$ref" in schema:
        target = functools.reduce(dict.__getitem__, schema["$ref"][2:].split("/"), root)
        if not _conforms(value, target, root):
            return False
    if "type" in schema and not _TYPES[schema["type"]](value):
        return False
    if isinstance(value, dict):
        if any(key not in value for key in schema.get("required", ())):
            return False
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        if not all(_conforms(v, properties.get(k, extra), root) for k, v in value.items()):
            return False
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return False
        if "items" in schema and not all(_conforms(v, schema["items"], root) for v in value):
            return False
    elif isinstance(value, str):
        if "pattern" in schema and not re.search(schema["pattern"], value):
            return False
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            return False
    if "enum" in schema and value not in schema["enum"]:
        return False
    if "const" in schema and value != schema["const"]:
        return False
    return "oneOf" not in schema or sum(_conforms(value, s, root) for s in schema["oneOf"]) == 1


@dataclass(frozen=True)
class ProblemDocument:
    """A parsed document plus the raw value it came from."""

    space: Space
    gambles: Mapping[str, Gamble]
    events: Mapping[str, Event]
    assessment: Assessment
    queries: tuple[Mapping[str, Any], ...]
    raw: Mapping[str, Any]

    def resolve_gamble(self, ref: Any, path: str = "gamble") -> Gamble:
        """A gamble from a name, an array of rational strings, or a comma list."""
        if isinstance(ref, str):
            if ref in self.gambles:
                return self.gambles[ref]
            if "," in ref:
                ref = [part.strip() for part in ref.split(",")]
            else:
                raise DocumentError(f"{path}: unknown gamble name {ref!r}")
        if isinstance(ref, (list, tuple)):
            if len(ref) != self.space.size:
                raise DocumentError(
                    f"{path}: gamble has {len(ref)} values on a space of size {self.space.size}"
                )
            try:
                return Gamble.make(self.space, ref)
            except ValueError as exc:
                raise DocumentError(f"{path}: {exc}") from exc
        raise DocumentError(f"{path}: expected a gamble name or vector")

    def resolve_event(self, ref: Any, path: str = "event") -> Event:
        """An event from a name, an array of labels, or a comma list."""
        if isinstance(ref, str):
            if ref in self.events:
                return self.events[ref]
            ref = [part.strip() for part in ref.split(",") if part.strip()]
        if isinstance(ref, (list, tuple)):
            try:
                return Event.from_labels(self.space, ref)
            except KeyError as exc:
                raise DocumentError(f"{path}: {exc.args[0]}") from exc
        raise DocumentError(f"{path}: expected an event name or label list")

    def serialize(self) -> dict:
        """The original JSON value; round-trips modulo whitespace."""
        return json.loads(json.dumps(self.raw))


def parse_document(data: Mapping[str, Any]) -> ProblemDocument:
    """Validate against ``schema/v1`` and resolve every reference."""
    schema = _cached_problem_schema()
    if not _conforms(data, schema, schema):
        import jsonschema

        # Built without re-checking the schema against its metaschema, which
        # is a test instead; ``best_match`` is what ``jsonschema.validate`` raises.
        validator = jsonschema.validators.validator_for(schema)(schema)
        error = jsonschema.exceptions.best_match(validator.iter_errors(data))
        if error is not None:
            raise DocumentError(f"{error.json_path}: {error.message}") from error
    try:
        space = Space.make(data["space"])
    except ValueError as exc:
        raise DocumentError(f"$.space: {exc}") from exc

    gambles: dict[str, Gamble] = {}
    for name, vector in data.get("gambles", {}).items():
        if len(vector) != space.size:
            raise DocumentError(
                f"$.gambles.{name}: {len(vector)} values on a space of size {space.size}"
            )
        try:
            gambles[name] = Gamble.make(space, vector)
        except ValueError as exc:
            raise DocumentError(f"$.gambles.{name}: {exc}") from exc
    events: dict[str, Event] = {}
    for name, labels in data.get("events", {}).items():
        try:
            events[name] = Event.from_labels(space, labels)
        except KeyError as exc:
            raise DocumentError(f"$.events.{name}: {exc.args[0]}") from exc

    doc = ProblemDocument(space, gambles, events, Assessment(space, ()), (), data)
    entries: list[tuple[Gamble, Fraction]] = []
    for i, entry in enumerate(data["assessment"]):
        path = f"$.assessment[{i}]"
        if "gamble" in entry:
            g = doc.resolve_gamble(entry["gamble"], path + ".gamble")
        else:
            g = doc.resolve_event(entry["event"], path + ".event").indicator()
        try:
            value = parse_rational(entry["lower"])
        except ValueError as exc:
            raise DocumentError(f"{path}.lower: {exc}") from exc
        entries.append((g, value))
    try:
        assessment = Assessment(space, tuple(entries))
    except ValueError as exc:
        raise DocumentError(f"$.assessment: {exc}") from exc
    queries = tuple(data.get("queries", ()))
    return ProblemDocument(space, gambles, events, assessment, queries, data)


def load_document(path: str) -> ProblemDocument:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DocumentError(f"{path}: not valid JSON: {exc}") from exc
    return parse_document(data)


def gamble_to_json(gamble: Gamble) -> list[str]:
    return [format_rational(v) for v in gamble.values]


def event_to_json(event: Event) -> list[str]:
    return list(event.labels)


def assessment_to_json(assessment: Assessment) -> list[dict]:
    out = []
    for gamble, value in assessment.entries:
        if gamble.is_indicator():
            out.append({"event": event_to_json(gamble.as_event()), "lower": format_rational(value)})
        else:
            out.append({"gamble": gamble_to_json(gamble), "lower": format_rational(value)})
    return out


def mobius_to_json(transform: MobiusTransform) -> list[dict]:
    return [
        {"event": event_to_json(e), "mass": format_rational(c)}
        for e, c in transform.items()
    ]


def choquet_to_json(result: ChoquetResult) -> dict:
    return {
        "value": format_rational(result.value),
        "trace": [
            {
                "threshold": format_rational(threshold),
                "event": event_to_json(event),
                "level": format_rational(level),
            }
            for threshold, event, level in result.trace
        ],
    }


def to_json(value: Any) -> Any:
    """The JSON form of a report value.

    Rationals become strings, gambles their value lists, events their
    label lists and tuples lists.  A witness becomes its ``kind`` plus
    its dataclass fields in declaration order; a field's ``json``
    metadata renames it, or drops it when None.
    """
    if isinstance(value, (Fraction, float)):
        return format_rational(value)
    if isinstance(value, Gamble):
        return gamble_to_json(value)
    if isinstance(value, Event):
        return event_to_json(value)
    if isinstance(value, tuple):
        return [to_json(v) for v in value]
    if dataclasses.is_dataclass(value):
        out = {"kind": value.kind}
        for f in dataclasses.fields(value):
            name = f.metadata.get("json", f.name)
            if name is not None:
                out[name] = to_json(getattr(value, f.name))
        return out
    return value


def verdict_to_json(verdict: Verdict) -> dict:
    out: dict[str, Any] = {
        "decision": verdict.holds,
        "witness": to_json(verdict.witness),
    }
    if verdict.info:
        out["info"] = {key: to_json(value) for key, value in verdict.info.items()}
    return out
