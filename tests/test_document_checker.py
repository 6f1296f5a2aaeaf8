"""The bundled problem-schema checker against jsonschema.

``document._conforms`` decides whether a problem document is accepted;
``jsonschema`` only words a rejection.  These tests hold the two to the
same verdict on fixtures, generated documents and random mutations of
them, keep the checker's keyword set in step with the schema, and check
that a CLI run on an accepted document never imports ``jsonschema``.
"""

from __future__ import annotations

import copy
import json
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowerprev import sampling
from lowerprev.document import (
    DocumentError,
    _TYPES,
    _conforms,
    assessment_to_json,
    parse_document,
    problem_schema,
)
from lowerprev.gambles import Gamble, Space

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "demos" / "documents"
SCHEMA = problem_schema()
VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)


def _rationals(gamble: Gamble) -> list[str]:
    return [str(v) for v in gamble.values]


def _powerset_document(rng: random.Random) -> dict:
    space = Space(("a", "b", "c"))
    assessment = sampling.random_completely_monotone(rng, space)
    return {
        "space": list(space.labels),
        "events": {"tail": ["b", "c"]},
        "assessment": assessment_to_json(assessment),
        "queries": [
            {"gamble": _rationals(sampling.random_gamble(rng, space)), "mode": "exact"},
            {"event": "tail", "gamble": "1, 0, 2"},
            {"n": rng.choice((2, "inf")), "domain": "events"},
        ],
    }


def _gamble_document(rng: random.Random) -> dict:
    space = Space(("a", "b", "c", "d"))
    gambles = [sampling.random_gamble(rng, space) for _ in range(3)]
    gambles = list({g.values: g for g in gambles + [Gamble.constant(space, 1)]}.values())
    assessment = sampling.random_envelope(rng, space, 3).restrict(gambles)
    return {
        "space": list(space.labels),
        "gambles": {"first": _rationals(gambles[0])},
        "assessment": assessment_to_json(assessment),
        "queries": [
            {"f": "first", "g": _rationals(sampling.random_gamble(rng, space))},
            {"gamble": "first", "mode": "prevision"},
        ],
    }


FIXTURES = [json.loads(p.read_text()) for p in sorted(DOCS.glob("*.json"))]
BASES = FIXTURES + [
    make(random.Random(f"checker/{make.__name__}/{i}"))
    for make in (_powerset_document, _gamble_document)
    for i in range(4)
]

FIELDS = ("space", "gambles", "events", "assessment", "queries", "gamble", "event",
          "lower", "f", "g", "n", "mode", "domain", "extra")
VALUES = (True, False, None, 0, 1, -1, 2, 2.0, 1.5, "inf", "Infinity", "1/2", " 3 ",
          "-0.25", ".5", "a", "1//2", "1/", "--1", "", "prevision", "events",
          [], {}, ["a"], ["1", "2"], ["1", "x"], {"lower": "1"})


@st.composite
def mutated_documents(draw) -> dict:
    """A base document with one to three fields replaced, deleted or added."""
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while draw(st.integers(0, 3)):
            inner = [c for c in (node.values() if isinstance(node, dict) else node)
                     if isinstance(c, (dict, list))]
            if not inner:
                break
            node = draw(st.sampled_from(inner))
        value = copy.deepcopy(draw(st.sampled_from(VALUES)))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        op = draw(st.sampled_from(("replace", "delete", "add")))
        if op == "add" or not keys:
            if isinstance(node, dict):
                node[draw(st.sampled_from(FIELDS))] = value
            else:
                node.insert(draw(st.integers(0, len(node))), value)
        elif op == "delete":
            del node[draw(st.sampled_from(keys))]
        else:
            node[draw(st.sampled_from(keys))] = value
    return doc


def assert_same_verdict(doc) -> None:
    """``_conforms`` agrees with jsonschema, and a rejection is worded by it."""
    valid = VALIDATOR.is_valid(doc)
    assert _conforms(doc, SCHEMA, SCHEMA) is valid
    if not valid:
        error = jsonschema.exceptions.best_match(VALIDATOR.iter_errors(doc))
        with pytest.raises(DocumentError) as err:
            parse_document(doc)
        assert str(err.value) == f"{error.json_path}: {error.message}"


@pytest.mark.parametrize("doc", BASES, ids=range(len(BASES)))
def test_base_documents_are_accepted(doc):
    assert VALIDATOR.is_valid(doc)
    assert _conforms(doc, SCHEMA, SCHEMA)
    parse_document(doc)


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(mutated_documents())
def test_checker_agrees_with_jsonschema(doc):
    assert_same_verdict(doc)


@pytest.mark.parametrize(
    "n", [1, 2, 2.0, 0, -1, 1.5, True, False, None, "inf", "Inf", "2", float("inf"), [], {}],
    ids=repr,
)
def test_order_field_edge_cases(n):
    """Draft 2020-12 integers: 2.0 is one, True is not; "inf" is the only string."""
    assert_same_verdict({"space": ["a"], "assessment": [], "queries": [{"n": n}]})


@pytest.mark.parametrize(
    "entry",
    [{"gamble": "f", "lower": "1"}, {"event": [], "lower": "0"},
     {"gamble": "f", "event": "e", "lower": "1"}, {"lower": "1"}, {"gamble": "f"},
     {"gamble": [], "lower": "1"}, {"gamble": ["1", 2], "lower": "1"},
     {"event": "e", "lower": 1}, {"event": [True], "lower": "1/2"}, {"event": {}, "lower": "1"}],
    ids=repr,
)
def test_entry_edge_cases(entry):
    """An entry assesses exactly one of a gamble or an event."""
    assert_same_verdict({"space": ["a"], "assessment": [entry]})


def _subschemas(schema):
    yield schema
    children = [*schema.get("properties", {}).values(), *schema.get("$defs", {}).values(),
                *schema.get("oneOf", ())]
    for key in ("additionalProperties", "items"):
        if isinstance(schema.get(key), dict):
            children.append(schema[key])
    for child in children:
        yield from _subschemas(child)


IMPLEMENTED = {"type", "properties", "required", "additionalProperties", "items", "minItems",
               "minimum", "pattern", "oneOf", "enum", "const", "$ref"}
ANNOTATIONS = {"$schema", "$id", "title", "description", "$defs"}


def test_schema_uses_only_implemented_keywords():
    """A schema edit the checker would silently ignore fails here instead."""
    for schema in _subschemas(SCHEMA):
        assert set(schema) <= IMPLEMENTED | ANNOTATIONS, schema
        assert schema.get("type", "object") in _TYPES
        if "$ref" in schema:
            assert schema["$ref"].startswith("#/$defs/")
            assert schema["$ref"].removeprefix("#/$defs/") in SCHEMA["$defs"]
        # Against a string, jsonschema's equality is Python's.
        assert all(isinstance(v, str) for v in schema.get("enum", ()))
        assert isinstance(schema.get("const", ""), str)


def _run_child(src_env, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=src_env, cwd=ROOT, timeout=120)


def test_accepted_document_does_not_import_jsonschema(src_env):
    script = ("import sys; from lowerprev import cli; "
              "code = cli.main(['check-coherent', sys.argv[1]]); "
              "print(code, 'jsonschema' in sys.modules)")
    proc = _run_child(src_env, "-c", script, str(DOCS / "three_point_step.json"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_rejected_document_keeps_jsonschema_wording(src_env, tmp_path):
    doc = {"space": ["a", "b"], "assessment": [{"event": ["a"], "lower": "1//2"}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    error = jsonschema.exceptions.best_match(VALIDATOR.iter_errors(doc))
    expected = {"schema": "v1", "command": "check-asl",
                "error": f"{error.json_path}: {error.message}"}
    proc = _run_child(src_env, "-m", "lowerprev.cli", "check-asl", str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == json.dumps(expected, indent=2) + "\n"
