"""Start-up guard and the lazy package contract, each in a fresh child.

``import lowerprev`` loads no submodule; a public name loads its home
module on first use, and each CLI command loads only the layers it
runs.  Every check runs in a new interpreter, since this test process
has long since loaded the whole package.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import lowerprev
from lowerprev.document import problem_schema, report_schema

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "demos" / "documents"
FIXTURES = sorted(DOCS.glob("*.json"))
EVENT_FIXTURES = [
    p for p in FIXTURES
    if all("event" in entry for entry in json.loads(p.read_text())["assessment"])
]
GAMBLE_FIXTURES = [p for p in FIXTURES if p not in EVENT_FIXTURES]

# Run ``python -m lowerprev.cli <command> <fixture> --verify-witness`` once
# per fixture in one child and print the lowerprev submodules loaded in all.
_CLI_RUNS = """\
import contextlib, io, runpy, sys
command, *paths = sys.argv[1:]
for path in paths:
    sys.argv = ["lowerprev", command, path, "--verify-witness"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
        runpy.run_module("lowerprev.cli", run_name="__main__", alter_sys=True)
print(" ".join(sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("lowerprev."))))
"""

LP = {"consistency", "simplex"}
LATTICE = {"monotone", "choquet"}


def _child(src_env, *args: str) -> str:
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=src_env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_submodule(src_env):
    script = "import sys, lowerprev; print([m for m in sys.modules if m.startswith('lowerprev.')])"
    assert _child(src_env, "-c", script) == "[]"


def test_cli_module_loads_only_the_front_end(src_env):
    script = ("import sys, lowerprev.cli; "
              "print(' '.join(sorted(m[10:] for m in sys.modules if m.startswith('lowerprev.'))))")
    assert _child(src_env, "-c", script) == "assessment cli document errors gambles rational verdict"


@pytest.mark.parametrize(
    "command, fixtures, absent",
    [
        ("check-coherent", FIXTURES, LATTICE),
        ("attain", FIXTURES, LATTICE),
        ("natext", GAMBLE_FIXTURES, LATTICE),
        # a certified 2-monotone event table takes the Choquet route, in consistency
        ("natext", EVENT_FIXTURES, LATTICE),
        ("nmono", FIXTURES, LP),
        ("nalt", FIXTURES, LP),
        ("mobius", FIXTURES, LP),
        ("vacuous", FIXTURES, LP),
        ("inner", FIXTURES, LP),
        ("choquet", FIXTURES, LP),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_command_loads_only_its_layers(src_env, command, fixtures, absent):
    loaded = set(_child(src_env, "-c", _CLI_RUNS, command, *map(str, fixtures)).split())
    assert "document" in loaded
    assert not loaded & absent, sorted(loaded & absent)


def test_sublattice_certificate_loads_no_monotone(src_env, tmp_path):
    # a chain of events short of the power set, certified on its inner table
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({
        "space": ["a", "b", "c"],
        "assessment": [
            {"event": [], "lower": "0"},
            {"event": ["a"], "lower": "1/4"},
            {"event": ["a", "b", "c"], "lower": "1"},
        ],
        "queries": [{"gamble": ["2", "0", "1"]}],
    }))
    for command in ("check-coherent", "norm", "natext"):
        loaded = set(_child(src_env, "-c", _CLI_RUNS, command, str(chain)).split())
        assert "consistency" in loaded and "monotone" not in loaded, (command, sorted(loaded))


def test_consistency_never_imports_the_lattice_layers():
    # at module level or inside a function: the programs stand alone
    source = (ROOT / "src" / "lowerprev" / "consistency.py").read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    parts = {part for name in imported for part in name.split(".")}
    assert not parts & LATTICE, sorted(parts & LATTICE)


def test_every_public_name_resolves_to_its_home_object(src_env):
    script = """\
import importlib, lowerprev as lp
star = {}
exec("from lowerprev import *", star)
home = {n: getattr(importlib.import_module("lowerprev." + m), n) for n, m in lp._HOME.items()}
via_star = [n for n in lp.__all__ if star.get(n) is not home[n]]
via_attr = [n for n in lp.__all__ if getattr(lp, n) is not home[n]]
print(via_star, via_attr, sorted(set(star) - set(lp.__all__) - {"__builtins__"}))
"""
    assert _child(src_env, "-c", script) == "[] [] []"


def test_all_names_are_listed_once_and_dir_shows_them():
    assert len(set(lowerprev.__all__)) == len(lowerprev.__all__)
    assert set(lowerprev.__all__) <= set(dir(lowerprev))
    assert "__version__" in dir(lowerprev)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        lowerprev.not_a_name  # noqa: B018


def test_schemas_equal_the_bundled_files():
    schema_dir = ROOT / "src" / "lowerprev" / "schema" / "v1"
    assert problem_schema() == json.loads((schema_dir / "problem.schema.json").read_text())
    assert report_schema() == json.loads((schema_dir / "report.schema.json").read_text())
