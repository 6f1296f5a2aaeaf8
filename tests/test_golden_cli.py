"""Golden CLI reports: every command on every demo document, byte for byte.

``golden_cli_reports.json`` holds the exit status and the exact stdout
of ``lowerprev <command> <document> --verify-witness`` for every
command and every fixture under ``demos/documents``, flags otherwise
left at their defaults (document queries fill in what a command
needs; a command with nothing to run reports its exit-2 error).
Regenerate it only for a deliberate change of report content:

    PYTHONPATH=src python -m tests.test_golden_cli
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

import lowerprev.cli as cli

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "demos" / "documents"
GOLDEN = Path(__file__).resolve().parent / "golden_cli_reports.json"
COMMANDS = tuple(cli._COMMANDS)


def run_report(command: str, document: Path) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main([command, str(document), "--verify-witness"])
    return {
        "command": command,
        "document": document.name,
        "exit_status": status,
        "stdout": out.getvalue(),
    }


def all_reports(commands=COMMANDS) -> list[dict]:
    documents = sorted(DOCS.glob("*.json"))
    return [run_report(c, d) for c in commands for d in documents]


@pytest.mark.parametrize("command", COMMANDS)
def test_reports_match_golden(command):
    golden = [r for r in json.loads(GOLDEN.read_text()) if r["command"] == command]
    assert golden, f"no golden reports for {command}"
    assert all_reports((command,)) == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(all_reports(), indent=1) + "\n")
