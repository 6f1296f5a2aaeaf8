"""The README library tour runs unchanged and prints what its comments say.

Every top-level expression statement in the tour's ``python`` block
carries a ``# value`` comment; the test executes the block statement
by statement and compares each expression's ``repr`` with its comment.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_source() -> str:
    text = README.read_text()
    section = text[text.index("## Library tour") :]
    start = section.index("```python\n") + len("```python\n")
    return section[start : section.index("```", start)]


def test_readme_tour_values():
    source = tour_source()
    comments = {
        tok.start[0]: tok.string.lstrip("#").strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = 0
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            expected = comments.get(node.end_lineno)
            assert expected is not None, f"tour line {node.end_lineno} has no value comment"
            code = compile(ast.Expression(node.value), "README.md", "eval")
            assert repr(eval(code, namespace)) == expected, ast.unparse(node)
            checked += 1
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert checked >= 4
