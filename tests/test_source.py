"""Source-level rules that no other test can see."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "speclab"


def test_no_assert_statements_in_the_package():
    # `python -O` strips asserts, so a check written as one silently
    # vanishes; bad input must raise a SpeclabError or ValueError instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py")), "no package sources found"
    assert found == [], f"assert statements in src/speclab: {found}"
