"""Count the lines of the ``zerosum`` package, per module and in total.

Physical lines are every line of a file.  Code lines leave out docstrings,
comments and blank lines, so they count what an import compiles.  Run from
the repository root:

    python3 tools/src_lines.py [DIRECTORY]

DIRECTORY defaults to ``src/zerosum``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count_lines(text: str) -> tuple[int, int]:
    """``(physical, code)`` line counts of one module's source."""
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path("src/zerosum")
    totals = [0, 0]
    print(f"{'module':<16}{'physical':>10}{'code':>8}")
    for path in sorted(root.glob("*.py")):
        physical, code = count_lines(path.read_text())
        totals[0] += physical
        totals[1] += code
        print(f"{path.name:<16}{physical:>10}{code:>8}")
    print(f"{'total':<16}{totals[0]:>10}{totals[1]:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
