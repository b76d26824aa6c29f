#!/usr/bin/env python3
"""Code lines per module: the lines of Python source that hold code.

    python3 scripts/code_lines.py [DIR]
    make lines

Prints, for every ``*.py`` file under DIR (``src/cubeperc`` by default), in
path order, the number of its lines that hold code, then their total.  A
line holds code when some token on it is neither a comment nor part of a
docstring (``tokenize``); blank lines hold none.  A docstring is the string
that opens a module, class or function body (``ast``).  A string, bracket
or backslash continued over several lines counts every line it spans.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstrings(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    # the (start, end) positions, as (line, column), of every docstring
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                spans.append(((first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docstrings = _docstrings(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or any(a <= tok.start < b for a, b in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", type=Path, default=ROOT / "src" / "cubeperc")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.dir.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.relative_to(args.dir)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
