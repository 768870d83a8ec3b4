#!/usr/bin/env python3
"""Print the code lines of each module of src/relsplit and their total.

A code line is a non-blank line that is neither a comment nor part of a
docstring: a line that holds a token other than a comment, less the lines of
the module, class and function docstrings.

Usage: python tools/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "relsplit"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text):
    """The count of code lines of one module's source ``text``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.difference_update(range(body[0].lineno, body[0].end_lineno + 1))
    return len(lines)


def main():
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:16s} {count:5d}")
    print(f"{'total':16s} {total:5d}")


if __name__ == "__main__":
    main()
