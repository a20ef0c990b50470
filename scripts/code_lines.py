#!/usr/bin/env python3
"""Line counts of each module of the package.

Prints, per module of ``nusample`` and in total, the physical lines and the
code lines: the lines that hold a token of code, so blank lines, comment
lines and the lines of module, class and function docstrings do not count.
A change that claims to shrink the package reports both numbers from here.
``nusample`` is found on ``PYTHONPATH`` without being imported; run the
script once per checkout and compare:

    PYTHONPATH=src python scripts/code_lines.py
    PYTHONPATH=/path/to/other/src python scripts/code_lines.py
"""
import ast
import importlib.util
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main():
    spec = importlib.util.find_spec("nusample")
    if spec is None:
        sys.exit("nusample is not on PYTHONPATH; run with PYTHONPATH=src")
    total_lines = total_code = 0
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for path in sorted(Path(spec.origin).parent.glob("*.py")):
        lines, code = count(path.read_text())
        total_lines += lines
        total_code += code
        print(f"{path.name:<16}{lines:>7}{code:>7}")
    print(f"{'total':<16}{total_lines:>7}{total_code:>7}")


if __name__ == "__main__":
    main()
