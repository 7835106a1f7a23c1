"""Count the code lines of the ``tamecuts`` package in two source trees.

    python3 tools/code_lines.py PARENT_SRC CHANGE_SRC

Each SRC is the directory that holds the ``tamecuts`` package (a
checkout's ``src``).  A code line is a line of a ``.py`` file under the
package that is not blank, holds no token but a comment, and lies in no
docstring: the string expression opening a module, class or function
body.  Comments are found with ``tokenize`` and docstring spans with
``ast``.  Prints each tree's total and the change's delta.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                            tokenize.INDENT, tokenize.DEDENT,
                            tokenize.ENDMARKER):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)) and body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.difference_update(range(body[0].lineno,
                                          body[0].end_lineno + 1))
    return len(lines)


def tree_lines(src: str) -> int:
    """The code lines of every module of the ``tamecuts`` package in
    ``src``."""
    package = os.path.join(os.path.abspath(src), "tamecuts")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"error: no tamecuts package in {src}")
    total = 0
    for root, dirs, files in os.walk(package):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    total += code_lines(fh.read())
    return total


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    args = ap.parse_args()
    parent, change = tree_lines(args.parent_src), tree_lines(args.change_src)
    print(f"parent {parent}\nchange {change}\ndelta {change - parent:+d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
