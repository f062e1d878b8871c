"""Size of a Python package: physical lines, code lines and statements per module.

Code lines leave out blank lines, comment-only lines and docstring lines
(the string that opens a module, class or function body).  Statements are
the AST statement nodes other than docstrings, so joining lines or
reflowing text does not move them.  The script only prints; it gates nothing.

Example:
    python3 scripts/code_size.py            # src/recdev
    python3 scripts/code_size.py path/to/package
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

DEFAULT = Path(__file__).resolve().parent.parent / "src" / "recdev"


def _docstrings(tree: ast.Module) -> list:
    """The docstring statements of the module and of every class and function."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return [
        node.body[0]
        for node in ast.walk(tree)
        if isinstance(node, owners) and ast.get_docstring(node, clean=False) is not None
    ]


def measure(source: str) -> tuple:
    """(physical lines, code lines, statements) of one module's source."""
    tree = ast.parse(source)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    docstrings = _docstrings(tree)
    for doc in docstrings:
        code -= set(range(doc.lineno, doc.end_lineno + 1))
    statements = sum(isinstance(node, ast.stmt) for node in ast.walk(tree)) - len(docstrings)
    return len(source.splitlines()), len(code), statements


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("package", nargs="?", type=Path, default=DEFAULT, help="package directory")
    args = ap.parse_args(argv)
    rows = [(p.name, *measure(p.read_text(encoding="utf-8")))
            for p in sorted(args.package.glob("*.py"))]
    rows.append(("total", *(sum(r[j] for r in rows) for j in (1, 2, 3))))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}  {'stmts':>6}")
    for name, lines, code, stmts in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}  {stmts:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
