"""Code lines and settable values of a Python source directory.

    python tools/code_size.py [DIR]        # DIR defaults to src/grothq

Prints one row per module and a total row:
  code lines       lines holding a token other than a comment, with blank
                   lines and the lines of module, class and function
                   docstrings left out;
  settable values  parameters with a default, dataclass fields with a
                   default, and optional command-line flags: ``add_argument``
                   calls whose first argument starts with ``--`` and which
                   do not pass ``required=True``.
Standard library only (``ast``, ``tokenize``).
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _HAS_DOCSTRING) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path) -> int:
    source = Path(path).read_bytes()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _is_dataclass(node) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _is_optional_flag(node) -> bool:
    if not (isinstance(node.func, ast.Attribute) and node.func.attr == "add_argument"
            and node.args and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).startswith("--")):
        return False
    return not any(kw.arg == "required" and isinstance(kw.value, ast.Constant)
                   and kw.value.value is True for kw in node.keywords)


def settable_values(path) -> int:
    count = 0
    for node in ast.walk(ast.parse(Path(path).read_bytes())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
        elif isinstance(node, ast.Call) and _is_optional_flag(node):
            count += 1
    return count


def main(argv) -> int:
    root = Path(argv[0] if argv else "src/grothq")
    paths = sorted(root.rglob("*.py"))
    if not paths:
        print(f"no Python files under {root}", file=sys.stderr)
        return 2
    rows = [(str(p.relative_to(root)), code_lines(p), settable_values(p)) for p in paths]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  code_lines  settable_values")
    for name, lines, values in rows:
        print(f"{name:<{width}}  {lines:>10}  {values:>15}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
