"""Line and parameter counts of the package source.

    python3 tools/src_stats.py [PATH ...]

prints, for each Python file under each PATH (default: src), its total
lines split into code, docstring, comment and blank lines, the number of
parameters that have a default value and the number of module-level
caches; then the sums over all files.

- A docstring line is a line of the string that opens a module, class or
  function body.
- A code line holds any other token, a trailing comment included.
- A comment line holds only a comment.
- A blank line is any other line.

The four parts add up to the total.  Defaulted parameters are counted
over every function and lambda: positional defaults plus keyword-only
parameters with a default.  Caches are the uses of functools.lru_cache and
functools.cache in the decorators of module-level functions and in
module-level assignments, such as f = functools.lru_cache(maxsize=1)(g);
functools.cached_property, a cache per object, is not counted.  Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIELDS = ("total", "code", "docstring", "comment", "blank", "defaulted", "caches")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def file_stats(path: Path) -> dict:
    """The FIELDS counts of one Python source file."""
    text = path.read_text()
    tree = ast.parse(text)
    doc = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            doc.update(range(first.lineno, first.end_lineno + 1))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= doc
    comment -= code | doc
    total = len(text.splitlines())
    defaulted = sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))
    return {"total": total, "code": len(code), "docstring": len(doc), "comment": len(comment),
            "blank": total - len(code) - len(doc) - len(comment), "defaulted": defaulted,
            "caches": module_caches(tree)}


def module_caches(tree: ast.Module) -> int:
    """Uses of functools.lru_cache and functools.cache at module level."""
    roots = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots += stmt.decorator_list
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
            roots.append(stmt.value)
    return sum(isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
               and isinstance(node.value, ast.Name) and node.value.id == "functools"
               for root in roots for node in ast.walk(root))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("paths", nargs="*", default=[str(ROOT / "src")],
                   help="files or directories (default: src)")
    args = p.parse_args(argv)
    files = sorted(f.resolve() for arg in map(Path, args.paths)
                   for f in ([arg] if arg.is_file() else arg.rglob("*.py")))
    rows = [(str(f.relative_to(ROOT) if f.is_relative_to(ROOT) else f), file_stats(f))
            for f in files]
    rows.append(("total", {k: sum(s[k] for _, s in rows) for k in FIELDS}))
    width = max(len(name) for name, _ in rows)
    print(f"{'file':<{width}}" + "".join(f"{k:>10}" for k in FIELDS))
    for name, stats in rows:
        print(f"{name:<{width}}" + "".join(f"{stats[k]:>10}" for k in FIELDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
