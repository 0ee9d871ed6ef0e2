"""Count the code lines of each `*.py` file of a directory and their total.

A code line holds at least one token that is not a comment or a newline and
is not part of a module, class or function docstring. Blank lines, comment
lines and docstrings are not counted.

Run: `python3 tools/code_lines.py [DIR ...]`. With no DIR it counts the
`src/pseudosup` beside `tools/`. Given several, it counts each in turn under a
line that names it. Only a directory's own files are counted, not those of its
subdirectories. The exit status is 2 if a DIR is not a directory.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pseudosup"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in the Python text `source`."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv: list[str] | None = None) -> int:
    dirs = [Path(d) for d in (sys.argv[1:] if argv is None else argv)] or [SRC]
    if missing := [str(d) for d in dirs if not d.is_dir()]:
        print(f"not a directory: {', '.join(missing)}", file=sys.stderr)
        return 2
    for d in dirs:
        if len(dirs) > 1:
            print(f"{d}:")
        paths = sorted(d.glob("*.py"))
        width = max([16, *(len(p.name) + 2 for p in paths)])
        total = 0
        for path in paths:
            n = code_lines(path.read_text(encoding="utf-8"))
            total += n
            print(f"{path.name:{width}s}{n:6,d}")
        print(f"{'total':{width}s}{total:6,d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
