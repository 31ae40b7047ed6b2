"""Print the code-only lines of each module under src/htlab, and their total.

    python tests/code_lines.py [DIR]

A line is code when a token other than a comment, a line break or an
indent sits on it (a token spanning lines marks each of them), and it is
not part of a docstring: the leading string of a module, class or
function.  Blank lines, comments and docstrings do not count.  DIR
defaults to the src/htlab next to this file.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code-only lines of a Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def table(directory):
    """[(module name, code-only lines)] for the .py files of directory, by name."""
    return [(path.stem, code_lines(path.read_text())) for path in sorted(Path(directory).glob("*.py"))]


def main(argv):
    directory = argv[1] if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "htlab"
    rows = table(directory)
    width = max([len(name) for name, _ in rows] + [len("total")])
    for name, n in rows:
        print(f"{name:<{width}}  {n:>5}")
    print(f"{'total':<{width}}  {sum(n for _, n in rows):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
