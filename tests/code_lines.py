"""Print the lines of each module of ``src/jordanet`` as code, docstring,
comment and blank lines, and their totals.

A line of a docstring (the first statement of a module, class or function,
when it is a string) counts as docstring, blank or not.  Of the other lines,
a blank one counts as blank, one with any token but a comment as code, and
the rest as comment.  The script only reports: it fails on no count, and
pytest does not collect it.  Run it from anywhere:

    python tests/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "jordanet"

KINDS = ("code", "docstring", "comment", "blank")

#: the tokens that put no code on their line
NOT_CODE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER)


def docstring_lines(tree):
    """The line numbers of every docstring in a module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                yield from range(first.lineno, first.end_lineno + 1)


def count(source):
    """{kind: lines} of one module's source."""
    doc = set(docstring_lines(ast.parse(source)))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        kind = ("docstring" if number in doc else "blank" if not line.strip()
                else "code" if number in code else "comment")
        counts[kind] += 1
    return counts


def main():
    totals = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{kind:>11}" for kind in KINDS))
    for path in sorted(PACKAGE.glob("*.py")):
        counts = count(path.read_text())
        for kind in KINDS:
            totals[kind] += counts[kind]
        print(f"{path.name:<16}" + "".join(f"{counts[kind]:>11}" for kind in KINDS))
    print(f"{'total':<16}" + "".join(f"{totals[kind]:>11}" for kind in KINDS))


if __name__ == "__main__":
    main()
