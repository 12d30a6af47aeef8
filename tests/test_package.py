"""Every name the package defines is used by the package itself.

A function, class, method or module-level name that only the tests reach
belongs in the tests (``oracles.py``), and one nothing reaches is deleted.
A use is the name as an identifier token anywhere in ``src/jordanet`` other
than inside its own definition and ``__init__.py``'s re-exports; comments
and strings do not count.  Exempt are the ``cmd_*`` commands, which
``cli.main`` dispatches by name, dunder methods, and the functions
``benchmark/tracing.py`` wraps by name (its ``LAYER_FUNCTIONS``, read with
``ast``, not imported).  A use inside such a function that nothing in the
package calls does not count: it is reached only from outside.
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jordanet"


def traced_names():
    """The function names in ``LAYER_FUNCTIONS`` of the benchmark's tracer."""
    tree = ast.parse((ROOT / "benchmark" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYER_FUNCTIONS":
            return {elt.value for names in node.value.values for elt in names.elts}
    raise AssertionError("LAYER_FUNCTIONS not found")


def definitions(tree):
    """(name, first line, last line) of every top-level function, class and
    assigned name, and of every method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield item.name, item.lineno, item.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno, node.end_lineno


def name_tokens(source):
    """(identifier, line) for every NAME token: code only, no comments or strings."""
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            yield tok.string, tok.start[0]


def unused_names():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    defined = [(module, name, first, last) for module, source in sources.items()
               for name, first, last in definitions(ast.parse(source))]
    uses = [(name, module, line) for module, source in sources.items() if module != "__init__.py"
            for name, line in name_tokens(source)]

    def used(module, name, first, last):
        return any(n == name and (m != module or not first <= line <= last) for n, m, line in uses)

    exempt = traced_names()
    idle = [(module, first, last) for module, name, first, last in defined
            if name in exempt and not used(module, name, first, last)]
    uses = [(n, m, line) for n, m, line in uses
            if not any(m == module and first <= line <= last for module, first, last in idle)]
    return [f"{module}:{first} {name}" for module, name, first, last in defined
            if not (name.startswith("cmd_") or (name.startswith("__") and name.endswith("__"))
                    or name in exempt or used(module, name, first, last))]


def test_every_package_name_is_used_by_the_package():
    assert unused_names() == []
