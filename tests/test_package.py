"""Every name the package defines is used by the package itself.

A function, class, method or module-level name that only the tests reach
belongs in the tests (``oracles.py``), and one nothing reaches is deleted.
A use is the name as an identifier token anywhere in ``src/jordanet`` other
than inside its own definition and ``__init__.py``'s re-exports; comments
and strings do not count.  A method is used only where the package reads it
as an attribute (``x.name``): a local variable or keyword of the same name
does not count.  Exempt are the ``cmd_*`` commands, which
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
    """(name, first line, last line, whether a method) of every top-level
    function, class and assigned name, and of every method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield item.name, item.lineno, item.end_lineno, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno, node.end_lineno, False


def name_tokens(source):
    """(identifier, line) for every NAME token: code only, no comments or strings."""
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            yield tok.string, tok.start[0]


def attribute_reads(tree):
    """(attribute, line) for every attribute access ``x.attribute``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unused_names():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = [(module, name, first, last, method) for module, tree in trees.items()
               for name, first, last, method in definitions(tree)]
    users = [module for module in sources if module != "__init__.py"]
    uses = {False: [(name, module, line) for module in users
                    for name, line in name_tokens(sources[module])],
            True: [(name, module, line) for module in users
                   for name, line in attribute_reads(trees[module])]}

    def used(module, name, first, last, method):
        return any(n == name and (m != module or not first <= line <= last)
                   for n, m, line in uses[method])

    exempt = traced_names()
    idle = [(module, first, last) for module, name, first, last, method in defined
            if name in exempt and not used(module, name, first, last, method)]
    uses = {method: [(n, m, line) for n, m, line in found
                     if not any(m == module and first <= line <= last for module, first, last in idle)]
            for method, found in uses.items()}
    return [f"{module}:{first} {name}" for module, name, first, last, method in defined
            if not (name.startswith("cmd_") or (name.startswith("__") and name.endswith("__"))
                    or name in exempt or used(module, name, first, last, method))]


def test_every_package_name_is_used_by_the_package():
    assert unused_names() == []
