"""Every name the package defines is used by the package itself.

A function, class, method or module-level name that only the tests reach
belongs in the tests (``oracles.py``), and one nothing reaches is deleted.
A use is the name as an identifier token anywhere in ``src/jordanet`` other
than inside its own definition; comments and strings do not count, so
``__init__.py``'s exports, which are strings, use nothing.  A method is used
only where the package reads it as an attribute (``x.name``): a local
variable or keyword of the same name does not count.  Exempt are the ``cmd_*`` commands, which
``cli.main`` dispatches by name, dunder methods, the functions
``benchmark/tracing.py`` wraps by name (its ``LAYER_FUNCTIONS``) and the
names the benchmark's files import from ``jordanet``, all read with ``ast``,
not imported.  A use inside such a function that nothing in the package
calls does not count: it is reached only from outside.
"""

import ast
import importlib
import io
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jordanet"


def traced_names():
    """The function names in ``LAYER_FUNCTIONS`` of the benchmark's tracer."""
    tree = ast.parse((ROOT / "benchmark" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYER_FUNCTIONS":
            return {elt.value for names in node.value.values for elt in names.elts}
    raise AssertionError("LAYER_FUNCTIONS not found")


def harness_names():
    """The names ``benchmark/*.py`` imports from ``jordanet`` and its modules."""
    return {alias.name for path in sorted((ROOT / "benchmark").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "jordanet"
            for alias in node.names}


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
    users = list(sources)
    uses = {False: [(name, module, line) for module in users
                    for name, line in name_tokens(sources[module])],
            True: [(name, module, line) for module in users
                   for name, line in attribute_reads(trees[module])]}

    def used(module, name, first, last, method):
        return any(n == name and (m != module or not first <= line <= last)
                   for n, m, line in uses[method])

    exempt = traced_names() | harness_names()
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


#: the ring operations of ``oracles.MPoly``: in the package a polynomial is a
#: value, and every product runs on the packed integer kernel
RING = ("var", "zero", "with_vars", "_align", "_coerce", "__add__", "__radd__", "__neg__",
        "__sub__", "__rsub__", "__mul__", "__rmul__", "__pow__", "scale", "leading_monomial",
        "leading_coeff", "content", "sign_normalized", "split_by_vars")


def test_the_package_polynomial_has_no_ring():
    # the dunders among these are exempt from the check above
    from jordanet import exact

    assert [name for name in RING if hasattr(exact.MPoly, name)] == []
    assert not hasattr(exact, "frac_gcd")


#: every name ``jordanet`` exports, by its home module
EXPORTS = {
    "catalog": ("canonical", "catalog_ids"),
    "chow": ("chow_det_generic", "chow_kernel_forms", "chow_matrix", "chow_rank",
             "sampled_reciprocal_span"),
    "classify": ("classify_abstract", "classify_copencil_S3", "classify_net_S4",
                 "classify_pencil", "ejo_component_count"),
    "errors": ("InputError", "InternalCheckError", "JordanetError", "PreconditionError"),
    "exact": ("MPoly", "parse_poly", "poly_eval"),
    "jordan": ("JordanStructure", "check_reciprocal_identity", "is_jordan", "jordan_closure",
               "peirce", "radical", "structure_constants"),
    "linalg": ("Mat", "adjugate", "charpoly", "det"),
    "spaces": ("MatSpace", "ParametricBasis", "PluckerVector", "congruence_transform",
               "contains", "find_invertible", "generic_det", "grassmann_limit", "make_space",
               "orth_complement", "plucker", "rank_one_pencil", "sample_congruent"),
    "varieties": ("catalog_eval", "macaulay_emptiness", "min_rank_bounds"),
}


def test_the_namespace_gives_each_name_from_its_home_module():
    import jordanet

    names = sorted(name for found in EXPORTS.values() for name in found)
    assert sorted(jordanet.__all__) == names
    assert set(names) <= set(dir(jordanet))
    assert jordanet.__version__ == "0.1.0"
    star = {}
    exec("from jordanet import *", star)
    for module, found in EXPORTS.items():
        home = importlib.import_module(f"jordanet.{module}")
        for name in found:
            imported = {}
            exec(f"from jordanet import {name}", imported)
            assert getattr(jordanet, name) is imported[name] is star[name] is getattr(home, name)
    with pytest.raises(AttributeError):
        jordanet.no_such_name


def test_the_tracer_finds_each_moved_function_under_its_old_module():
    # benchmark/tracing.py looks each traced name up in the module its span is
    # named after; these live in univariate and spaces, and keep that name
    from jordanet import exact, spaces, univariate, varieties

    for name in ("mpoly_gcd", "subresultant_gcd", "squarefree_decomposition"):
        assert getattr(exact, name) is getattr(univariate, name)
    assert varieties.rank_one_pencil is spaces.rank_one_pencil
