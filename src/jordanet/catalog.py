"""Built-in catalog of reference subspaces and degeneration families.

Every entry is an exact transcription, shipped as JSON under
``data/catalog/`` and listed in ``manifest.json``.  Degeneration entries are
one-parameter families obtained from a source net by a linear substitution of
the quadric variables (a, b, c, d), v -> S(t) v, each basis matrix M replaced
by S(t)^T M S(t), a coordinate row of {power of t: coefficient} entries;
substitutions may involve the formal imaginary unit ``I``, which must cancel
out of the resulting matrices (the loader verifies this).

IDs are resolved by ``canonical(id)``; the CLI exposes the same entries via
``catalog://<id>`` URIs.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple, Union

from .errors import InputError, InternalCheckError
from .io import parse_space_data
from .spaces import MatSpace, ParametricBasis, sym_pairs

DATA_DIR = Path(__file__).resolve().parent / "data" / "catalog"

QUADRIC_VARS = ("a", "b", "c", "d")


@functools.cache
def manifest() -> dict:
    return json.loads((DATA_DIR / "manifest.json").read_text())


def catalog_ids() -> List[str]:
    return sorted(manifest())


def catalog_note(catalog_id: str) -> str:
    entry = manifest().get(catalog_id)
    return "" if entry is None else entry.get("note", "")


@functools.cache
def canonical(catalog_id: str) -> Union[MatSpace, ParametricBasis]:
    """Resolve a catalog id to its space or parametric family, built once per
    process."""
    entry = manifest().get(catalog_id)
    if entry is None:
        raise InputError("UNKNOWN_ID", f"unknown catalog id {catalog_id!r}")
    if entry.get("kind") == "degeneration":
        source = canonical(entry["source"])
        if not isinstance(source, MatSpace):
            raise InternalCheckError("INTERNAL", "degeneration source must be a plain space")
        return substitution_family(source, entry["substitution"])
    return parse_space_data(json.loads((DATA_DIR / entry["file"]).read_text()))


def degeneration_edges() -> List[Tuple[str, str, str]]:
    """(catalog id, source id, target label) for every stored degeneration."""
    out = []
    for cid, entry in manifest().items():
        if entry.get("kind") == "degeneration":
            out.append((cid, entry["source"], entry["target"]))
    return sorted(out)


def substitution_family(space: MatSpace, substitution: List[str]) -> ParametricBasis:
    """Family from replacing the quadric variables (a, b, c, d) linearly.

    Every term of each substitution string e_i has degree exactly 1 in
    a, b, c, d, with a coefficient in the parameter t (and possibly the
    formal unit I); each string is read as integers, e_i = e'_i / d_i
    (``exact.integer_poly``), and checked in turn.  Writing the substitution
    as v -> S(t) v, every basis matrix M = B' / L becomes S(t)^T M S(t).
    With d the lcm of the d_i, S' = d S is an integer polynomial matrix over
    (t, I) in one ``Packing``, row i the coefficients of a, b, ... in e'_i
    times d / d_i; S'^T B' S' is two ``int_poly_matmul`` products, and each
    of its packed terms is folded by I^2 = -1 and divided by d^2 L.
    """
    from .exact import Packing, int_poly_matmul, integer_poly  # the polynomial layer, for families alone
    n = space.n
    if len(substitution) != n:
        raise InputError("PARSE_ERROR", "substitution needs one expression per quadric variable")
    names = QUADRIC_VARS[:n]
    exprs = []
    for expr in substitution:
        poly, d = integer_poly(expr)
        extra = {v for mono in poly for v, _ in mono} - set(names) - {"t", "I"}
        if extra:
            raise InputError("PARSE_ERROR", f"unexpected variables {sorted(extra)} in substitution")
        if any(sum(e for v, e in mono if v in names) != 1 for mono in poly):
            raise InputError("PARSE_ERROR", "substitution must be linear in the quadric variables")
        exprs.append((poly, d))
    lcm = math.lcm(*(d for _, d in exprs))
    bound = 2 * max((e for poly, _ in exprs for mono in poly for v, e in mono if v not in names),
                    default=0)
    packing, column = Packing(2, bound), {v: k for k, v in enumerate(names)}  # t above I
    s = [[{} for _ in names] for _ in names]
    for row, (poly, d) in zip(s, exprs):
        for mono, c in poly.items():
            exps = dict(mono)
            k = next(column[v] for v in exps if v in column)
            row[k][packing.key((exps.get("t", 0), exps.get("I", 0)))] = c * (lcm // d)
    basis, scale = space.integer_basis()
    den, st = lcm * lcm * scale, list(zip(*s))
    rows = []
    for b in basis:
        constant = [[{0: x} if x else {} for x in r] for r in b]
        product = int_poly_matmul(int_poly_matmul(st, constant), s)
        row = []
        for i, j in sym_pairs(n):
            entry: Dict[int, int] = {}
            for key, c in product[i][j].items():
                power, imaginary = packing.exps(key)
                if imaginary % 2:
                    raise InternalCheckError("INTERNAL",
                                             "imaginary unit did not cancel in substitution")
                entry[power] = entry.get(power, 0) + (-c if imaginary % 4 else c)
            row.append({p: Fraction(c, den) for p, c in entry.items() if c})
        rows.append(row)
    return ParametricBasis(n, rows)
