"""Built-in catalog of reference subspaces and degeneration families.

Every entry is an exact transcription, shipped as JSON under
``data/catalog/`` and listed in ``manifest.json``.  Degeneration entries are
one-parameter families obtained from a source net by a linear substitution of
the quadric variables (a, b, c, d), each basis matrix's coordinate row read
off its substituted quadric as {power of t: coefficient} entries;
substitutions may involve the formal imaginary unit ``I``, which must cancel
out of the resulting matrices (the loader verifies this).

IDs are resolved by ``canonical(id)``; the CLI exposes the same entries via
``catalog://<id>`` URIs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple, Union

from .errors import InputError, InternalCheckError
from .exact import MPoly, parse_poly
from .io import parse_space_data
from .spaces import MatSpace, ParametricBasis, sym_pairs

DATA_DIR = Path(__file__).resolve().parent / "data" / "catalog"

_MANIFEST = None
_MEMO: Dict[str, Union[MatSpace, ParametricBasis]] = {}

QUADRIC_VARS = ("a", "b", "c", "d")


def manifest() -> dict:
    global _MANIFEST
    if _MANIFEST is None:
        _MANIFEST = json.loads((DATA_DIR / "manifest.json").read_text())
    return _MANIFEST


def catalog_ids() -> List[str]:
    return sorted(manifest())


def catalog_note(catalog_id: str) -> str:
    entry = manifest().get(catalog_id)
    return "" if entry is None else entry.get("note", "")


def canonical(catalog_id: str) -> Union[MatSpace, ParametricBasis]:
    """Resolve a catalog id to its space or parametric family."""
    entry = manifest().get(catalog_id)
    if entry is None:
        raise InputError("UNKNOWN_ID", f"unknown catalog id {catalog_id!r}")
    if catalog_id not in _MEMO:
        if entry.get("kind") == "degeneration":
            source = canonical(entry["source"])
            if not isinstance(source, MatSpace):
                raise InternalCheckError("INTERNAL", "degeneration source must be a plain space")
            _MEMO[catalog_id] = substitution_family(source, entry["substitution"])
        else:
            obj = json.loads((DATA_DIR / entry["file"]).read_text())
            _MEMO[catalog_id] = parse_space_data(obj)
    return _MEMO[catalog_id]


def degeneration_edges() -> List[Tuple[str, str, str]]:
    """(catalog id, source id, target label) for every stored degeneration."""
    out = []
    for cid, entry in manifest().items():
        if entry.get("kind") == "degeneration":
            out.append((cid, entry["source"], entry["target"]))
    return sorted(out)


def _reduce_imaginary(p: MPoly) -> MPoly:
    """Fold powers of the formal unit I via I^2 = -1; odd powers must cancel."""
    if "I" not in p.vars:
        return p
    idx = p.vars.index("I")
    out = {}
    for exps, coeff in p.terms.items():
        e = exps[idx]
        if e % 2 == 1:
            raise InternalCheckError("INTERNAL", "imaginary unit did not cancel in substitution")
        sign = -1 if (e // 2) % 2 else 1
        key = exps[:idx] + (0,) + exps[idx + 1:]
        out[key] = out.get(key, Fraction(0)) + coeff * sign
    return MPoly(p.vars, {k: v for k, v in out.items() if v != 0})


def substitution_family(space: MatSpace, substitution: List[str]) -> ParametricBasis:
    """Family from replacing the quadric variables (a, b, c, d) linearly.

    Every term of each substitution string e_i has degree exactly 1 in
    a, b, c, d, with a coefficient in the parameter t (and possibly the
    formal unit I).  Writing the substitution as v -> S(t) v, every basis
    matrix M becomes S(t)^T M S(t), read off the quadric sum_ij M_ij e_i e_j
    after folding I: its coefficient of v_k^2 t^p is the power-p coefficient
    of the (k, k) entry and that of v_k v_l t^p (k < l) twice that of the
    (k, l) entry, each written straight into the matrix's coordinate row.
    """
    n = space.n
    if len(substitution) != n:
        raise InputError("PARSE_ERROR", "substitution needs one expression per quadric variable")
    names = QUADRIC_VARS[:n]
    exprs = []
    for expr in substitution:
        poly = parse_poly(expr)
        extra = set(poly.support_vars()) - set(names) - {"t", "I"}
        if extra:
            raise InputError("PARSE_ERROR", f"unexpected variables {sorted(extra)} in substitution")
        if any(sum(k) != 1 for k in poly.split_by_vars(names)):
            raise InputError("PARSE_ERROR", "substitution must be linear in the quadric variables")
        exprs.append(poly)
    products = {(i, j): exprs[i] * exprs[j] for i in range(n) for j in range(i, n)}
    position = {pair: k for k, pair in enumerate(sym_pairs(n))}
    rows = []
    for b in space.basis:
        quadric = sum((e.scale(b[i, j] if i == j else 2 * b[i, j])
                       for (i, j), e in products.items() if b[i, j]), MPoly.zero())
        row = [{} for _ in position]
        for exps, coeff in _reduce_imaginary(quadric).split_by_vars(names).items():
            i, j = (k for k, e in enumerate(exps) for _ in range(e))
            # the rest is in t alone (I folded to exponent 0), so a term's degree is its power of t
            row[position[i, j]] = {sum(e): c if i == j else c / 2 for e, c in coeff.terms.items()}
        rows.append(row)
    return ParametricBasis(n, rows)
