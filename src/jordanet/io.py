"""JSON input/output for subspaces and parametric families.

Plain space files look like::

    {"n": 4, "basis": [[[1, 0, ...], ...], ...]}

where ``n`` is a JSON integer >= 1 and entries are integers or rational
strings "p/q"; matrices are full n x n arrays and must be symmetric.  A
plain file is read straight into the space's integer basis (B', L)
(``spaces.make_space``): a matrix whose entries are all JSON integers is
kept as it was parsed, its lists those of ``json.loads``.  In any other
matrix JSON integers stay ints and each string goes through ``linalg.frac``,
and every matrix is cleared over one lcm L (``linalg.integer_matrices``).
No Fraction matrix is built.  Parametric
families add ``"parametric": true`` (a JSON boolean) and allow entries to
be integers or polynomial strings in the parameter ``t``, or in the
variable that ``"param"`` names (a string in the polynomial grammar's name
syntax); booleans are rejected everywhere.  A family is read straight into
its rows (``spaces.ParametricBasis``), each entry parsed once into {power of
the parameter: Fraction}, and checked once every entry has parsed: its full
arrays must be symmetric, as ``make_space`` checks a plain space's.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from pathlib import Path
from typing import Dict, Union

from .errors import InputError, PreconditionError
from .linalg import frac, integer_matrices
from .spaces import MatSpace, ParametricBasis, make_space, sym_pairs


def _entry_to_rational(value) -> Union[int, Fraction]:
    """A plain file's entry: a JSON integer as it is, a string as a Fraction."""
    if isinstance(value, bool):
        raise InputError("PARSE_ERROR", "boolean is not a matrix entry")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return frac(value)
    raise InputError("PARSE_ERROR", f"bad matrix entry {value!r}")


def _entry_to_powers(value, param: str) -> Dict[int, Fraction]:
    """A family's entry as {power of param: nonzero Fraction coefficient}."""
    if isinstance(value, bool):
        raise InputError("PARSE_ERROR", "boolean is not a family entry")
    if isinstance(value, int):
        return {0: Fraction(value)} if value else {}
    if isinstance(value, str):
        from .exact import parse_poly
        poly = parse_poly(value)
        extra = set(poly.support_vars()) - {param}
        if extra:
            raise InputError("PARSE_ERROR", f"family entries may only use {param!r}, got {sorted(extra)}")
        k = poly.vars.index(param) if param in poly.vars else None
        return {0 if k is None else exps[k]: c for exps, c in poly.terms.items()}
    raise InputError("PARSE_ERROR", f"bad family entry {value!r}")


def parse_space_data(obj: dict) -> Union[MatSpace, ParametricBasis]:
    """The space or family of a parsed space file (see the module).  An
    all-int matrix's lists become the space's own, so obj is not to be
    changed afterwards."""
    if not isinstance(obj, dict):
        raise InputError("PARSE_ERROR", "space file must hold a JSON object")
    n, basis_data = obj.get("n"), obj.get("basis")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InputError("PARSE_ERROR", f"'n' must be an integer >= 1, got {n!r}")
    if not isinstance(basis_data, list) or not basis_data:
        raise InputError("PARSE_ERROR", "'basis' must be a nonempty list of n x n matrices")
    parametric = obj.get("parametric", False)
    if not isinstance(parametric, bool):
        raise InputError("PARSE_ERROR", f"'parametric' must be true or false, got {parametric!r}")
    param = obj.get("param", "t")
    if "param" in obj:  # the default t is a name
        from .exact import NAME
        if not isinstance(param, str) or not NAME.fullmatch(param):
            raise InputError("PARSE_ERROR", f"'param' must be a variable name, got {param!r}")
    mats, mixed = [], False
    for raw in basis_data:
        if (not isinstance(raw, list) or len(raw) != n
                or any(not isinstance(r, list) or len(r) != n for r in raw)):
            raise InputError("PARSE_ERROR", "each basis matrix must be a full n x n array")
        if parametric:
            mats.append([[_entry_to_powers(e, param) for e in row] for row in raw])
        elif set(map(type, itertools.chain.from_iterable(raw))) == {int}:
            mats.append(raw)  # all JSON ints (no bool or float): kept as parsed
        else:
            mats.append([[_entry_to_rational(e) for e in row] for row in raw])
            mixed = True
    if parametric:
        if any([list(col) for col in zip(*rows)] != rows for rows in mats):
            raise PreconditionError("NOT_SYMMETRIC", "family matrices must be symmetric")
        return ParametricBasis(n, [[rows[i][j] for i, j in sym_pairs(n)] for rows in mats])
    return make_space(n, ints=integer_matrices(mats) if mixed else (mats, 1))


def read_text_file(path: Union[str, Path]) -> str:
    """File contents; an unreadable file is a PARSE_ERROR."""
    try:
        with open(path) as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError("PARSE_ERROR", f"cannot read {path}: {exc}") from exc


def load_space_file(path: Union[str, Path]) -> Union[MatSpace, ParametricBasis]:
    text = read_text_file(path)
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, > 4300 digits, nested too deep
        raise InputError("PARSE_ERROR", f"bad JSON in {path}: {exc}") from exc
    return parse_space_data(obj)

