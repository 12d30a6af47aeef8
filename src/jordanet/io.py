"""JSON input/output for subspaces and parametric families.

Plain space files look like::

    {"n": 4, "basis": [[[1, 0, ...], ...], ...]}

where ``n`` is a JSON integer >= 1 and entries are integers or rational
strings "p/q"; matrices are full n x n arrays and must be symmetric.  A
plain file is read straight into the space's integer basis (B', L)
(``spaces.make_space``): JSON integers stay ints, each string goes
through ``exact.frac`` once (its mirror below the diagonal shares it when
the two raw values are equal and of one JSON type) and stays a Fraction
only when it is not an integer, and L is the one lcm of those Fractions'
denominators.  No Fraction matrix is built.  Parametric
families add ``"parametric": true`` (a JSON boolean) and allow entries to
be integers or polynomial strings in the parameter ``t``, or in the
variable that ``"param"`` names (a string in the polynomial grammar's name
syntax); booleans are rejected everywhere.  A family is read straight into
its rows (``spaces.ParametricBasis``), each entry parsed once into {power of
the parameter: Fraction}, and checked once every entry has parsed: its full
arrays must be symmetric, as ``make_space`` checks a plain space's.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Dict, Union

from .errors import InputError, PreconditionError
from .exact import NAME, frac, parse_poly
from .spaces import MatSpace, ParametricBasis, make_space, sym_pairs


def _entry_to_rational(value) -> Union[int, Fraction]:
    """A plain file's entry: a JSON integer as it is, a string as an int when
    it is one and as a Fraction otherwise."""
    if isinstance(value, bool):
        raise InputError("PARSE_ERROR", "boolean is not a matrix entry")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        x = frac(value)
        return x.numerator if x.denominator == 1 else x
    raise InputError("PARSE_ERROR", f"bad matrix entry {value!r}")


def _entry_to_powers(value, param: str) -> Dict[int, Fraction]:
    """A family's entry as {power of param: nonzero Fraction coefficient}."""
    if isinstance(value, bool):
        raise InputError("PARSE_ERROR", "boolean is not a family entry")
    if isinstance(value, int):
        return {0: Fraction(value)} if value else {}
    if isinstance(value, str):
        poly = parse_poly(value)
        extra = set(poly.support_vars()) - {param}
        if extra:
            raise InputError("PARSE_ERROR", f"family entries may only use {param!r}, got {sorted(extra)}")
        k = poly.vars.index(param) if param in poly.vars else None
        return {0 if k is None else exps[k]: c for exps, c in poly.terms.items()}
    raise InputError("PARSE_ERROR", f"bad family entry {value!r}")


def parse_space_data(obj: dict) -> Union[MatSpace, ParametricBasis]:
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
    if not isinstance(param, str) or not NAME.fullmatch(param):
        raise InputError("PARSE_ERROR", f"'param' must be a variable name, got {param!r}")
    mats = []
    for raw in basis_data:
        if (not isinstance(raw, list) or len(raw) != n
                or any(not isinstance(r, list) or len(r) != n for r in raw)):
            raise InputError("PARSE_ERROR", "each basis matrix must be a full n x n array")
        if parametric:
            mats.append([[_entry_to_powers(e, param) for e in row] for row in raw])
        else:  # below the diagonal, an entry equal to its mirror and of its JSON type shares it
            rows = []
            for i, line in enumerate(raw):
                rows.append([rows[j][i] if j < i and e == raw[j][i] and type(e) is type(raw[j][i])
                             else _entry_to_rational(e) for j, e in enumerate(line)])
            mats.append(rows)
    if parametric:
        if any([list(col) for col in zip(*rows)] != rows for rows in mats):
            raise PreconditionError("NOT_SYMMETRIC", "family matrices must be symmetric")
        return ParametricBasis(n, [[rows[i][j] for i, j in sym_pairs(n)] for rows in mats])
    lcm = math.lcm(*(x.denominator for rows in mats for row in rows for x in row
                     if type(x) is Fraction))
    if lcm > 1:  # else every entry is an int already
        mats = [[[x * lcm if type(x) is int else x.numerator * (lcm // x.denominator)
                  for x in row] for row in rows] for rows in mats]
    return make_space(n, ints=(mats, lcm))


def read_text_file(path: Union[str, Path]) -> str:
    """File contents; an unreadable file is a PARSE_ERROR."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError("PARSE_ERROR", f"cannot read {path}: {exc}") from exc


def load_space_file(path: Union[str, Path]) -> Union[MatSpace, ParametricBasis]:
    text = read_text_file(path)
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, > 4300 digits, nested too deep
        raise InputError("PARSE_ERROR", f"bad JSON in {path}: {exc}") from exc
    return parse_space_data(obj)

