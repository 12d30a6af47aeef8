"""Integer polynomials in one variable, for the generic multiplicity partition.

The partition (``classify.generic_multiplicity_partition``) reads one
integer polynomial in lam at a time, the list of its coefficients:
``squarefree_decomposition`` (Yun) takes its gcds by ``mpoly_gcd`` (the gcd
of the coefficients times the primitive gcd) and ``subresultant_gcd`` (the
subresultant pseudo-remainder sequence, with exact integer divisions).
"""

from __future__ import annotations

import itertools
import math
from typing import List, Tuple

from .errors import InternalCheckError
from .linalg import primitive


# -- integer polynomials in one variable ----------------------------------------
#
# A polynomial in lam is the list of its integer coefficients, lowest degree
# first, with no trailing 0: [] is 0.

def _trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _derivative(p: list) -> list:
    return [k * x for k, x in enumerate(p)][1:]


def _sub(a: list, b: list) -> list:
    return _trim([x - y for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _div(a: list, b: list) -> list:
    """The exact quotient a / b; a remainder is a bug and raises."""
    if b == [1]:
        return a
    r, db = list(a), len(b) - 1
    q = [0] * max(len(r) - db, 0)
    for k in reversed(range(len(q))):
        q[k] = c = r[k + db] // b[-1]
        if c:
            for j, y in enumerate(b):
                r[k + j] -= c * y
    if any(r):
        raise InternalCheckError("INTERNAL", "inexact integer polynomial division")
    return _trim(q)


def _prem(a: list, b: list) -> list:
    """The pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b, deg b >= 1."""
    lb, db = b[-1], len(b) - 1
    steps = len(a) - db
    while steps > 0 and len(a) > db:
        lead, shift = a[-1], len(a) - 1 - db
        a = [lb * x for x in a]
        for j, y in enumerate(b):
            a[shift + j] -= lead * y
        a, steps = _trim(a), steps - 1
    return [lb ** steps * x for x in a] if steps > 0 else a


def mpoly_gcd(p: list, q: list) -> list:
    """The gcd of two integer polynomials, with a positive leading
    coefficient: the gcd of their coefficients times ``subresultant_gcd``."""
    if not p or not q:
        return [-x for x in p or q] if (p or q) and (p or q)[-1] < 0 else list(p or q)
    g = math.gcd(*p, *q)
    return [g * x for x in subresultant_gcd(p, q)] if g > 1 else subresultant_gcd(p, q)


def subresultant_gcd(p: list, q: list) -> list:
    """The primitive gcd of two integer polynomials with a positive leading
    coefficient: the last element of the subresultant pseudo-remainder
    sequence, each pseudo-remainder divided exactly by beta (Brown-Traub's
    beta/psi)."""
    if not p or not q:
        p = p or q
        return primitive(p, p[-1] < 0) if p else []
    if len(p) < len(q):
        p, q = q, p
    delta = len(p) - len(q)
    beta, psi = (-1) ** (delta + 1), -1
    while len(q) > 1:
        rem = _prem(p, q)
        if not rem:
            return primitive(q, q[-1] < 0)
        p, q = q, _div(rem, [beta])
        lc = -p[-1]
        if delta:
            psi = _div([lc ** delta], [psi ** (delta - 1)])[0]
        delta = len(p) - len(q)
        beta = lc * psi ** delta
    return [1]


def squarefree_decomposition(coeffs: List[int]) -> List[Tuple[List[int], int]]:
    """Yun's squarefree decomposition of the integer polynomial p = sum_k
    coeffs[k] * lam^k (a characteristic polynomial at an integer point, in
    ``classify.generic_multiplicity_partition``), its gcds by ``mpoly_gcd``.

    Returns [(factor, multiplicity), ...], one squarefree primitive factor
    per multiplicity, in increasing multiplicity; a factor is the list of
    its coefficients, of degree ``len(factor) - 1``.  p over
    prod(factor ** multiplicity) is an integer."""
    p = _trim(list(coeffs))
    if not p:
        raise ValueError("zero polynomial has no squarefree decomposition")
    c = primitive(p, p[-1] < 0)
    d, factors = _derivative(c), []
    for mult in itertools.count():  # the pass with multiplicity 0 divides out gcd(p, p')
        if len(c) == 1:
            return factors
        a = mpoly_gcd(c, d)
        if mult and len(a) > 1:
            factors.append((a, mult))
        c = _div(c, a)
        d = _sub(_div(d, a), _derivative(c))
