"""Reference implementations that the package's integer paths replaced.

The oracles compute in ``MPoly``, the polynomial ring: ``jordanet.exact.MPoly``
(a value, parsed, printed, compared and evaluated) with the sums, products,
powers, scalings, leading data, content, ``sign_normalized`` and
``split_by_vars`` that the package no longer has, over ``frac_gcd``.  Every
polynomial product in the package runs on ``linalg``'s packed integer
kernel, so no ``MPoly`` oracle shares it; ``lift`` turns a package value
(``parse_poly``, ``Packing.mpoly``, ``rank_one_system``) into a ring one.

Each oracle is the old, entry-by-entry route to the same answer, kept only so
that the tests can compare the two:

- ``parse_poly_by_tokens``: one regex match per token and one Fraction per
  number (the package splits a line into sign runs, leading integers and
  rests, reads each distinct rest once and keeps integers);
- ``det_bareiss_by_ring``: Bareiss over Fraction or MPoly entries with a
  generic exact division (the package reads a Fraction determinant off the
  integer echelon of its rows and a polynomial one by Laplace);
- ``macaulay_rank_by_fractions``: the Macaulay matrix of MPolys, every
  form times every monomial of the missing degree, as dense Fraction rows
  handed to ``rref`` (the package reads integer polynomials, from the text
  or the rank-one minors times L^2, reduces each degree part once on an
  integer echelon and ranks the sparse multiples of its reduced rows); the
  rows themselves come from ``macaulay_rows_by_fractions``, and
  ``rank_one_locus_certificate_by_mpoly`` sweeps it over the MPoly rank-one
  minors;
- ``macaulay_emptiness_by_exact_parts``: the Macaulay span test with every
  degree part reduced on the exact ``Echelon`` (the package first ranks a
  part with at least as many forms as monomials mod p, ``modular.spans``,
  and runs the echelon only when that rank falls short of full span);
- ``plucker_by_minors``: one determinant per maximal minor of the Fraction
  coordinate rows (``coordinate_rows``; the package takes the integer minors
  of the vectorized B' layer by layer, those of the first k rows on every
  k-subset of columns);
- ``sweep_for_unit_by_fractions``: every sweep candidate formed as a
  Fraction scale-and-add of the basis and ranked by ``mat_rank`` (the
  package ranks integer candidates and forms the winner alone);
- ``min_rank_bounds_by_fractions``: the minimum-rank bracket with all 60
  sweep candidates formed as Fraction elements and ranked by ``mat_rank``
  (the package ranks them on integers, as the unit sweep does);
- ``substitution_family_by_matrices``: the degeneration family as the
  coefficient matrix S(t) of the substitution and two polynomial products
  S^T M S (``matmul_by_loop``) in the ring, with I folded per entry by
  ``_reduce_imaginary`` (the package forms S'^T B' S' over (t, I) on the
  integer kernel and folds I on each packed term);
- ``kernel_forms_by_mpoly``: the Chow kernel forms as sums of linear forms
  in the ring over the Fraction rows of the kernel's reduced echelon form,
  each ``sign_normalized`` (the package writes each primitive integer row
  straight into an ``MPoly``);
- ``family_minors_by_mpoly`` and ``plucker_valuation_by_mpoly``: a family's
  maximal minors in MPoly arithmetic, its rows of {power: coefficient}
  entries read as MPolys in t, and their least power of t, None when every
  minor vanishes (the package forms no minor: ``spaces.grassmann_limit``
  bounds its passes by the powers of t in the rows and refuses a family
  whose rows are dependent over Q(t) on its own); ``by_power`` reads an
  MPoly entry back as {power: coefficient};
- ``integer_sweep_by_filter`` and ``nonzero_sweep_by_filter``: the sweep
  orders as filters over every tuple of the grid {-s..s}^m of shell s (the
  package forms only the tuples of max-norm s, one shell at a time);
- ``generic_element``: sum_k t_k B_k as a ``Mat`` of ``MPoly`` entries
  over the Fraction basis, each entry formed once, the reference route to
  the generic determinant (``det_laplace_by_entries`` of it) and the
  rank-one minors (``rank_one_minors_by_mpoly``), which the package reads
  off the integer element X' = sum_k t_k B'_k over powers of L (packed for
  the determinant, on plain ints for the minors, ``spaces.rank_one_minors``);
  ``generic_element_by_scale_and_add`` forms it as m polynomial scalings
  and m - 1 ``Mat`` sums;
- ``element_by_fractions``: sum_k c_k B_k with each entry a Fraction sum
  over the Fraction basis (the package sums integer coordinates over the
  space's integer basis and forms one Fraction per upper entry);
- ``poly_eval_by_mpoly`` and ``poly_eval_by_fractions``: a polynomial's
  value at rationals summed in ``MPoly`` arithmetic, and as a Fraction sum
  of its terms (the package sums integers over one common denominator);
- ``squarefree_by_mpoly``, ``subresultant_gcd_by_mpoly`` and
  ``mpoly_gcd_by_mpoly``: Yun's decomposition and its gcds on ``UniPoly``
  (a main variable over ``MPoly`` coefficients) with ``exact_div``, and
  ``squarefree_by_recursive``, ``subresultant_gcd_by_recursive`` and
  ``mpoly_gcd_by_recursive`` on integer polynomials in recursive dense
  form, in any number of variables (the package runs them on one integer
  polynomial in lam at a time);
  ``uni_charpoly`` wraps ``faddeev_leverrier_by_entries``' coefficients for
  them.

- ``matmul_by_loop``, ``faddeev_leverrier_by_entries`` and
  ``laplace_minors_by_entries`` (with ``det_laplace_by_entries`` and
  ``adjugate_by_cofactors``): products, characteristic polynomials,
  adjugates, determinants and minors entry by entry, in the entries' own
  ring (Fraction or ``MPoly``), the loops that ``linalg``'s integer kernel
  replaced.  Every oracle here that needs one
  of those on ``MPoly`` entries runs these loops, never the kernel: the
  package's ``Mat @``, ``charpoly``, ``adjugate`` and ``det`` take Fraction
  matrices only, on the same kernel the oracles check.

- ``basis_products_by_fractions``: each basis product a Fraction matrix
  (``jordan_product_by_fractions``) located by ``contains``, with
  ``residue_mod_space`` (on ``reduce_vector``) for a witness, and the
  invariants read off that Fraction tensor: ``multiply_coords_by_fractions``,
  ``is_associative_by_unit_vectors``, ``radical_by_fractions`` and
  ``rad_square_dim_by_fractions`` (the package reduces integer products on
  the space's echelon and keeps one integer tensor over one denominator);
  ``integer_matrix`` clears a Fraction matrix of denominators for them (the
  package takes U^{-1} = Q / s as integers from its one elimination);
  ``tensor_of`` reads the package's tensor c / den as Fractions, and
  ``rad_square_dim_by_multiply_coords`` ranks the Fraction products of the
  package radical's integer vectors on it, and ``operator_matrix_by_fractions``
  is the Fraction matrix of a left multiplication there (the package
  multiplies integer vectors through the integer tensor, and reads the
  Peirce pieces off integer operators M_i over e_i den).

- ``congruence_by_fractions``: the image P^T B P of each Fraction basis
  matrix as two Fraction ``Mat`` products, cleared by ``MatSpace`` (the
  package takes P'^T B' P' on integers over one denominator and its
  content), and ``reciprocal_identity_by_fractions``: the sampled
  reciprocal check with U Q U a Fraction product located by ``contains``
  (the package forms U' Q U' on integers and reduces it on the space's
  echelon).

- ``PrimitiveEchelon``: the dense echelon that makes every row it updates
  primitive again and scales each reduction by an lcm of pivot entries, with
  ``rref_with_transform_by_primitive_rows`` (T' over D = lcm of the pivot
  entries) and ``inverse_or_none_by_primitive_rows`` (the package grows its
  echelon fraction-free, by exact divisions by earlier pivot entries, and
  takes a gcd only when rows are read); ``residue`` is a vector modulo
  an echelon's row space over its content, the closure's old residue pass.

- ``GaussJordanEchelon``: the fraction-free echelon in Gauss-Jordan form,
  where each new pivot rewrites every earlier row with a nonzero entry in
  its column, with ``rref_with_transform_by_gauss_jordan`` and
  ``det_by_gauss_jordan`` (the package eliminates forward, never rewrites a
  row, and forms the reduced rows by back-substitution when they are read;
  both return the same remainders at the same scale d.  The package has no
  row transform: on independent rows it is the inverse of the pivot block,
  ``integer_inverse``).

- ``closure_space``: the closure as a ``MatSpace`` on the reduced rows of
  the echelon ``jordan_closure`` returns (the package reads its rank alone).

- ``parse_space_data_by_fractions``: a plain space file read entry by entry
  into Fraction matrices, every JSON integer a Fraction too, handed to
  ``make_space`` (the package parses straight into the integer basis
  (B', L) and forms the Fraction basis only when read).

- ``integer_element_by_sums``: sum_k c_k B'_k as one generator sum per
  entry over the integer basis (the package sums the vectorized B'_k,
  ``MatSpace.vectors``, one list per nonzero coordinate).

- ``emit_by_json_dumps``: a report rendered by one walk into plain values
  (``frac_str`` strings, ``Mat`` rows, str keys) and then written by
  ``json.dumps(..., sort_keys=True, indent=1)``, or as ``key: value`` lines
  (the package writes the JSON text in one walk, ``cli._write_json``).

- ``chow_matrix_by_adjugate``: the Chow matrix as the MPoly adjugate of
  the Fraction generic element by cofactors (``adjugate_by_cofactors``, a
  ``det_laplace_by_entries`` each), one ``MPoly.coefficient`` lookup per cell
  (the package runs Faddeev-LeVerrier on the integer element sum_k t_k B'_k,
  each entry a coefficient vector over the monomials of its degree, and
  reads the rows over L^(n-1)).
- ``chow_fraction_matrix``: the package's integer Chow matrix (C',
  L^(n-1)) as the Fraction ``Mat`` C' / L^(n-1) that the oracles compare
  with (the package forms no Fraction for it), its entries checked to be
  plain ints over a positive int.
- ``chow_matrix_generic_by_mpoly``: the Chow matrix of the generic net
  w1 X + w2 Y + w3 Z as the MPoly adjugate of that ``Mat`` split by weight
  monomial (the package reads the cells off ``symmetric_linear_adjugate`` of
  the 18 products of a weight and an entry, ``chow.chow_det_generic``).
- ``laplace_minors``: every minor of the first rows of a packed integer
  polynomial matrix by Laplace expansion on the kernel's ``_mul_add``,
  memoized over the column subsets it reaches (the package's
  ``exact.laplace_det`` expands the determinant alone, one layer of minors
  at a time, pops each minor of the last layer as it is used and prunes
  zeros in place).
- ``faddeev_leverrier`` (with ``_trace_of_product`` and ``_sum``): the
  Faddeev-LeVerrier recurrence on packed integer polynomial matrices, n - 1
  products on ``linalg``'s kernel (the package runs it on plain ints,
  ``int_faddeev_leverrier``, and on coefficient vectors of linear symmetric
  matrices, ``symmetric_linear_adjugate``); ``chow_cells`` and
  ``chow_det_generic_by_packed_net``: the generic Chow determinant off the
  adjugate of the packed generic net, its weights in the top fields and its
  entries below them, each cell the terms at one weight monomial.
- ``mpoly_by_eager_decode``: ``Packing.mpoly`` read at once, every key
  into an exponent tuple and every coefficient into a Fraction (the
  package keeps the packed polynomial, reads its term count and degree off
  it, and forms the terms only when they are first read).
- ``partition_by_bivariate``: the multiplicity partition exactly in m - 2
  variables, Yun's decomposition (``squarefree_by_recursive``) over
  QQ(t1..t_{m-2}) of the characteristic polynomial of the element t1 qC'_1
  + ... + qC'_{m-1}, whose coefficients ``partition_coefficients_by_packing``
  takes from one ``faddeev_leverrier`` run on the packed integer element, and
  ``partition_coefficients_by_mpoly`` from ``faddeev_leverrier_by_entries``
  of the Fraction element (``Mat.from_ints`` matrices, a ``Mat`` sum),
  cleared of denominators by ``integer_coefficients`` (the package reads
  the partition off that polynomial at integer points, one integer
  characteristic polynomial in lam each).  ``rational_spaces`` are seeded
  inputs for the comparisons.
- ``build_parser``: the CLI's argparse parser, nine subparsers built once
  per process, and ``argv_outcome``, the attributes or exit code and the
  output of a reader on one command line (the package reads argv in one
  pass over the table ``cli.COMMANDS``, ``cli.read_argv``).

``mpoly_from_terms`` is the checked constructor the tests build polynomials
with: any variable order, duplicate exponents merged, zeros dropped;
``trimmed`` drops the variables an ``MPoly`` does not use,
``is_constant`` and ``constant_value`` read a constant ``MPoly``,
``zero_mat`` and ``mat_map`` build ``Mat``s, ``mat_rank`` ranks one,
``unit_mat`` forms a ``spaces.Unit``'s Fraction matrix U' / scale and
``fraction_kernel`` an echelon's reduced kernel basis, 1 at each free
column, none of which the package needs.
``to_recursive`` and ``from_recursive`` convert between ``MPoly`` and the
recursive dense form of ``squarefree_by_recursive``'s gcds.
"""

import argparse
import bisect
import contextlib
import functools
import io
import itertools
import json
import math
import re
from fractions import Fraction
from typing import Iterable, Optional

from jordanet import exact
from jordanet.catalog import QUADRIC_VARS
from jordanet.chow import chow_matrix
from jordanet.errors import InputError, InternalCheckError, PreconditionError
from jordanet.exact import (
    NAME,
    NEG_INF,
    Packing,
    _mul_add,
    int_poly_matmul,
    linear_matrix,
    monomials,
    parse_poly,
)
from jordanet.jordan import radical, structure_constants
from jordanet.linalg import (
    Echelon,
    Mat,
    det,
    frac,
    frac_str,
    int_matmul,
    integer_inverse,
    integer_vector,
    inverse,
    rref,
)
from jordanet.prng import SplitMix64, derive_seed
from jordanet.spaces import (
    _DENSE_POINTS,
    _WITNESS_BUDGET,
    MatSpace,
    contains,
    generic_det,
    generic_names,
    integer_sweep,
    make_space,
    nonzero_sweep,
    sym_dim,
    sym_pairs,
    symmetric_rows,
    unit_point,
    unvectorize,
    vectorize,
)
from jordanet.varieties import _sparse_rank, rank_one_locus_certificate


# -- the polynomial ring ------------------------------------------------------

def frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    """gcd on rationals: gcd of numerators over lcm of denominators."""
    if a == 0:
        return abs(b)
    if b == 0:
        return abs(a)
    num = math.gcd(a.numerator, b.numerator)
    den = (a.denominator * b.denominator) // math.gcd(a.denominator, b.denominator)
    return Fraction(num, den)


class MPoly(exact.MPoly):
    """``jordanet.exact.MPoly`` with the ring operations: sums, products,
    powers and scalings (variable sets merged automatically), leading data,
    content and sign normalization, and grouping by variables.  The package
    keeps polynomials as values and multiplies them on ``linalg``'s packed
    integer kernel; the oracles compute in this ring, so that no oracle
    shares that kernel.  ``lift`` turns a package value into one."""

    __slots__ = ()

    @staticmethod
    def zero(vars: tuple = ()) -> "MPoly":
        return MPoly(tuple(vars), {})

    @staticmethod
    def var(name: str) -> "MPoly":
        return MPoly((name,), {(1,): Fraction(1)})

    # -- variable alignment -------------------------------------------

    def with_vars(self, vars: tuple) -> "MPoly":
        """Re-express over a superset of the current variables (sorted)."""
        if vars == self.vars:
            return self
        pos = []
        for v in self.vars:
            if v not in vars:
                raise ValueError(f"cannot drop variable {v}")
            pos.append(vars.index(v))
        terms = {}
        for exps, coeff in self.terms.items():
            key = [0] * len(vars)
            for p, e in zip(pos, exps):
                key[p] = e
            terms[tuple(key)] = coeff
        return MPoly(vars, terms)

    @staticmethod
    def _align(a: "MPoly", b: "MPoly"):
        if a.vars == b.vars:
            return a, b
        merged = tuple(sorted(set(a.vars) | set(b.vars)))
        return a.with_vars(merged), b.with_vars(merged)

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return MPoly.const(other, self.vars)
        if isinstance(other, MPoly):
            return other
        return None

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = MPoly._align(self, other)
        out = dict(a.terms)
        for exps, coeff in b.terms.items():
            acc = out.get(exps)
            tot = coeff if acc is None else acc + coeff
            if tot == 0:
                out.pop(exps, None)
            else:
                out[exps] = tot
        return MPoly(a.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = MPoly._align(self, other)
        if len(a.terms) < len(b.terms):
            a, b = b, a
        out = {}
        get = out.get
        for eb, cb in b.terms.items():
            for ea, ca in a.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                coeff = ca * cb
                acc = get(key)
                tot = coeff if acc is None else acc + coeff
                if tot == 0:
                    out.pop(key, None)
                else:
                    out[key] = tot
        return MPoly(a.vars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = MPoly.const(1, self.vars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def scale(self, c) -> "MPoly":
        c = frac(c)
        if c == 0:
            return MPoly.zero(self.vars)
        return MPoly(self.vars, {e: coeff * c for e, coeff in self.terms.items()})

    # -- leading data (graded lex, earlier-alphabet variable is larger) --

    def leading_monomial(self) -> tuple:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=lambda e: (sum(e), tuple(e)))

    def leading_coeff(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def content(self) -> Fraction:
        """Positive rational content (gcd of all coefficients), 0 for zero."""
        acc = Fraction(0)
        for coeff in self.terms.values():
            acc = frac_gcd(acc, coeff)
        return acc

    def sign_normalized(self) -> "MPoly":
        """Divide by rational content and make the leading coefficient positive."""
        if not self.terms:
            return self
        c = self.content()
        if self.leading_coeff() < 0:
            c = -c
        return self.scale(Fraction(1) / c)

    def split_by_vars(self, names: Iterable[str]) -> dict:
        """Group terms by their exponents in ``names``.

        Returns {exponent tuple over names: MPoly in the remaining vars}.
        Used to read a substituted quadric by monomial in the quadric
        variables (``substitution_family_by_matrices``).
        """
        names = tuple(names)
        idx = [self.vars.index(v) if v in self.vars else None for v in names]
        rest = tuple(v for v in self.vars if v not in names)
        rest_idx = [self.vars.index(v) for v in rest]
        grouped: dict = {}
        for exps, coeff in self.terms.items():
            key = tuple(0 if i is None else exps[i] for i in idx)
            rest_key = tuple(exps[i] for i in rest_idx)
            bucket = grouped.setdefault(key, {})
            bucket[rest_key] = bucket.get(rest_key, Fraction(0)) + coeff
        return {k: MPoly(rest, {e: c for e, c in v.items() if c != 0}) for k, v in grouped.items()}


def lift(p) -> MPoly:
    """A package ``MPoly`` (``parse_poly``, ``Packing.mpoly``,
    ``rank_one_system``) as a polynomial of the ring."""
    return p if isinstance(p, MPoly) else MPoly(p.vars, p.terms)


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


_TOKEN = re.compile(
    rf"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>{NAME.pattern})|(?P<op>[-+*^()]))"
)


def mpoly_by_eager_decode(packing, p: dict, den: int, names) -> exact.MPoly:
    """p / den over the sorted names as ``Packing.mpoly`` formed it until
    it kept p packed: one exponent tuple per key, entry i read off the field
    of the i-th name in sorted order, and one Fraction per coefficient."""
    vars = tuple(sorted(names))
    fields, mask = [packing.fields[names.index(v)] for v in vars], packing.mask
    return exact.MPoly(vars, {tuple((key >> f) & mask for f in fields): Fraction(c, den)
                              for key, c in p.items()})


def parse_poly_by_tokens(text: str) -> MPoly:
    """The polynomial grammar, one regex match per token.  Unlike the
    package's parser it reads an exponent as a rational whose value must be
    an integer, so ``x^4/2`` is ``x^2`` here."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise InputError("PARSE_ERROR", f"bad token at {text[pos:pos+12]!r}")
            break
        pos = m.end()
        if m.group("num"):
            tokens.append(("num", frac(m.group("num"))))
        elif m.group("name"):
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    if not tokens:
        raise InputError("PARSE_ERROR", "empty polynomial string")

    collected = []  # (exponent dict, coefficient) per term
    i = 0
    n = len(tokens)
    while i < n:
        sign = Fraction(1)
        while i < n and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise InputError("PARSE_ERROR", "dangling sign")
        coeff = sign
        exps: dict = {}
        expect_factor = True
        while i < n:
            kind, val = tokens[i]
            if kind == "op" and val in "+-":
                break
            if kind == "op" and val == "*":
                if expect_factor:
                    raise InputError("PARSE_ERROR", "misplaced '*'")
                i += 1
                expect_factor = True
                continue
            if not expect_factor:
                raise InputError("PARSE_ERROR", "missing '*' between factors")
            if kind == "num":
                coeff *= val
                i += 1
            elif kind == "name":
                name = val
                i += 1
                power = 1
                if i < n and tokens[i] == ("op", "^"):
                    i += 1
                    if i >= n or tokens[i][0] != "num" or tokens[i][1].denominator != 1:
                        raise InputError("PARSE_ERROR", "exponent must be an integer")
                    power = int(tokens[i][1])
                    i += 1
                exps[name] = exps.get(name, 0) + power
            else:
                raise InputError("PARSE_ERROR", f"unexpected token {val!r}")
            expect_factor = False
        if expect_factor:
            raise InputError("PARSE_ERROR", "trailing operator")
        collected.append((exps, coeff))
    all_vars = tuple(sorted({v for exps, _ in collected for v in exps}))
    terms: dict = {}
    for exps, coeff in collected:
        key = tuple(exps.get(v, 0) for v in all_vars)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return MPoly(all_vars, {k: c for k, c in terms.items() if c != 0})


def trimmed(p: MPoly) -> MPoly:
    """p over the variables that occur in it."""
    keep = p.support_vars()
    idx = [p.vars.index(v) for v in keep]
    return MPoly(keep, {tuple(e[i] for i in idx): c for e, c in p.terms.items()})


def is_constant(p: MPoly) -> bool:
    return all(not any(exps) for exps in p.terms)


def constant_value(p: MPoly) -> Fraction:
    """The value of a constant polynomial, 0 for zero; ValueError otherwise."""
    if not is_constant(p):
        raise ValueError("polynomial is not constant")
    return next(iter(p.terms.values()), Fraction(0))


def mat_rank(m: Mat) -> int:
    """Rank of a Fraction matrix: ``rref`` of its rows."""
    return rref(m.data).rank


def fraction_rows(ech) -> list:
    """The reduced row echelon form of a ``linalg.Echelon`` as Fraction rows,
    1 at each pivot: its ``int_rows`` over their pivot entries (no package
    code reads the reduced form as Fractions)."""
    return [[Fraction(x, row[p]) for x in row] for row, p in zip(ech.int_rows, ech.pivots)]


def fraction_kernel(ech) -> list:
    """The reduced kernel basis of a ``linalg.Echelon`` as Fraction vectors,
    1 at each free column: each ``integer_kernel`` vector over its entry at
    its free column (no package code reads a kernel as Fractions)."""
    free = [j for j in range(ech.cols) if j not in ech.pivots]
    return [[Fraction(x, v[f]) for x in v] for v, f in zip(ech.integer_kernel(), free)]


def zero_mat(rows: int, cols: int) -> Mat:
    return Mat([[Fraction(0)] * cols for _ in range(rows)])


def mat_map(m: Mat, fn) -> Mat:
    return Mat([[fn(x) for x in row] for row in m.data])


def _is_poly(x) -> bool:
    return isinstance(x, exact.MPoly)


def _zero_like(x):
    return MPoly.zero(x.vars) if _is_poly(x) else Fraction(0)


def _one_like(x):
    return MPoly.const(1, x.vars) if _is_poly(x) else Fraction(1)


def _entry_is_zero(x) -> bool:
    return x.is_zero() if _is_poly(x) else x == 0


def _ring_div(num, den):
    """Exact division; raises if the division is not exact."""
    if _is_poly(num) or _is_poly(den):
        if not _is_poly(num):
            num = MPoly.const(num)
        if not _is_poly(den):
            den = MPoly.const(den)
        q = exact_div(num, den)
        if q is None:
            raise InternalCheckError("INTERNAL", "inexact division in fraction-free elimination")
        return q
    return num / den


def matmul_by_loop(a: Mat, b: Mat) -> Mat:
    """The product entry by entry, skipping zero factors, in the operands'
    own ring (oracle for the integer kernel of ``Mat.__matmul__``)."""
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = None
            for k in range(a.cols):
                x, y = a[i, k], b[k, j]
                if _entry_is_zero(x) or _entry_is_zero(y):
                    continue
                acc = x * y if acc is None else acc + x * y
            if acc is None:
                acc = _zero_like(a[i, 0])
            row.append(acc)
        out.append(row)
    return Mat(out)


def faddeev_leverrier_by_entries(m: Mat):
    """(charpoly's coefficients, lowest power first; adjugate): with M_1 = I,
    c_k = -trace(M M_k) / k and M_(k+1) = M M_k + c_k I, on Fraction and
    MPoly entries (``matmul_by_loop``)."""
    n = m.rows
    ident = Mat.identity(n)
    mk = ident
    cs = []
    for k in range(1, n + 1):
        if k > 1:
            mk = prod + ident.scale(cs[-1])
        prod = matmul_by_loop(m, mk)
        cs.append(prod.trace() * Fraction(-1, k))
    return cs[::-1] + [Fraction(1)], mk if n % 2 else mk.scale(-1)


def laplace_minors_by_entries(m: Mat):
    """The minor of the first |S| rows on columns S, by Laplace expansion
    along row |S| - 1, memoized over column subsets, in the entries' ring."""
    memo = {(): Fraction(1)}

    def minor(cols):
        if cols not in memo:
            row = len(cols) - 1
            acc = Fraction(0)
            for idx, c in enumerate(cols):
                if _entry_is_zero(m[row, c]):
                    continue
                term = m[row, c] * minor(cols[:idx] + cols[idx + 1:])
                acc = acc - term if (row + idx) % 2 else acc + term
            memo[cols] = acc
        return memo[cols]

    return minor


def det_laplace_by_entries(m: Mat):
    """The determinant as the one maximal minor (``laplace_minors_by_entries``)."""
    return laplace_minors_by_entries(m)(tuple(range(m.rows)))


def adjugate_by_cofactors(m: Mat) -> Mat:
    """Adjugate by its definition: transposed signed cofactors, each a
    ``det_laplace_by_entries``."""
    n = m.rows
    if n == 1:
        return Mat([[_one_like(m[0, 0])]])
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = Mat([[m[r, c] for c in range(n) if c != j] for r in range(n) if r != i])
            cof = det_laplace_by_entries(sub)
            out[j][i] = -cof if (i + j) % 2 else cof
    return Mat(out)


def det_bareiss_by_ring(m: Mat):
    """Fraction-free determinant over Fraction or MPoly entries (exact
    divisions by previous pivots)."""
    if not m.is_square():
        raise PreconditionError("NOT_SQUARE", "determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return Fraction(1)
    a = [list(row) for row in m.data]
    sign = 1
    prev = _one_like(a[0][0])
    for k in range(n - 1):
        if _entry_is_zero(a[k][k]):
            swap = next((i for i in range(k + 1, n) if not _entry_is_zero(a[i][k])), None)
            if swap is None:
                return _zero_like(a[0][0])
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = _ring_div(num, prev)
        prev = a[k][k]
    result = a[n - 1][n - 1]
    return -result if sign < 0 else result


def macaulay_rank_by_fractions(polys, degree: int, vars) -> tuple:
    """(rank, column count) of the degree-``degree`` Macaulay matrix of a
    homogeneous system over the sorted ``vars``, built as Fraction rows
    indexed by exponent tuples and reduced by ``rref``."""
    rows, ncols = macaulay_rows_by_fractions(polys, degree, vars)
    return (rref(rows).rank if rows else 0), ncols


def macaulay_rows_by_fractions(polys, degree: int, vars) -> tuple:
    """(rows, column count) of the degree-``degree`` Macaulay matrix as
    Fraction rows: each polynomial times each monomial of the missing
    degree, columns the monomials of that degree in ``monomials`` order."""
    vars = tuple(sorted(vars))
    cols = list(monomials(len(vars), degree))
    col_index = {mono: k for k, mono in enumerate(cols)}
    rows = []
    for p in polys:
        p = trimmed(p).with_vars(vars)
        d = int(p.total_degree())
        if d > degree:
            continue
        for mult in monomials(len(vars), degree - d):
            row = [Fraction(0)] * len(cols)
            for exps, coeff in p.terms.items():
                row[col_index[tuple(a + b for a, b in zip(exps, mult))]] = coeff
            rows.append(row)
    return rows, len(cols)


def macaulay_emptiness_by_exact_parts(system, degree: int, vars=None) -> tuple:
    """(kind, span_rank, span_target) of ``varieties.macaulay_emptiness`` on
    an integer system of homogeneous forms: each degree part's forms reduced
    on one ``Echelon`` over the monomials of that degree, and each of its
    primitive reduced rows times each monomial of the missing degree ranked
    by ``varieties._sparse_rank``."""
    vars = tuple(sorted({v for p in system for mono in p for v, _ in mono} if vars is None
                        else vars))
    k, parts = len(vars), {}
    for p in system:
        d = sum(e for _, e in next(iter(p)))
        if d <= degree:
            parts.setdefault(d, []).append(p)
    packing = Packing(k, degree)
    unit = dict(zip(vars, packing.units))
    rows = []
    for d, forms in sorted(parts.items()):
        keys = [packing.key(mono) for mono in monomials(k, d)]
        col = {key: j for j, key in enumerate(keys)}
        ech = Echelon(len(keys))
        for p in forms:
            row = [0] * len(keys)
            for mono, c in p.items():
                row[col[sum(e * unit[v] for v, e in mono)]] = c
            ech.adjoin(row)
        shifts = [packing.key(mult) for mult in monomials(k, degree - d)]
        rows += [{key + shift: c for key, c in zip(keys, row) if c}
                 for row in ech.int_rows for shift in shifts]
    target = math.comb(k + degree - 1, degree) if k else int(degree == 0)
    rank = _sparse_rank(rows, target)
    return ("CERTIFIED_EMPTY" if rank == target else "UNKNOWN"), rank, target


def rank_one_locus_certificate_by_mpoly(space) -> tuple:
    """(kind, degree, span_rank, span_target) of the rank-one sweep of
    ``varieties.rank_one_locus_certificate`` on the MPoly minors
    (``rank_one_minors_by_mpoly``), each degree by ``macaulay_rank_by_fractions``
    over t1..tm."""
    system = rank_one_minors_by_mpoly(space)
    if not system:
        return "SOLUTIONS_EXIST", None, None, None
    for degree in range(2, 7):
        rank, target = macaulay_rank_by_fractions(system, degree, generic_names(space.m))
        if rank == target:
            return "CERTIFIED_EMPTY", degree, rank, target
    return "UNKNOWN", degree, rank, target


def coordinate_rows(space):
    """The vectorized Fraction basis matrices."""
    return [vectorize(b) for b in space.basis]


def plucker_by_minors(space) -> dict:
    """Every maximal minor of the coordinate matrix, one ``det`` each."""
    rows = coordinate_rows(space)
    return {cols: det(Mat([[row[c] for c in cols] for row in rows]))
            for cols in itertools.combinations(range(sym_dim(space.n)), space.m)}


def element_by_scale_and_add(space, coords) -> Mat:
    """sum_k c_k B_k as m Fraction scalings and m - 1 matrix sums."""
    acc = space.basis[0].scale(frac(coords[0]))
    for c, b in zip(coords[1:], space.basis[1:]):
        acc = acc + b.scale(frac(c))
    return acc


def element_by_fractions(space, coords) -> Mat:
    """sum_k c_k B_k, each entry formed once as a Fraction sum of c_k B_k[i][j]."""
    terms = [(frac(c), b.data) for c, b in zip(coords, space.basis) if c]
    return Mat([[sum((c * d[i][j] for c, d in terms), Fraction(0)) for j in range(space.n)]
                for i in range(space.n)])


def closure_space(ech, n: int):
    """The closure as a space: the reduced rows of its echelon, each
    unvectorized to a symmetric n x n matrix (independent as built)."""
    return MatSpace(n, [unvectorize(n, r) for r in fraction_rows(ech)])


def parse_space_data_by_fractions(obj: dict) -> MatSpace:
    """A well-formed plain space file as Fraction matrices: each entry a
    Fraction (a boolean or any other JSON type is a PARSE_ERROR), an entry
    below the diagonal equal to its mirror and of its JSON type sharing the
    mirror's Fraction, and the matrices checked by ``make_space``."""
    def entry(value) -> Fraction:
        if isinstance(value, bool):
            raise InputError("PARSE_ERROR", "boolean is not a matrix entry")
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return frac(value)
        raise InputError("PARSE_ERROR", f"bad matrix entry {value!r}")

    mats = []
    for raw in obj["basis"]:
        rows = []
        for i, line in enumerate(raw):
            rows.append([rows[j][i] if j < i and e == raw[j][i] and type(e) is type(raw[j][i])
                         else entry(e) for j, e in enumerate(line)])
        mats.append(Mat(rows))
    return make_space(obj["n"], mats)


def integer_element_by_sums(space, coords):
    """The rows of sum_k c_k B'_k, one generator sum per entry."""
    terms = [(c, b) for c, b in zip(coords, space.integer_basis()[0]) if c]
    return [[sum(c * b[i][j] for c, b in terms) for j in range(space.n)] for i in range(space.n)]


def _render_value(v):
    if isinstance(v, Fraction):
        return frac_str(v)
    if isinstance(v, Mat):
        return [[_render_value(v[i, j]) for j in range(v.cols)] for i in range(v.rows)]
    if isinstance(v, (list, tuple)):
        return [_render_value(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _render_value(x) for k, x in v.items()}
    return v


def emit_by_json_dumps(report: dict, as_json: bool) -> None:
    """Print a report as the CLI did before its one-walk writer: rendered
    into plain values by ``_render_value``, then ``json.dumps``."""
    rendered = _render_value(report)  # in full before any output: an error prints nothing
    if as_json:
        print(json.dumps(rendered, sort_keys=True, indent=1))
    else:
        print("\n".join(f"{key}: {json.dumps(v) if isinstance(v, (dict, list)) else v}"
                        for key, v in rendered.items() if key != "command"))


def dense_unit_points(space):
    """The ``_DENSE_POINTS`` seeded points t in {-n..n}^m that the regularity
    sweep tries after ``_WITNESS_BUDGET`` singular sweep points, in order."""
    rng = SplitMix64(derive_seed(0, "dense unit"))
    return [tuple(rng.int_between(-space.n, space.n) for _ in range(space.m))
            for _ in range(_DENSE_POINTS)]


def sweep_for_unit_by_fractions(space):
    """(unit, coordinates) as the regularity sweep chooses them, or None for
    a singular space: the identity if present, else the first point whose
    Fraction element has full rank, the ``dense_unit_points`` tried after
    ``_WITNESS_BUDGET`` singular sweep points and the generic determinant
    expanded only when they are singular too."""
    ident = Mat.identity(space.n)
    coords = contains(space, ident)
    if coords is not None:
        return ident, tuple(coords)
    for k, tup in enumerate(integer_sweep(space.m)):
        if k == _WITNESS_BUDGET:
            for dense in dense_unit_points(space):
                cand = element_by_scale_and_add(space, dense)
                if mat_rank(cand) == space.n:
                    return cand, dense
            if generic_det(space).is_zero():
                return None
        cand = element_by_scale_and_add(space, tup)
        if mat_rank(cand) == space.n:
            return cand, tup


def min_rank_bounds_by_fractions(space):
    """(upper, lower, witness) of ``varieties.min_rank_bounds`` for m >= 2:
    basis, radical and the first 60 sweep points as Fraction matrices, the
    first of least rank the witness."""
    best = None
    witness = None
    candidates = list(space.basis)
    try:
        candidates.extend(space.element(c) for c in radical(structure_constants(space)))
    except PreconditionError:
        pass
    count = 0
    for tup in integer_sweep(space.m):
        candidates.append(space.element(tup))
        count += 1
        if count >= 60:
            break
    for cand in candidates:
        if all(x == 0 for row in cand.data for x in row):
            continue
        r = mat_rank(cand)
        if best is None or r < best:
            best, witness = r, cand
    lower = 2 if rank_one_locus_certificate(space).kind == "CERTIFIED_EMPTY" else 1
    if best == 1:
        lower = 1
    return best, min(lower, best), witness


def substitution_family_by_matrices(space, substitution):
    """The basis matrices S(t)^T M S(t), with S(t)[i][k] the coefficient of
    the k-th quadric variable in the i-th substitution string over (I, t)."""
    names = QUADRIC_VARS[:space.n]
    rows = []
    for expr in substitution:
        buckets = lift(parse_poly(expr)).split_by_vars(names)
        rows.append([buckets.get(tuple(int(k == v) for k in range(len(names))),
                                 MPoly.zero()).with_vars(("I", "t"))
                     for v in range(len(names))])
    s = Mat(rows)
    st = s.transpose()
    lifted = (mat_map(b, lambda e: MPoly.const(e, ("I", "t"))) for b in space.basis)
    return [mat_map(matmul_by_loop(matmul_by_loop(st, b), s), _reduce_imaginary) for b in lifted]


def by_power(p: MPoly) -> dict:
    """The nonzero coefficients of a polynomial in t alone, by power."""
    return {k: constant_value(c) for (k,), c in p.split_by_vars(("t",)).items() if c.terms}


def family_minors_by_mpoly(family) -> dict:
    """Every maximal minor of a family's coordinate rows, each {power:
    coefficient} entry an MPoly in t, keyed by its column tuple
    (``laplace_minors_by_entries``)."""
    rows = Mat([[MPoly(("t",), {(k,): c for k, c in e.items()}) for e in row]
                for row in family.rows])
    minor = laplace_minors_by_entries(rows)
    return {cols: minor(cols) for cols in itertools.combinations(range(rows.cols), rows.rows)}


def plucker_valuation_by_mpoly(family) -> Optional[int]:
    """The least power of t in the family's nonzero minors
    (``family_minors_by_mpoly``), or None when they all vanish."""
    powers = [min(e[p.vars.index("t")] if "t" in p.vars else 0 for e in p.terms)
              for p in family_minors_by_mpoly(family).values() if _is_poly(p) and p.terms]
    return min(powers, default=None)


def integer_sweep_by_filter(m: int):
    """``spaces.integer_sweep`` as every tuple of the grid of shell s, values
    in the order 0, 1, -1, ..., s, -s, kept when its max-norm is s."""
    for shell in itertools.count(1):
        ordered = [0]
        for v in range(1, shell + 1):
            ordered.extend((v, -v))
        for tup in itertools.product(ordered, repeat=m):
            if max(abs(x) for x in tup) == shell:
                yield tup


def nonzero_sweep_by_filter(m: int, max_norm: int):
    """``spaces.nonzero_sweep`` as ``integer_sweep_by_filter`` cut at
    ``max_norm``, the tuples with a zero entry dropped."""
    bounded = itertools.takewhile(lambda tup: max(map(abs, tup)) <= max_norm,
                                  integer_sweep_by_filter(m))
    return (tup for tup in bounded if all(tup))


def generic_element(basis, names=None) -> Mat:
    """sum_k t_k B_k for rational matrices B_k, with fresh polynomial
    variables t1..tm (or ``names``): each entry is formed once, as the MPoly
    {exponent of t_k: B_k[i][j]}."""
    names = tuple(names) if names is not None else generic_names(len(basis))
    if len(names) != len(basis):
        raise PreconditionError("PARSE_ERROR", "need one variable name per basis element")
    vars = tuple(sorted(names))
    terms = [(tuple(int(v == name) for v in vars), b.data) for name, b in zip(names, basis)]
    n = basis[0].rows
    return Mat([[MPoly(vars, {key: d[i][j] for key, d in terms if d[i][j]}) for j in range(n)]
                for i in range(n)])


def rank_one_minors_by_mpoly(space):
    """The nonzero 2 x 2 minors of ``generic_element`` in MPoly arithmetic,
    rows (i, j) and columns (k, l) >= (i, j), in that order."""
    g = generic_element(space.basis)
    n = space.n
    minors = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                for l in range(k + 1, n):
                    if (k, l) < (i, j):
                        continue
                    minor = g[i, k] * g[j, l] - g[i, l] * g[j, k]
                    if not minor.is_zero():
                        minors.append(minor)
    return minors


def generic_element_by_scale_and_add(basis, names=None) -> Mat:
    """sum_k t_k B_k as B_k.scale(t_k), summed as matrices."""
    names = names or generic_names(len(basis))
    acc = None
    for name, b in zip(names, basis):
        scaled = b.scale(MPoly.var(name))
        acc = scaled if acc is None else acc + scaled
    return acc


def poly_eval_by_fractions(p: MPoly, assignment) -> Fraction:
    """p at rationals, each term a Fraction product added to a Fraction sum."""
    values = [frac(assignment[v]) for v in p.vars]
    total = Fraction(0)
    for exps, coeff in p.terms.items():
        term = coeff
        for x, e in zip(values, exps):
            if e:
                term *= x ** e
                if not term:
                    break
        total += term
    return total


def poly_eval_by_mpoly(p: MPoly, assignment) -> Fraction:
    """p at rationals, every term a product of constant MPolys."""
    total = MPoly.zero()
    for exps, coeff in p.terms.items():
        term = MPoly.const(coeff)
        for v, e in zip(p.vars, exps):
            term = term * MPoly.const(assignment[v]) ** e
        total = total + term
    return constant_value(total)


def mpoly_from_terms(vars, terms) -> MPoly:
    """The polynomial sum of c * prod(v ** e) over terms {exponents: c}, with
    exponents given in the order of ``vars`` (any order)."""
    vs = tuple(vars)
    order = sorted(range(len(vs)), key=lambda i: vs[i])
    svs = tuple(vs[i] for i in order)
    if len(set(svs)) != len(svs):
        raise InputError("PARSE_ERROR", f"duplicate variables in {vs}")
    out = {}
    for exps, coeff in terms.items():
        coeff = frac(coeff)
        if coeff == 0:
            continue
        if len(exps) != len(vs):
            raise InputError("PARSE_ERROR", "exponent length != variable count")
        key = tuple(exps[i] for i in order)
        out[key] = out.get(key, 0) + coeff
        if out[key] == 0:
            del out[key]
    return MPoly(svs, out)


def parse_outcome(parse, text: str):
    """(vars, terms) of a parse, or the error code it raised."""
    try:
        p = parse(text)
    except InputError as err:
        return err.code
    return p.vars, p.terms


# -- the MPoly gcd chain ----------------------------------------------------

def exact_div(p: MPoly, q: MPoly) -> Optional[MPoly]:
    """Exact quotient p/q, or None when q does not divide p."""
    if q.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if p.is_zero():
        return MPoly.zero(p.vars)
    a, b = MPoly._align(p, q)
    lead_b = b.leading_monomial()
    lc_b = b.terms[lead_b]
    rem = dict(a.terms)
    out = {}
    while rem:
        lead_r = max(rem, key=lambda e: (sum(e), tuple(e)))
        shift = tuple(x - y for x, y in zip(lead_r, lead_b))
        if any(e < 0 for e in shift):
            return None
        c = rem[lead_r] / lc_b
        out[shift] = c
        for eb, cb in b.terms.items():
            key = tuple(x + y for x, y in zip(shift, eb))
            acc = rem.get(key, Fraction(0)) - c * cb
            if acc == 0:
                rem.pop(key, None)
            else:
                rem[key] = acc
    return MPoly(a.vars, out)


def _abs_normalized(p: MPoly) -> MPoly:
    """Flip the sign if the leading coefficient is negative; keep content."""
    p = lift(p)
    return -p if p.terms and p.leading_coeff() < 0 else p


class UniPoly:
    """Polynomial in one main variable with MPoly coefficients.

    ``coeffs[k]`` is the coefficient of ``var**k``; the list never ends in a
    zero (the zero polynomial has an empty list).
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs):
        cs = [lift(c) if isinstance(c, exact.MPoly) else MPoly.const(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.var = var
        self.coeffs = tuple(cs)

    @staticmethod
    def from_mpoly(p: MPoly, var: str) -> "UniPoly":
        if var not in p.vars:
            return UniPoly(var, [p])
        buckets = lift(p).split_by_vars((var,))
        deg = max((k[0] for k in buckets), default=-1)
        coeffs = [buckets.get((k,), MPoly.zero()) for k in range(deg + 1)]
        return UniPoly(var, coeffs)

    @staticmethod
    def from_const(var: str, value) -> "UniPoly":
        return UniPoly(var, [MPoly.const(value)])

    def to_mpoly(self) -> MPoly:
        acc = MPoly.zero((self.var,))
        x = MPoly.var(self.var)
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            acc = acc + c * x ** k
        return acc

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def lc(self) -> MPoly:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> MPoly:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else MPoly.zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.var == other.var and list(self.coeffs) == list(other.coeffs)

    __hash__ = None

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.var, [self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.var, [self.coeff(k) - other.coeff(k) for k in range(n)])

    def __neg__(self) -> "UniPoly":
        return UniPoly(self.var, [-c for c in self.coeffs])

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return UniPoly(self.var, [])
        out = [MPoly.zero() for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                out[i + j] = out[i + j] + a * b
        return UniPoly(self.var, out)

    def scale(self, c: MPoly) -> "UniPoly":
        return UniPoly(self.var, [co * c for co in self.coeffs])

    def derivative(self) -> "UniPoly":
        return UniPoly(self.var, [c.scale(k) for k, c in enumerate(self.coeffs)][1:])

    def _check(self, other: "UniPoly"):
        if self.var != other.var:
            raise ValueError(f"mixed main variables {self.var!r} vs {other.var!r}")

    def __str__(self) -> str:
        return str(self.to_mpoly())

    def __repr__(self) -> str:
        return f"UniPoly({self})"


def uni_charpoly(m: Mat) -> UniPoly:
    """The characteristic polynomial of m (``faddeev_leverrier_by_entries``)
    as a UniPoly in ``lam``."""
    return UniPoly("lam", faddeev_leverrier_by_entries(m)[0])


def uni_prem(f: UniPoly, g: UniPoly) -> UniPoly:
    """Pseudo-remainder: lc(g)^(deg f - deg g + 1) * f modulo g."""
    if g.is_zero():
        raise ZeroDivisionError("pseudo-division by zero")
    df, dg = f.degree(), g.degree()
    if f.is_zero() or df < dg:
        return f
    lg = g.lc()
    steps = int(df - dg + 1)
    r = f
    while not r.is_zero() and r.degree() >= dg:
        s = UniPoly(f.var, [MPoly.zero()] * int(r.degree() - dg) + [r.lc()])
        r = r.scale(lg) - s * g
        steps -= 1
    for _ in range(steps):
        r = r.scale(lg)
    return r


def uni_exact_div(f: UniPoly, g: UniPoly) -> Optional[UniPoly]:
    """Exact quotient in the coefficient ring, or None."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero():
        return UniPoly(f.var, [])
    if f.degree() < g.degree():
        return None
    lg = g.lc()
    r = f
    out = [MPoly.zero()] * int(f.degree() - g.degree() + 1)
    while not r.is_zero() and r.degree() >= g.degree():
        c = exact_div(r.lc(), lg)
        if c is None:
            return None
        k = int(r.degree() - g.degree())
        out[k] = c
        r = r - (UniPoly(f.var, [MPoly.zero()] * k + [c]) * g)
    if not r.is_zero():
        return None
    return UniPoly(f.var, out)


def uni_content(f: UniPoly) -> MPoly:
    """GCD of the coefficients (an MPoly; the full polynomial content)."""
    acc = MPoly.zero()
    for c in f.coeffs:
        acc = mpoly_gcd_by_mpoly(acc, c)
    return acc


def uni_primitive(f: UniPoly) -> UniPoly:
    """Primitive part with canonical sign (positive leading coefficient)."""
    if f.is_zero():
        return f
    cont = uni_content(f)
    parts = [exact_div(c, cont) for c in f.coeffs]
    if any(p is None for p in parts):
        raise InternalCheckError("INTERNAL", "content does not divide coefficients")
    g = UniPoly(f.var, parts)
    if g.lc().leading_coeff() < 0:
        g = -g
    return g


def subresultant_sequence(f: UniPoly, g: UniPoly) -> list:
    """The subresultant pseudo-remainder sequence [f, g, R_2, ...] (f of the
    larger degree first) down to its last nonzero element, with the beta/psi
    bookkeeping; every division is exact in the coefficient ring, which the
    helper asserts."""
    if f.degree() < g.degree():
        f, g = g, f
    delta = int(f.degree() - g.degree())
    beta = MPoly.const((-1) ** (delta + 1))
    psi = MPoly.const(-1)
    seq = [f, g]
    while True:
        rprev, rcur = seq[-2], seq[-1]
        rem = uni_prem(rprev, rcur)
        if rem.is_zero():
            return seq
        coeffs = [exact_div(c, beta) for c in rem.coeffs]
        if any(c is None for c in coeffs):
            raise InternalCheckError("INTERNAL", "subresultant division failed")
        seq.append(UniPoly(f.var, coeffs))
        if seq[-1].degree() == 0:
            return seq
        lc_prev = rcur.lc()
        delta_prev = delta
        delta = int(rcur.degree() - seq[-1].degree())
        neg_lc = -lc_prev
        if delta_prev > 0:
            num = neg_lc ** delta_prev
            psi_new = exact_div(num, psi ** (delta_prev - 1)) if delta_prev > 1 else num
            if psi_new is None:
                raise InternalCheckError("INTERNAL", "subresultant psi update failed")
            psi = psi_new
        beta = (-lc_prev) * psi ** delta


def subresultant_gcd_by_mpoly(p: UniPoly, q: UniPoly) -> UniPoly:
    """Primitive GCD in the main variable over the coefficient fraction field."""
    if p.var != q.var:
        raise ValueError("mixed main variables")
    if p.is_zero() and q.is_zero():
        return UniPoly(p.var, [])
    if p.is_zero():
        return uni_primitive(q)
    if q.is_zero():
        return uni_primitive(p)
    if p.degree() == 0 or q.degree() == 0:
        return UniPoly.from_const(p.var, 1)
    g = subresultant_sequence(p, q)[-1]
    if g.degree() == 0:
        return UniPoly.from_const(p.var, 1)
    return uni_primitive(g)


def mpoly_gcd_by_mpoly(p: MPoly, q: MPoly) -> MPoly:
    """GCD of multivariate polynomials, one variable at a time through
    primitive subresultant sequences; positive leading coefficient, content
    1 over ZZ after clearing denominators."""
    if p.is_zero():
        return _abs_normalized(q)
    if q.is_zero():
        return _abs_normalized(p)
    support = tuple(sorted(set(p.support_vars()) | set(q.support_vars())))
    if not support:
        return MPoly.const(frac_gcd(constant_value(p), constant_value(q)))
    v = support[-1]
    fp = UniPoly.from_mpoly(trimmed(p), v)
    fq = UniPoly.from_mpoly(trimmed(q), v)
    cont_g = mpoly_gcd_by_mpoly(uni_content(fp), uni_content(fq))
    pp_g = subresultant_gcd_by_mpoly(uni_primitive(fp), uni_primitive(fq))
    return _abs_normalized(cont_g * pp_g.to_mpoly())


def squarefree_by_mpoly(p: UniPoly):
    """Yun decomposition p = content * prod(factor_i ** mult_i): (content,
    [(factor, multiplicity), ...]) with squarefree, pairwise-coprime,
    primitive factors, one per multiplicity, in increasing multiplicity."""
    if p.is_zero():
        raise ValueError("zero polynomial has no squarefree decomposition")
    if p.degree() == 0:
        return p.coeffs[0], []
    pp = uni_primitive(p)
    dp = pp.derivative()
    g = subresultant_gcd_by_mpoly(pp, dp)
    c = uni_exact_div(pp, g)
    d = uni_exact_div(dp, g) - c.derivative()
    factors = []
    mult = 1
    while c.degree() > 0:
        a = subresultant_gcd_by_mpoly(c, d) if not d.is_zero() else uni_primitive(c)
        if a.degree() > 0:
            factors.append((a, mult))
        c_next = uni_exact_div(c, a)
        d = uni_exact_div(d, a) - c_next.derivative()
        c = c_next
        mult += 1
    lead = math.prod((factor.lc() ** k for factor, k in factors), start=MPoly.const(1))
    return exact_div(p.lc(), lead), factors


# -- Chow matrices and multiplicity partitions on MPoly entries -------------

def chow_matrix_by_adjugate(space) -> Mat:
    """The Chow matrix read off adj(sum_k t_k B_k) with MPoly entries: the
    coefficient of each monomial of ``monomials(m, n - 1)`` in each upper
    entry."""
    names = generic_names(space.m)
    adj = adjugate_by_cofactors(generic_element(space.basis, names))
    cols = [dict(zip(names, mono)) for mono in monomials(space.m, space.n - 1)]
    entries = [adj[i, j] if _is_poly(adj[i, j]) else MPoly.const(adj[i, j])  # a zero cofactor
               for i, j in sym_pairs(space.n)]
    return Mat([[e.coefficient(mono) for mono in cols] for e in entries])


def chow_fraction_matrix(space) -> Mat:
    """The package's Chow matrix (C', L^(n-1)) as the Fraction ``Mat`` C' /
    L^(n-1), after checking that C' holds plain ints and L^(n-1) is a
    positive int."""
    rows, den = chow_matrix(space)
    assert type(den) is int and den > 0
    assert all(type(x) is int for row in rows for x in row)
    return Mat([[Fraction(x, den) for x in row] for row in rows])


def kernel_forms_by_mpoly(space, matrix: Optional[Mat] = None):
    """The kernel forms summed in the ring: each Fraction row of the
    reduced echelon form of the left kernel of the Chow matrix (the
    package's, ``chow_fraction_matrix``, or ``matrix``, such as
    ``chow_matrix_by_adjugate``'s) a linear form in the z_ij, over its
    content with a positive leading coefficient (``MPoly.sign_normalized``)."""
    kernel = fraction_kernel(rref((matrix or chow_fraction_matrix(space)).transpose().data))
    zs = [MPoly.var(f"z{i + 1}{j + 1}") for i, j in sym_pairs(space.n)]
    return [sum((z.scale(c) for z, c in zip(zs, vec) if c), MPoly.zero()).sign_normalized()
            for vec in fraction_rows(rref(kernel))]


def chow_matrix_generic_by_mpoly(n: int = 3) -> Mat:
    """Chow matrix of the generic net spanned by symbolic symmetric matrices
    with entries x_ij, y_ij, z_ij, in the rows and columns of ``chow_matrix``
    (monomials in the weights w1..w3): the adjugate of the weighted sum,
    whose entry (i, j) is w1 x_ij + w2 y_ij + w3 z_ij, split by weight
    monomial."""
    prefixes = ("x", "y", "z")
    weight_names = tuple(f"w{k + 1}" for k in range(len(prefixes)))
    acc = unvectorize(n, [sum((MPoly.var(w) * MPoly.var(f"{p}{i + 1}{j + 1}")
                               for w, p in zip(weight_names, prefixes)), MPoly.zero())
                          for i, j in sym_pairs(n)])
    _, adj = faddeev_leverrier_by_entries(acc)
    buckets = [adj[i, j].split_by_vars(weight_names) for i, j in sym_pairs(n)]
    return Mat([[b.get(mono, MPoly.zero()) for mono in monomials(len(prefixes), n - 1)]
                for b in buckets])


def _nonzero(p: dict) -> dict:
    return {key: c for key, c in p.items() if c}


def laplace_minors(a):
    """The minor of the first |S| rows of an integer polynomial matrix on
    columns S, by Laplace expansion along row |S| - 1 into the minors on the
    subsets of S one column smaller, each computed once and kept in a memo
    over every column subset reached (the package expands layer by layer
    and keeps at most two layers, ``exact.laplace_det``)."""
    memo = {(): {0: 1}}

    def minor(cols: tuple) -> dict:
        cached = memo.get(cols)
        if cached is not None:
            return cached
        row = len(cols) - 1
        acc: dict = {}
        for idx, c in enumerate(cols):
            e = a[row][c]
            if not e:
                continue
            sub = minor(cols[:idx] + cols[idx + 1:])
            if sub:
                _mul_add(acc, e, sub, -1 if (row + idx) % 2 else 1)
        memo[cols] = acc = _nonzero(acc)
        return acc

    return minor


def _sum(*polys: dict) -> dict:
    acc: dict = {}
    for p in polys:
        for key, c in p.items():
            acc[key] = acc.get(key, 0) + c
    return _nonzero(acc)


def _trace_of_product(a, b) -> dict:
    """trace(A B) = sum of A[i][j] B[j][i], without forming the product."""
    acc: dict = {}
    for i, a_row in enumerate(a):
        for x, b_row in zip(a_row, b):
            y = b_row[i]
            if x and y:
                _mul_add(acc, x, y)
    return _nonzero(acc)


def faddeev_leverrier(a):
    """([c_1 .. c_n], M_n) for an n x n integer polynomial matrix A (its
    rows), packed.  With M_1 = I, c_k = -trace(A M_k) / k and M_(k+1) = A
    M_k + c_k I, so the product of step k is reused by step k + 1 and the
    last step needs only the trace: n - 1 matrix products in all.  The c_k
    are the coefficients of det(lam I - A) = lam^n + c_1 lam^(n-1) + ... +
    c_n, integer polynomials in A's entries, so each division by k is exact,
    and adj(A) = (-1)^(n-1) M_n."""
    n = len(a)
    mk = [[{0: 1} if i == j else {} for j in range(n)] for i in range(n)]
    cs = []
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                prod[i][i] = _sum(prod[i][i], cs[-1])
            mk = prod
        if k < n:
            prod = int_poly_matmul(a, mk)
            tr = _sum(*(prod[i][i] for i in range(n)))
        else:
            tr = _trace_of_product(a, mk)
        cs.append({key: -x // k for key, x in tr.items()})
    return cs, mk


def chow_cells(adj, packing: Packing, m: int):
    """The cells of a Chow matrix off the adjugate, up to sign, of a packed
    generic element whose m weights t_1..t_m take the top m fields of
    ``packing``: in row (i, j) of ``sym_pairs`` and the column of a monomial
    of ``monomials(m, n - 1)``, the terms of adj[i][j] whose weight fields
    hold that monomial, as a packed polynomial in the fields below them."""
    shift = packing.fields[m - 1]
    low = (1 << shift) - 1
    columns = [packing.key(mono) >> shift for mono in monomials(m, len(adj) - 1)]
    rows = []
    for i, j in sym_pairs(len(adj)):
        cells: dict = {}
        for key, c in adj[i][j].items():
            cells.setdefault(key >> shift, {})[key & low] = c
        rows.append([cells.get(col, {}) for col in columns])
    return rows


def chow_det_generic_by_packed_net(n: int = 3) -> exact.MPoly:
    """``chow.chow_det_generic`` on the packed generic net: w1..w3 in the top
    fields of one ``Packing`` and the 18 entry variables below them, its
    adjugate from ``faddeev_leverrier`` on the packed matrix (n odd), the
    cells read off it by ``chow_cells`` and their ``laplace_minors``
    determinant converted by ``mpoly_by_eager_decode`` (the package runs
    ``symmetric_linear_adjugate`` on the 18 products of a weight and an
    entry, and keeps the determinant packed)."""
    prefixes = ("x", "y", "z")
    m, pairs = len(prefixes), sym_pairs(n)
    names = [f"{p}{i + 1}{j + 1}" for p in prefixes for i, j in pairs]
    bound = sym_dim(n) * (n - 1)
    packing, size = Packing(m + len(names), bound), len(pairs)
    units = packing.units  # weight k, then entry variable v = size k + pair index
    x = linear_matrix([(units[v // size] + units[m + v],
                        symmetric_rows(n, [int(q == v % size) for q in range(size)]))
                       for v in range(len(names))])
    _, adj = faddeev_leverrier(x)
    det = laplace_minors(chow_cells(adj, packing, m))(tuple(range(sym_dim(n))))
    return mpoly_by_eager_decode(Packing(len(names), bound), det, 1, names)


def integer_coefficients(coeffs):
    """Fraction or MPoly lam-coefficients as ``squarefree_by_recursive``'s
    input: cleared of denominators by one lcm, each {exponent tuple: int}
    over the sorted union of their variables."""
    polys = [c if isinstance(c, MPoly) else MPoly.const(c) for c in coeffs]
    names = tuple(sorted({v for c in polys for v in c.vars}))
    scale = math.lcm(*(x.denominator for c in polys for x in c.terms.values()))
    return [{e: x.numerator * (scale // x.denominator) for e, x in c.with_vars(names).terms.items()}
            for c in polys]


def partition_coefficients_by_mpoly(space):
    """The input of the bivariate squarefree decomposition: the
    characteristic polynomial (``faddeev_leverrier_by_entries``) of t1 qC'_1
    + ... + t_{m-2} qC'_{m-2} + qC'_{m-1}, the C'_k the integer
    basis without the first element on which the unit has a nonzero
    coordinate, formed as Fraction matrices and an MPoly generic element."""
    unit = unit_point(space)
    drop = next(k for k, c in enumerate(unit.coords) if c != 0)
    basis, _ = space.integer_basis()
    q, _ = unit.inverse
    *scaled, last = [Mat.from_ints(int_matmul(q, b)) for k, b in enumerate(basis) if k != drop]
    x = generic_element(scaled) + last if scaled else last
    return integer_coefficients(faddeev_leverrier_by_entries(x)[0])


def rational_spaces(seed: int):
    """Seeded spaces for the two routes, n = 1..5 and m = 1..min(sym_dim(n),
    6), two each, with entries k / d, d in {1, 2, 3}: L is 6 when both 2 and
    3 are drawn."""
    rng = SplitMix64(seed)
    out = []
    for n in range(1, 6):
        for m in range(1, min(sym_dim(n), 6) + 1):
            found = 0
            while found < 2:
                basis = [unvectorize(n, [Fraction(rng.int_between(-3, 3), rng.int_between(1, 3))
                                         for _ in sym_pairs(n)]) for _ in range(m)]
                try:
                    out.append(make_space(n, basis))
                except PreconditionError:  # DEPENDENT_BASIS: draw again
                    continue
                found += 1
    return out


def partition_coefficients_by_packing(space):
    """``partition_coefficients_by_mpoly`` on the packed integer kernel: one
    ``faddeev_leverrier`` run on the element, packed by ``Packing`` over
    t1..t_{m-2}, each coefficient read back as {exponent tuple: int}."""
    unit = unit_point(space)
    drop = next(k for k, c in enumerate(unit.coords) if c != 0)
    basis, _ = space.integer_basis()
    q, _ = unit.inverse
    mats = [int_matmul(q, b) for k, b in enumerate(basis) if k != drop]
    packing = Packing(len(mats) - 1, space.n)
    cs, _ = faddeev_leverrier(linear_matrix(list(zip(packing.units + [0], mats))))
    return [{packing.exps(key): c for key, c in cp.items()} for cp in reversed([{0: 1}] + cs)]


def partition_by_bivariate(space):
    """The multiplicity partition exactly in m - 2 variables (one for a
    net): Yun's decomposition (``squarefree_by_recursive``) of
    ``partition_coefficients_by_packing`` over QQ(t1..t_{m-2})."""
    if space.m == 1:
        return (space.n,)
    parts = []
    for factor, mult in squarefree_by_recursive(partition_coefficients_by_packing(space)):
        parts.extend([mult] * (len(factor) - 1))
    return tuple(sorted(parts, reverse=True))


# -- integer polynomials in recursive dense form ------------------------------
#
# A polynomial is an int, or the list of its coefficients in the main
# variable (lowest degree first, no trailing 0), each a polynomial in one
# variable fewer.  [c] is written c, so 0 is the one zero and an int is a
# constant at any depth; [p] is p as a constant in the main variable.  The
# same code runs in any number of variables.

def _trim(p: list):
    while p and not p[-1]:
        p.pop()
    return p[0] if len(p) == 1 and isinstance(p[0], int) else p or 0


def _coeffs(p) -> list:
    return p if isinstance(p, list) else [p]


def _degree(p) -> int:
    """Degree in the main variable (0 for a constant and for 0)."""
    return len(p) - 1 if isinstance(p, list) else 0


def _add(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return a + b
    return _trim([_add(x, y) for x, y in itertools.zip_longest(_coeffs(a), _coeffs(b),
                                                               fillvalue=0)])


def _mul(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return a * b
    a, b = _coeffs(a), _coeffs(b)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = _add(out[i + j], _mul(x, y))
    return _trim(out)


def _sub(a, b):
    return _add(a, _mul(b, -1))


def _power(a, k: int):
    return functools.reduce(_mul, [a] * k, 1)


def _div(a, b):
    """The exact quotient a / b; a remainder is a bug and raises."""
    if b == 1:
        return a
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
    else:
        r, b = list(_coeffs(a)), _coeffs(b)
        q = [0] * max(len(r) - len(b) + 1, 0)
        for k in reversed(range(len(q))):
            q[k] = _div(r[k + len(b) - 1], b[-1])
            for j, y in enumerate(b):
                r[k + j] = _sub(r[k + j], _mul(q[k], y))
        q, r = _trim(q), any(r)
    if r:
        raise InternalCheckError("INTERNAL", "inexact integer polynomial division")
    return q


def _derivative(p):
    return _trim([_mul(x, k) for k, x in enumerate(p)][1:]) if isinstance(p, list) else 0


def _prem(a, b):
    """The pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b, deg b >= 1."""
    lb, db = [b[-1]], len(b) - 1
    for _ in range(_degree(a) - db + 1):
        top = [0] * (_degree(a) - db) + [_mul(a[-1], y) for y in b] if _degree(a) >= db else 0
        a = _sub(_mul(lb, a), top)
    return a


def _sign(p) -> int:
    """The sign of the innermost leading coefficient."""
    while isinstance(p, list):
        p = p[-1]
    return -1 if p < 0 else 1


def _content(p):
    """The positive gcd of the coefficients in the main variable."""
    return functools.reduce(mpoly_gcd_by_recursive, _coeffs(p), 0)


def _primitive(p):
    """p over its content, with a positive innermost leading coefficient."""
    return _div(p, [_mul(_content(p), _sign(p))])


def mpoly_gcd_by_recursive(p, q):
    """The gcd of two integer polynomials (positive innermost leading
    coefficient): the gcd of their contents times that of their primitive parts."""
    if not p or not q:
        return _mul(p or q, _sign(p or q))
    if p == 1 or q == 1:
        return 1
    if isinstance(p, int) and isinstance(q, int):
        return math.gcd(p, q)
    return _mul([mpoly_gcd_by_recursive(_content(p), _content(q))],
                subresultant_gcd_by_recursive(_primitive(p), _primitive(q)))


def subresultant_gcd_by_recursive(p, q):
    """The primitive gcd of p and q in the main variable over the fraction
    field of the coefficients, with a positive innermost leading coefficient:
    the last element of the subresultant pseudo-remainder sequence, each
    pseudo-remainder divided exactly by beta (Brown-Traub's beta/psi)."""
    if not p or not q:
        return _primitive(p or q) if p or q else 0
    if _degree(p) < _degree(q):
        p, q = q, p
    delta = _degree(p) - _degree(q)
    beta, psi = (-1) ** (delta + 1), -1
    while _degree(q):
        rem = _prem(p, q)
        if not rem:
            return _primitive(q)
        p, q = q, _div(rem, [beta])
        lc = _mul(p[-1], -1)
        if delta:
            psi = _div(_power(lc, delta), _power(psi, delta - 1))
        delta = _degree(p) - _degree(q)
        beta = _mul(lc, _power(psi, delta))
    return 1


def _nest(terms: dict, k: int):
    """{exponent tuple: int} as a polynomial in the variables k, k + 1, ..."""
    exps = next(iter(terms))
    if k == len(exps):
        return terms[exps]
    by_power: dict = {}
    for exps, c in terms.items():
        by_power.setdefault(exps[k], {})[exps] = c
    return _trim([_nest(by_power[e], k + 1) if e in by_power else 0
                  for e in range(max(by_power) + 1)])


def squarefree_by_recursive(coeffs):
    """Yun's squarefree decomposition of p = sum_k coeffs[k] * lam^k over the
    fraction field of its coefficients, integer polynomials given as
    {exponent tuple: int} over one tuple of variables (what
    ``partition_coefficients_by_packing`` reads off the packed
    characteristic polynomial).

    They are read into the recursive form, lam first, then their variables
    in order.  Returns [(factor, multiplicity), ...], one squarefree
    primitive factor per multiplicity, in increasing multiplicity; a factor
    is the list of its lam-coefficients, of lam-degree ``len(factor) - 1``.
    p over prod(factor ** multiplicity) is free of lam."""
    p = _trim([_nest(c, 0) if c else 0 for c in coeffs])
    if not p:
        raise ValueError("zero polynomial has no squarefree decomposition")
    c = _primitive(p)
    d, factors = _derivative(c), []
    for mult in itertools.count():  # the pass with multiplicity 0 divides out gcd(p, p')
        if not _degree(c):
            return factors
        a = subresultant_gcd_by_recursive(c, d)
        if mult and _degree(a):
            factors.append((a, mult))
        c = _div(c, a)
        d = _sub(_div(d, a), _derivative(c))


def to_recursive(p: MPoly, names):
    """p as an int or nested lists, ``names[0]`` the main variable and each
    coefficient a polynomial in the names after it; p must have integer
    coefficients and no variable outside ``names``."""
    if p.is_zero():
        return 0
    if not names:
        c = constant_value(p)
        assert c.denominator == 1, p
        return int(c)
    head, rest = names[0], tuple(names[1:])
    buckets = lift(p).split_by_vars((head,)) if head in p.vars else {(0,): p}
    coeffs = [to_recursive(buckets.get((k,), MPoly.zero()), rest)
              for k in range(max(k for (k,) in buckets) + 1)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) == 1 and isinstance(coeffs[0], int):
        return coeffs[0]
    return coeffs or 0


def from_recursive(r, names) -> MPoly:
    """The MPoly that ``to_recursive(., names)`` maps to r."""
    if isinstance(r, int):
        return MPoly.const(r)
    x = MPoly.var(names[0])
    return sum((from_recursive(c, names[1:]) * x ** k for k, c in enumerate(r)), MPoly.zero())


# -- the Jordan layer on Fraction matrices ----------------------------------

def integer_matrix(m: Mat):
    """(M', d) with M = M' / d for a Fraction matrix: d is the lcm of all its
    denominators and M' has integer entries."""
    d = math.lcm(*(x.denominator for row in m.data for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in m.data], d


def reduce_vector(ech, v):
    """Residue of a rational vector modulo an echelon's row space, at v's own
    scale: pivot elimination on v cleared of denominators, one division at
    the end."""
    vi, d = integer_vector([frac(x) for x in v])
    out, scale = ech.eliminate(vi)
    return [Fraction(x, scale * d) for x in out]


def residue_mod_space(space, m: Mat) -> Mat:
    """Canonical representative of m modulo the space (pivot elimination)."""
    return unvectorize(space.n, reduce_vector(space.echelon, vectorize(m)))


def jordan_product_by_fractions(x: Mat, y: Mat, q, s: int) -> Mat:
    """X * Y for Fraction matrices and U^{-1} = Q / s: with X = X' / d and
    Y = Y' / e, the integer X' Q Y' + (X' Q Y')^T divided once by 2 s d e."""
    (xi, d), (yi, e) = integer_matrix(x), integer_matrix(y)
    a = int_matmul(int_matmul(xi, q), yi)
    return unvectorize(x.rows, [Fraction(a[i][j] + a[j][i], 2 * s * d * e)
                                for i, j in sym_pairs(x.rows)])


def basis_products_by_fractions(space, u: Mat):
    """The Fraction structure tensor, ``tensor[i][j]`` the coordinates of
    b_i * b_j found by ``contains``; or, for the first escaping product in
    (i, j) order, i <= j, the tuple (i, j, product, residue)."""
    q, s = integer_matrix(inverse(u))
    m = space.m
    tensor = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            p = jordan_product_by_fractions(space.basis[i], space.basis[j], q, s)
            coords = contains(space, p)
            if coords is None:
                return i, j, p, residue_mod_space(space, p)
            tensor[i][j] = tensor[j][i] = tuple(coords)
    return tuple(tuple(row) for row in tensor)


def multiply_coords_by_fractions(tensor, a, b):
    """sum_ij a_i b_j tensor[i][j], entry by entry in Fractions."""
    m = len(tensor)
    out = [Fraction(0)] * m
    for i in range(m):
        for j in range(m):
            f = a[i] * b[j]
            if f:
                for k in range(m):
                    out[k] += f * tensor[i][j][k]
    return out


def is_associative_by_unit_vectors(tensor) -> bool:
    """(b_i * b_j) * b_k = b_i * (b_j * b_k) on every basis triple, each side
    a product with a unit coordinate vector."""
    m = len(tensor)
    unit = [[Fraction(int(t == i)) for t in range(m)] for i in range(m)]
    return all(multiply_coords_by_fractions(tensor, tensor[i][j], unit[k])
               == multiply_coords_by_fractions(tensor, unit[i], tensor[j][k])
               for i in range(m) for j in range(m) for k in range(m))


def radical_by_fractions(tensor):
    """Kernel of the trace form tr(L_{x*y}), its Gram matrix in Fractions."""
    m = len(tensor)
    traces = [sum(tensor[k][j][j] for j in range(m)) for k in range(m)]
    gram = [[sum(c * t for c, t in zip(tensor[i][j], traces)) for j in range(m)]
            for i in range(m)]
    return fraction_kernel(rref(gram))


def rad_square_dim_by_fractions(tensor) -> int:
    """Rank of the pairwise products of ``radical_by_fractions``' vectors."""
    coords = radical_by_fractions(tensor)
    return rref([multiply_coords_by_fractions(tensor, x, y)
                 for i, x in enumerate(coords) for y in coords[i:]]).rank


def rad_square_dim_by_multiply_coords(a) -> int:
    """Rank of the pairwise products of ``radical(a)``'s integer vectors,
    each ``multiply_coords_by_fractions`` on the Fraction tensor ``tensor_of(a)``."""
    coords, tensor = radical(a), tensor_of(a)
    return rref([multiply_coords_by_fractions(tensor, x, y)
                 for i, x in enumerate(coords) for y in coords[i:]]).rank


def tensor_of(a):
    """The structure tensor of a ``JordanStructure`` as Fractions: c / den."""
    return tuple(tuple(tuple(Fraction(x, a.den) for x in vec) for vec in row) for row in a.c)


def operator_matrix_by_fractions(tensor, x) -> Mat:
    """The Fraction matrix of left multiplication by the element with
    coordinates x: column j is x * b_j (``multiply_coords_by_fractions``)."""
    m = len(tensor)
    cols = [multiply_coords_by_fractions(tensor, x, [int(k == j) for k in range(m)])
            for j in range(m)]
    return Mat([list(row) for row in zip(*cols)])


def unit_mat(unit) -> Mat:
    """The Fraction matrix U' / scale of a ``spaces.Unit``."""
    return Mat([[Fraction(x, unit.scale) for x in row] for row in unit.rows])


def congruence_by_fractions(space, p: Mat):
    """The image of the space under an invertible n x n P, as Fraction
    products P^T B P of its Fraction basis cleared by ``MatSpace``."""
    pt = p.transpose()
    return MatSpace(space.n, [pt @ b @ p for b in space.basis])


def reciprocal_identity_by_fractions(space):
    """(ok, witness) of ``check_reciprocal_identity``: at the first eight
    invertible points of the same sweeps, U Q U for the Fraction unit U and
    the integer numerator Q of X'^-1, located by ``contains``."""
    u = unit_mat(unit_point(space))
    found = 0
    for tup in itertools.chain(nonzero_sweep(space.m, space.n + 2), integer_sweep(space.m)):
        inv = integer_inverse(space.integer_element(tup))
        if inv is None:
            continue
        found += 1
        if contains(space, u @ Mat.from_ints(inv[0]) @ u) is None:
            return False, space.element(tup)
        if found >= 8:
            return True, None


# -- the primitive dense echelon -------------------------------------------

def residue(ech, v):
    """An integer vector v modulo an echelon's row space, over its content: a
    positive multiple of the remainder (zero when v lies in the space)."""
    out, scale = ech.eliminate(v)
    g = math.gcd(*out) or 1
    return [x // (g if scale > 0 else -g) for x in out]


class PrimitiveEchelon:
    """The reduced row echelon form kept as primitive integer rows, each with
    a positive pivot entry and zeros in every other row's pivot column: every
    row the pivot hits is made primitive again at each ``adjoin``, and
    ``eliminate`` scales by the lcm of the hit pivot entries (the package's
    ``Echelon`` grows fraction-free and forms these rows on read)."""

    def __init__(self, cols: int):
        self.cols = cols
        self.int_rows = []
        self.pivots = []

    @property
    def rank(self) -> int:
        return len(self.int_rows)

    @property
    def rows(self):
        return [[Fraction(x, row[p]) for x in row] for row, p in zip(self.int_rows, self.pivots)]

    def kernel_basis(self):
        rows, basis = self.rows, []
        for f in (j for j in range(self.cols) if j not in self.pivots):
            v = [Fraction(int(j == f)) for j in range(self.cols)]
            for row, p in zip(rows, self.pivots):
                v[p] = -row[f]
            basis.append(v)
        return basis

    def eliminate(self, v):
        """(L v minus v_p (L / r_p) times each hit row r, L), L the lcm of
        the hit rows' pivot entries r_p."""
        hits = [(row, p) for row, p in zip(self.int_rows, self.pivots) if v[p]]
        scale = math.lcm(*(row[p] for row, p in hits))
        out = [scale * x for x in v]
        for row, p in hits:
            f = v[p] * (scale // row[p])
            out = [x - f * y for x, y in zip(out, row)]
        return out, scale

    def extend(self, rows) -> None:
        for row in rows:
            if self.rank == self.cols:
                return
            v = residue(self, row)
            if any(v):
                self.adjoin(v)

    def adjoin(self, v) -> None:
        """Add a nonzero primitive residue with a positive leading entry."""
        c = next(j for j, x in enumerate(v) if x)
        if v[c] < 0:
            v = [-x for x in v]
        a = v[c]
        for k, row in enumerate(self.int_rows):
            f = row[c]
            if f:
                g = math.gcd(a, f)
                new = [(a // g) * x - (f // g) * y for x, y in zip(row, v)]
                g = math.gcd(*new)
                self.int_rows[k] = [x // g for x in new]
        k = bisect.bisect(self.pivots, c)
        self.int_rows.insert(k, v)
        self.pivots.insert(k, c)


class GaussJordanEchelon:
    """Bareiss's elimination in Gauss-Jordan form: ``ff_rows`` R_i sorted by
    pivot, each proportional to T_i = R_i d / R_i[p_i] (d times the reduced
    row), and ``d`` the pivot entry of the last row adjoined.  A new pivot c
    with entry a rewrites each row with f = R_i[c] != 0 as
    (a R_i - f out) // R_i[p_i]."""

    def __init__(self, cols: int):
        self.cols = cols
        self.ff_rows = []
        self.pivots = []
        self.d = 1

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def int_rows(self):
        out = []
        for row, p in zip(self.ff_rows, self.pivots):
            g = math.gcd(*row) * (-1 if row[p] < 0 else 1)
            out.append([x // g for x in row])
        return out

    def eliminate(self, v):
        """(d v - sum v[p_i] T_i, d), with v[p_i] T_i = v[p_i] d R_i // R_i[p_i]."""
        d = self.d
        out = [d * x for x in v]
        for row, p in zip(self.ff_rows, self.pivots):
            f, r = v[p], row[p]
            if f:
                out = [x - f * d * y // r for x, y in zip(out, row)]
        return out, d

    def extend(self, rows) -> None:
        rows = iter(rows)
        while self.rank < self.cols and (row := next(rows, None)) is not None:
            self.adjoin(row)

    def adjoin(self, v):
        out, _ = self.eliminate(v)
        c = next((j for j, x in enumerate(out) if x), None)
        if c is None:
            return None
        a = out[c]
        for k, (row, p) in enumerate(zip(self.ff_rows, self.pivots)):
            f, r = row[c], row[p]
            if f:
                self.ff_rows[k] = [(a * x - f * y) // r for x, y in zip(row, out)]
        k = bisect.bisect(self.pivots, c)
        self.ff_rows.insert(k, out)
        self.pivots.insert(k, c)
        self.d = a
        return out


def rref_with_transform_by_gauss_jordan(matrix):
    """(echelon of A, (T', D)) on the Gauss-Jordan echelon of the rows
    [A'_i | d_i e_i]: A's echelon is its left block with the same d, and T'
    the right block of |d| R_i / R_i[p_i] over D = |d|."""
    k = len(matrix)
    ncols = len(matrix[0]) if k else 0
    cleared = [integer_vector([frac(x) for x in row]) for row in matrix]
    aug = GaussJordanEchelon(ncols + k)
    aug.extend(row + [d if i == j else 0 for j in range(k)] for i, (row, d) in enumerate(cleared))
    ech, rank, den = GaussJordanEchelon(ncols), bisect.bisect_left(aug.pivots, ncols), abs(aug.d)
    ech.ff_rows = [row[:ncols] for row in aug.ff_rows[:rank]]
    ech.pivots, ech.d = aug.pivots[:rank], aug.d
    return ech, ([[x * den // row[p] for x in row[ncols:]]
                  for row, p in zip(aug.ff_rows, aug.pivots)], den)


def det_by_gauss_jordan(m: Mat) -> Fraction:
    """det(M) = sign d / (d_1 ... d_n) off the Gauss-Jordan echelon of the
    rows R'_i / d_i adjoined in order, sign the parity of the pivot order."""
    cleared = [integer_vector(row) for row in m.data]
    ech, swaps = GaussJordanEchelon(m.rows), 0
    for row, _ in cleared:
        out = ech.adjoin(row)
        if out is None:
            return Fraction(0)
        swaps += ech.rank - bisect.bisect(ech.pivots, next(j for j, x in enumerate(out) if x))
    return Fraction(-ech.d if swaps % 2 else ech.d, math.prod(d for _, d in cleared))


def rref_with_transform_by_primitive_rows(matrix):
    """(echelon of A, (T', D)) on the primitive echelon of [A'_i | d_i e_i]:
    a reduced row [R_r | S_r] with pivot entry r_p has T_r = S_r / r_p, and
    D = lcm(r_p)."""
    k = len(matrix)
    ncols = len(matrix[0]) if k else 0
    cleared = [integer_vector([frac(x) for x in row]) for row in matrix]
    aug = PrimitiveEchelon(ncols + k)
    aug.extend(row + [d if i == j else 0 for j in range(k)] for i, (row, d) in enumerate(cleared))
    ech = PrimitiveEchelon(ncols)
    ech.extend(row[:ncols] for row in aug.int_rows)
    den = math.lcm(*(row[p] for row, p in zip(aug.int_rows, aug.pivots)))
    return ech, ([[x * (den // row[p]) for x in row[ncols:]]
                  for row, p in zip(aug.int_rows, aug.pivots)], den)


def inverse_or_none_by_primitive_rows(m: Mat):
    """(Q, s) with M^-1 = Q / s, or None: each reduced row [r_p e_p | S_p] of
    [M' | diag(d)] is primitive, so (T', D) is already in lowest terms."""
    ech, transform = rref_with_transform_by_primitive_rows(m.data)
    return transform if ech.rank == m.rows else None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser ``cli.main`` used before ``cli.read_argv``, built
    once per process: building one costs about as much as a small ``analyze``."""
    parser = argparse.ArgumentParser(
        prog="jordanet",
        description="Exact analysis of linear subspaces of symmetric matrices: "
                    "closure under the inverse-twisted product, reciprocal spans, "
                    "Chow matrices, and classification invariants.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("space", help="JSON space file or catalog://<id>")
        p.add_argument("--json", action="store_true", help="byte-stable JSON report")

    p = sub.add_parser("analyze", help="regularity, closure, radical, classification")
    common(p)

    p = sub.add_parser("chow", help="Chow matrix rank, kernel forms, determinant stats")
    p.add_argument("space", nargs="?", help="JSON space file or catalog://<id>")
    p.add_argument("--json", action="store_true")
    p.add_argument("--rank", action="store_true")
    p.add_argument("--kernel", action="store_true")
    p.add_argument("--det-stats", action="store_true")
    p.add_argument("--generic-n3", action="store_true",
                   help="statistics of the fully symbolic 3x3 Chow determinant")

    p = sub.add_parser("pencil", help="classify a two-dimensional space")
    common(p)

    p = sub.add_parser("copencil", help="classify a codimension-two space in S^3")
    common(p)

    p = sub.add_parser("plucker", help="dual Pluecker coordinates and certificate values")
    common(p)

    p = sub.add_parser("limit", help="Grassmannian limit of a parametric family at t -> 0")
    common(p)

    p = sub.add_parser("emptiness", help="Macaulay certificate for a homogeneous system")
    p.add_argument("polyfile", help="text file, one polynomial per line")
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run the built-in verification suite")
    p.add_argument("--subset", default=None,
                   help="intro | jordan | chow | chow-oracle | classify | tau | "
                        "pencil | complement | plucker | count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("catalog", help="list built-in catalog entries")
    p.add_argument("--json", action="store_true")

    return parser


def argv_outcome(parse, argv) -> tuple:
    """(attributes, exit code, stdout, stderr) of ``parse(argv)``: the
    attributes as a dict when it returns, the code when it raises SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got, code = vars(parse(list(argv))), None
        except SystemExit as exc:
            got, code = None, exc.code
    return got, code, out.getvalue(), err.getvalue()
