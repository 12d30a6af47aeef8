"""Built-in verification suite.

Each check re-derives one of the package's reference results from scratch —
closure properties of the shipped catalog spaces, Chow ranks and kernels,
the generic Chow-form statistics, the eight-class net classification with
its degeneration diagram, certificate-polynomial vanishing on seeded orbit
samples, and the counting formulas.  All arithmetic is exact, so every
comparison is equality; there are no tolerances anywhere.

Checks are grouped into named subsets (``intro``, ``jordan``, ``chow``,
``chow-oracle``, ``classify``, ``tau``, ``pencil``, ``complement``,
``plucker``, ``count``); the CLI's ``verify`` command runs them all or one
subset and exits nonzero on any failure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional

from .catalog import canonical, degeneration_edges
from .chow import (
    chow_det_eval_at_net,
    chow_det_generic,
    chow_kernel_forms,
    chow_rank,
    sampled_reciprocal_span,
)
from .classify import (
    NET_LABELS,
    classify_copencil_S3,
    classify_net_S4,
    classify_pencil,
    decision_table,
    ejo_component_count,
    invariant_vector,
)
from .errors import PreconditionError
from .exact import parse_poly
from .jordan import (
    check_reciprocal_identity,
    is_jordan,
    jordan_closure,
    peirce,
    radical,
    structure_constants,
)
from .linalg import Mat, inverse, rref
from .prng import SplitMix64, derive_seed
from .spaces import (
    MatSpace,
    generic_det,
    is_regular,
    make_space,
    orth_complement,
    sample_congruent,
    sym_dim,
    sym_pairs,
    symmetric_rows,
)
from .varieties import catalog_eval, min_rank_bounds, rank_one_locus_certificate


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def _check(results: List[CheckResult], name: str, ok: bool, detail: str = ""):
    results.append(CheckResult(name, bool(ok), detail))


def _diag(*vals) -> Mat:
    n = len(vals)
    return Mat.from_ints([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])


def _sym_unit(n, i, j) -> Mat:
    m = [[0] * n for _ in range(n)]
    m[i - 1][j - 1] = m[j - 1][i - 1] = 1
    return Mat.from_ints(m)


def _cayley(seed: int, n: int) -> Mat:
    """Orthogonal (I - S)(I + S)^-1 for a seeded skew-symmetric S; I + S is
    invertible because x^T (I + S) x = |x|^2."""
    rng = SplitMix64(seed)
    s = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.int_between(-3, 3), rng.int_between(1, 3))
            s[i][j] = v
            s[j][i] = -v
    skew = Mat(s)
    ident = Mat.identity(n)
    return (ident - skew) @ inverse(ident + skew)


def _random_symmetric(rng: SplitMix64, n: int, bound: int = 3) -> Mat:
    return Mat.from_ints(symmetric_rows(n, [rng.int_between(-bound, bound) for _ in sym_pairs(n)]))


def _random_space(rng: SplitMix64, n: int, m: int, bound: int = 3) -> MatSpace:
    while True:
        basis = [_random_symmetric(rng, n, bound) for _ in range(m)]
        try:
            return make_space(n, basis)
        except PreconditionError:
            continue


def _random_regular_net(rng: SplitMix64, n: int) -> MatSpace:
    while True:
        sp = _random_space(rng, n, 3)
        if is_regular(sp):
            return sp


_PLAIN_CATALOG = [
    "dim4/L1", "dim4/L2", "dim4/L2flip", "netrank8",
    "nets/L1", "nets/L2", "nets/L3",
    "s4/1a", "s4/1b", "s4/2a1", "s4/2a2", "s4/2b", "s4/3a", "s4/3b1", "s4/3b2",
    "copencil/L1", "copencil/L2", "s5/Lstar",
]

_NET_CATALOG = ["netrank8", "nets/L1", "nets/L2", "nets/L3",
                "s4/1a", "s4/1b", "s4/2a1", "s4/2a2", "s4/2b",
                "s4/3a", "s4/3b1", "s4/3b2", "s5/Lstar"]

# Sample sizes; each appears in its check's name, so changing one renames the
# check in ``verify --json``.
_COHERENCE_IMAGES = 20
_RANDOM_NETS = 20
_CLASSIFY_IMAGES = 50
_PENCIL_SAMPLES = 50
_COMPLEMENT_SAMPLES = 100
_PLUCKER_SAMPLES = 50


# -- criterion 1: the two reference spaces and the broken sign variant -------

def check_intro(seed: int = 0) -> List[CheckResult]:
    out: List[CheckResult] = []
    ok1, _ = is_jordan(canonical("dim4/L1"))
    _check(out, "dim4/L1 closed under the product", ok1)
    ok2, _ = is_jordan(canonical("dim4/L2"))
    _check(out, "dim4/L2 closed under the product", ok2)
    ok3, witness = is_jordan(canonical("dim4/L2flip"))
    _check(out, "dim4/L2flip fails with explicit witness",
           (not ok3) and witness is not None
           and any(x != 0 for row in witness.residue.data for x in row),
           f"witness product of basis ({witness.i}, {witness.j})" if witness else "")
    return out


# -- criterion 2: closure <=> sampled reciprocal <=> closure fixed point ------

def check_coherence(seed: int = 0) -> List[CheckResult]:
    out: List[CheckResult] = []
    for cid in _PLAIN_CATALOG:
        base = canonical(cid)
        images = (sample_congruent(base, derive_seed(seed, "coherence", cid, k))
                  for k in range(_COHERENCE_IMAGES))
        conditions = ((is_jordan(sp)[0], check_reciprocal_identity(sp)[0],
                       jordan_closure(sp).rank == sp.m) for sp in images)
        bad = next((f"image {k}: jordan={j} reciprocal={r} closure={c}"
                    for k, (j, r, c) in enumerate(conditions) if not j == r == c), None)
        _check(out, f"coherence of the three conditions on {cid} ({_COHERENCE_IMAGES} images)",
               bad is None, bad or "")
    return out


# -- criteria 3-5: Chow data -------------------------------------------------

def check_chow_generic(seed: int = 0) -> List[CheckResult]:
    out: List[CheckResult] = []
    det = chow_det_generic(3)
    _check(out, "generic 3x3 Chow form has degree 12", det.total_degree() == 12,
           f"degree {det.total_degree()}")
    _check(out, "generic 3x3 Chow form has 22659 terms", det.term_count() == 22659,
           f"{det.term_count()} terms")
    diag_net = make_space(3, [_sym_unit(3, 1, 1), _sym_unit(3, 2, 2), _sym_unit(3, 3, 3)])
    _check(out, "Chow form vanishes at a rank-one-containing net",
           chow_det_eval_at_net(diag_net) == 0)
    probe = make_space(3, [
        Mat.from_ints([[1, 0, 1], [0, 2, 0], [1, 0, 0]]),
        Mat.from_ints([[0, 1, 0], [1, 0, 1], [0, 1, 1]]),
        Mat.from_ints([[1, 1, 0], [1, 1, 1], [0, 1, 2]]),
    ])
    value = chow_det_eval_at_net(probe)
    _check(out, "Chow form is nonzero at a net with invertible Chow matrix",
           value != 0, f"value {value}")
    return out


def check_rank8_net(seed: int = 0) -> List[CheckResult]:
    out: List[CheckResult] = []
    net8 = canonical("netrank8")
    _check(out, "rank-8 net: Chow rank", chow_rank(net8) == 8)
    forms = chow_kernel_forms(net8)
    expected = [parse_poly("2*z12 - z13 - z24"), parse_poly("z14 - z23 - z33 + z44")]
    _check(out, "rank-8 net: kernel forms span", _same_form_span(forms, expected),
           "; ".join(str(f) for f in forms))
    _check(out, "rank-8 net: closure is all of S^4", jordan_closure(net8).rank == 10)
    return out


def check_comparison_nets(seed: int = 0) -> List[CheckResult]:
    out: List[CheckResult] = []
    for cid, expect_rank in (("nets/L2", 3), ("nets/L3", 10)):
        sp = canonical(cid)
        d = generic_det(sp, names=("x", "y", "z"))
        _check(out, f"{cid}: determinant is the squared conic",
               d == parse_poly("x^2*z^2 - 2*x*y^2*z + y^4"), str(d))
        _check(out, f"{cid}: Chow rank {expect_rank}", chow_rank(sp) == expect_rank)
    for cid, expect in (("nets/L1", True), ("nets/L2", True), ("nets/L3", False)):
        ok, _ = is_jordan(canonical(cid))
        _check(out, f"{cid}: closure status {expect}", ok == expect)
    return out


def _same_form_span(got, expected) -> bool:
    names = sorted({v for f in got + expected for v in f.support_vars()})
    if not names:
        return len(got) == len(expected)

    def vectors(forms):
        return [[f.coefficient({v: 1}) for v in names] for f in forms]

    a, b = vectors(got), vectors(expected)
    if len(a) != len(b):
        return False
    return rref(a).int_rows == rref(b).int_rows


# -- criterion 6: Chow rank equals the sampled reciprocal span ----------------

def check_chow_oracle(seed: int = 0) -> List[CheckResult]:
    out: List[CheckResult] = []
    bad = []
    for cid in _NET_CATALOG:
        sp = canonical(cid)
        n_rows = sym_dim(sp.n)
        if chow_rank(sp) != sampled_reciprocal_span(sp, 3 * n_rows):
            bad.append(cid)
    _check(out, "catalog nets: Chow rank equals sampled span of inverses", not bad, str(bad))
    for n in (3, 4):
        rng = SplitMix64(derive_seed(seed, "chow-oracle", n))
        mismatch = 0
        for _ in range(_RANDOM_NETS):
            sp = _random_regular_net(rng, n)
            if chow_rank(sp) != sampled_reciprocal_span(sp, 3 * sym_dim(n)):
                mismatch += 1
        _check(out, f"{_RANDOM_NETS} random regular nets in S^{n}: rank oracle agreement",
               mismatch == 0, f"{mismatch} mismatches")
    return out


# -- criterion 7: the eight-class classification ------------------------------

def check_classification(seed: int = 0) -> List[CheckResult]:
    out: List[CheckResult] = []
    rebuilt = {invariant_vector(canonical(f"s4/{label}")): label for label in NET_LABELS}
    _check(out, "eight canonical nets give eight distinct invariant vectors",
           len(rebuilt) == 8 and rebuilt == decision_table())
    for label in NET_LABELS:
        sp = canonical(f"s4/{label}")
        _check(out, f"canonical {label} classifies to itself",
               classify_net_S4(sp) == label)
    for label in NET_LABELS:
        sp = canonical(f"s4/{label}")
        labels = (classify_net_S4(sample_congruent(sp, derive_seed(seed, "classify", label, k)))
                  for k in range(_CLASSIFY_IMAGES))
        bad = next((f"image {k} -> {got}" for k, got in enumerate(labels) if got != label), None)
        _check(out, f"{_CLASSIFY_IMAGES} congruence images of {label} classify identically",
               bad is None, bad or "")
    from .spaces import grassmann_limit

    for cid, _, target in degeneration_edges():
        lim = grassmann_limit(canonical(cid))
        got = classify_net_S4(lim)
        _check(out, f"{cid} limit classifies to {target}", got == target, f"got {got}")
    return out


# -- criterion 8: minimum-rank certificates -----------------------------------

def check_tau(seed: int = 0) -> List[CheckResult]:
    out: List[CheckResult] = []
    bounds = min_rank_bounds(canonical("s5/Lstar"))
    _check(out, "special net in S^5: rank-one locus certified empty",
           bounds.certificate is not None and bounds.certificate.kind == "CERTIFIED_EMPTY"
           and bounds.certificate.degree <= 6,
           f"degree {bounds.certificate.degree if bounds.certificate else '?'}")
    _check(out, "special net in S^5: minimum rank exactly 2",
           bounds.tau == 2, f"bounds ({bounds.lower}, {bounds.upper})")
    type1a = make_space(5, [_diag(1, 1, 1, 0, 0), _diag(0, 0, 0, 1, 0), _diag(0, 0, 0, 0, 1)])
    _check(out, "diagonalizable net in S^5: rank upper bound 1",
           min_rank_bounds(type1a).upper == 1)
    cert_2b = rank_one_locus_certificate(canonical("s4/2b"))
    _check(out, "2b net: no rank-one elements (certified)",
           cert_2b.kind == "CERTIFIED_EMPTY")
    _check(out, "1a net: contains a rank-one element",
           min_rank_bounds(canonical("s4/1a")).upper == 1)
    return out


# -- criterion 9: pencils and the two polynomial certificates -----------------

def check_pencils(seed: int = 0) -> List[CheckResult]:
    out: List[CheckResult] = []
    for n in (3, 4, 5):
        labels = set()
        for i in range(1, n // 2 + 1):
            for k in range(6):
                q = _cayley(derive_seed(seed, "pencil", n, i, k), n)
                x = q.transpose() @ _diag(*([3] * i + [-1] * (n - i))) @ q
                got = classify_pencil(make_space(n, [Mat.identity(n), x]))
                labels.add(got.label)
        _check(out, f"pencils in S^{n} realize exactly the {n // 2} diagonalizable labels",
               labels == {f"V{i}" for i in range(1, n // 2 + 1)}, str(sorted(labels)))

    bad = None
    for k in range(_PENCIL_SAMPLES):
        q = _cayley(derive_seed(seed, "cubics", k), 3)
        c = SplitMix64(derive_seed(seed, "cubics-scale", k)).nonzero_int_between(-4, 4)
        x = q.transpose() @ _diag(2 * c, -c, -c) @ q
        values = catalog_eval("double_eigenvalue_cubics", x)
        if any(v != 0 for v in values):
            bad = f"sample {k}: {values}"
            break
    _check(out, f"repeated-eigenvalue cubics vanish on {_PENCIL_SAMPLES} seeded samples",
           bad is None, bad or "")
    witness_vals = catalog_eval("double_eigenvalue_cubics", _diag(1, 2, -3))
    _check(out, "repeated-eigenvalue cubics have a nonzero witness",
           any(v != 0 for v in witness_vals))

    bad = None
    for k in range(_PENCIL_SAMPLES):
        q = _cayley(derive_seed(seed, "frames", k), 3)
        rows = [Mat([[q[r, i] * q[r, j] for j in range(3)] for i in range(3)]) for r in range(3)]
        rng = SplitMix64(derive_seed(seed, "frames-mix", k))
        x = rows[0].scale(rng.nonzero_int_between(-3, 3))
        y = rows[1].scale(rng.nonzero_int_between(-3, 3)) + rows[2].scale(rng.int_between(-3, 3))
        try:
            net = make_space(3, [Mat.identity(3), x, y])
        except PreconditionError:
            continue
        values = catalog_eval("jordan_net_quadrics", net)
        if any(v != 0 for v in values):
            bad = f"sample {k}: {values}"
            break
    _check(out, f"identity-chart net quadrics vanish on {_PENCIL_SAMPLES} rank-one-frame nets",
           bad is None, bad or "")
    x = Mat.from_ints([[1, 2, 0], [2, 0, 1], [0, 1, 1]])
    y = Mat.from_ints([[0, 1, 1], [1, 1, 0], [1, 0, 2]])
    generic_net = make_space(3, [Mat.identity(3), x, y])
    _check(out, "identity-chart net quadrics have a nonzero witness",
           any(v != 0 for v in catalog_eval("jordan_net_quadrics", generic_net)))
    return out


# -- criterion 10: complements, copencils, Peirce ------------------------------

def check_complements(seed: int = 0) -> List[CheckResult]:
    out: List[CheckResult] = []
    rng = SplitMix64(derive_seed(seed, "complement"))
    bad = None
    for k in range(_COMPLEMENT_SAMPLES):
        n = rng.int_between(2, 4)
        m = rng.int_between(1, sym_dim(n) - 1)
        sp = _random_space(rng, n, m)
        comp = orth_complement(sp)
        if sp.m + comp.m != sym_dim(n) or orth_complement(comp) != sp:
            bad = f"sample {k} (n={n}, m={m})"
            break
    _check(out, f"complement involution and dimension law on {_COMPLEMENT_SAMPLES} random spaces",
           bad is None, bad or "")

    for cid in ("copencil/L1", "copencil/L2"):
        ok, _ = is_jordan(canonical(cid))
        _check(out, f"{cid} is closed under the product", ok)
    r1 = len(radical(structure_constants(canonical("copencil/L1"))))
    r2 = len(radical(structure_constants(canonical("copencil/L2"))))
    _check(out, "copencil classes separated by radical dimension",
           r1 == 0 and r2 > 0, f"radical dims {r1}, {r2}")
    _check(out, "copencil classifier labels", classify_copencil_S3(canonical("copencil/L1")) == "CLASS_L1"
           and classify_copencil_S3(canonical("copencil/L2")) == "CLASS_L2")

    full = make_space(3, [_sym_unit(3, i + 1, j + 1) for i, j in sym_pairs(3)])
    a = structure_constants(full)
    pieces = peirce(a, [_sym_unit(3, 1, 1), _sym_unit(3, 2, 2), _sym_unit(3, 3, 3)])
    _check(out, "Peirce decomposition of S^3 has six one-dimensional pieces",
           len(pieces) == 6 and all(len(v) == 1 for v in pieces.values()),
           str({k: len(v) for k, v in sorted(pieces.items())}))
    return out


# -- criterion 11: Pluecker certificates ---------------------------------------

def check_plucker(seed: int = 0) -> List[CheckResult]:
    out: List[CheckResult] = []

    def orbit_samples(label, count):
        sp = canonical(label)
        for k in range(count):
            yield sample_congruent(sp, derive_seed(seed, "plucker", label, k))

    def vanishes(name, quadric, label):
        bad = next((k for k, image in enumerate(orbit_samples(label, _PLUCKER_SAMPLES))
                    if catalog_eval(quadric, image) != [0]), None)
        _check(out, name, bad is None, "" if bad is None else f"sample {bad}")

    def witnessed(name, quadric, label):
        _check(out, name, any(catalog_eval(quadric, image) != [0]
                              for image in orbit_samples(label, 12)))

    for label in ("s4/1b", "s4/2b", "s4/3b1", "s4/3b2"):
        vanishes(f"spin-orbit quadric vanishes on {_PLUCKER_SAMPLES} samples of {label}",
                 "plucker_spin_orbit_quadric", label)
    for label in ("s4/1a", "s4/2a1", "s4/2a2", "s4/3a"):
        witnessed(f"spin-orbit quadric has a nonzero witness on {label}",
                  "plucker_spin_orbit_quadric", label)
    vanishes(f"separator quadric vanishes on {_PLUCKER_SAMPLES} samples of 2a1",
             "plucker_separator_2a1_quadric", "s4/2a1")
    witnessed("separator quadric has a nonzero witness on 3b1",
              "plucker_separator_2a1_quadric", "s4/3b1")
    vanishes(f"Veronese-orbit quadric vanishes on {_PLUCKER_SAMPLES} samples",
             "plucker_veronese_orbit_quadric", "nets/L3")
    vanishes(f"diagonal-orbit quadric vanishes on {_PLUCKER_SAMPLES} samples of 1a",
             "plucker_diagonal_orbit_quadric", "s4/1a")
    return out


# -- criterion 12: component counts --------------------------------------------

def check_counts(seed: int = 0) -> List[CheckResult]:
    out: List[CheckResult] = []
    expected = [1, 2, 2, 4, 4, 6, 7, 9, 10, 13]
    got = [ejo_component_count(n) for n in range(3, 13)]
    _check(out, "component counts match the generating function for n = 3..12",
           got == expected, str(got))
    _check(out, "two components at n = 4", ejo_component_count(4) == 2)
    return out


def check_chow(seed: int = 0) -> List[CheckResult]:
    return check_chow_generic(seed) + check_rank8_net(seed) + check_comparison_nets(seed)


SUBSETS: Dict[str, Callable[..., List[CheckResult]]] = {
    "intro": check_intro,
    "jordan": check_coherence,
    "chow": check_chow,
    "chow-oracle": check_chow_oracle,
    "classify": check_classification,
    "tau": check_tau,
    "pencil": check_pencils,
    "complement": check_complements,
    "plucker": check_plucker,
    "count": check_counts,
}


def run_verification(subset: Optional[str] = None, seed: int = 0) -> List[CheckResult]:
    if subset is not None:
        if subset not in SUBSETS:
            raise PreconditionError("UNKNOWN_ID", f"unknown subset {subset!r}; "
                                    f"choose from {sorted(SUBSETS)}")
        return SUBSETS[subset](seed)
    results: List[CheckResult] = []
    for name in SUBSETS:
        results.extend(SUBSETS[name](seed))
    return results
