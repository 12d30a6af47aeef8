"""The four workloads: their ops, the answer each op must give, and the
one-time builds their set-up pays.

An op is one ``jordanet`` CLI command.  ``build`` writes the inputs from the
seed and returns the ops.  A run makes one or more passes over them, so the
benchmark can check that repeats print the same bytes; ops with
``repeat=False`` take a second or more each and run once.
Nothing here imports ``jordanet`` at module level: the set-up probes time
that import themselves.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
import traceback
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import gen

NET_LABELS = ("1a", "1b", "2a1", "2a2", "2b", "3a", "3b1", "3b2")
PLUCKER_CATALOGS = ("plucker_diagonal_orbit_quadric", "plucker_separator_2a1_quadric",
                    "plucker_spin_orbit_quadric", "plucker_veronese_orbit_quadric")

Check = Callable[[dict], Optional[str]]


@dataclass
class Op:
    argv: List[str]
    check: Check
    repeat: bool = True
    label: str = ""

    def __post_init__(self):
        self.label = self.label or " ".join(Path(a).name for a in self.argv)


@dataclass
class Workload:
    name: str
    build: Callable[[int, Path, Path], List[Op]]
    prepare: Callable[[Path], None]
    pass_seconds: float  # nominal; see ``passes``
    min_passes: int = 2
    cold: bool = False

    def passes(self, seconds: int) -> int:
        """Passes a run makes; depends only on ``--seconds``, so both sides
        of a comparison run the same work."""
        return max(self.min_passes, round(seconds / self.pass_seconds))


def expect(**wanted) -> Check:
    def check(report: dict) -> Optional[str]:
        wrong = {k: report.get(k) for k, v in wanted.items() if report.get(k) != v}
        return f"expected {wanted}, got {wrong}" if wrong else None
    return check


@dataclass
class Result:
    """One execution of an op: exit code, output, and the CPU and wall
    seconds of the process that ran it (for a child, from ``wait4``)."""
    cpu: float
    wall: float
    code: Optional[int]
    stdout: str
    stderr: str
    rss_kb: int = 0


def run_in_process(argv: Sequence[str]) -> Result:
    """Call ``jordanet.cli.main`` in this process with stdout and stderr
    captured.  ``cli.main`` is looked up per call, so tracing wrappers apply."""
    import jordanet.cli as cli

    out, err = io.StringIO(), io.StringIO()
    cpu, wall = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse exits on arguments it rejects
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code = None
        err.write(traceback.format_exc())
    return Result(time.process_time() - cpu, time.perf_counter() - wall, code,
                  out.getvalue(), err.getvalue())


def oracle_report(argv: Sequence[str]) -> dict:
    """Untimed in-process CLI call, for checks that need a second answer."""
    result = run_in_process(argv)
    if result.code != 0:
        raise RuntimeError(f"oracle command {list(argv)} exited {result.code}")
    return json.loads(result.stdout)


def relative(path: Path, root: Path) -> str:
    """Input paths are given relative to the checkout, so that the reports
    (which echo them) do not depend on where the checkout lives."""
    return os.path.relpath(path, root)


def import_cli(_root: Path) -> None:
    import jordanet.cli  # noqa: F401


# -- classify_images ------------------------------------------------------------

IMAGES_PER_LABEL = 3


def build_classify(seed: int, workdir: Path, root: Path) -> List[Op]:
    ops = []
    catalog = root / "src" / "jordanet" / "data" / "catalog"
    for label in NET_LABELS:
        basis = json.loads((catalog / f"s4_{label}.json").read_text())["basis"]
        for k in range(IMAGES_PER_LABEL):
            rng = gen.Rng(seed, "classify", label, str(k))
            path = workdir / f"image_{label}_{k}.json"
            gen.write_space(path, gen.congruence_image(basis, gen.unimodular(rng, 4)))
            ops.append(Op(["analyze", relative(path, root), "--json"],
                          expect(net_class=label, jordan=True, closure_dim=3, reciprocal_ok=True)))
    return ops


def prepare_classify(root: Path) -> None:
    import_cli(root)
    from jordanet.classify import decision_table

    decision_table()


# -- closure_random -------------------------------------------------------------

#: Shapes from here on take 0.6 s to 7 s per op and get one space each.
CLOSURE_LONG = (5, 9)
EIGHT_SPACES = ((3, 2), (5, 8))


def closure_grid() -> List[tuple]:
    """(n, m, copies): every m from 2 to dim S^n - 1 for n = 3..5.  The cost
    of one shape varies by up to half between spaces, so the shorter shapes
    get several spaces each, which keeps the median and the tail steady across seeds:
    four for every shape below CLOSURE_LONG, and eight for the cheapest and
    the slowest of them, (3, 2) and (5, 8).  The four extra spaces of (5, 8)
    put the tail (ten executions beyond it: the six long ops and four of
    these) inside that group rather than on its edge; the four extra of
    (3, 2) keep the median inside the group of (4, 7)."""
    return [(n, m, 8 if (n, m) in EIGHT_SPACES else 4 if (n, m) < CLOSURE_LONG else 1)
            for n in (3, 4, 5) for m in range(2, gen.sym_dim(n))]


def closure_check(n: int, m: int) -> Check:
    dim = gen.sym_dim(n)

    def check(report: dict) -> Optional[str]:
        if (report.get("n"), report.get("m")) != (n, m):
            return f"shape {report.get('n')}, {report.get('m')} != {n}, {m}"
        if not report["regular"]:
            return None
        closed = report["closure_dim"] == m
        if not report["jordan"] == report["reciprocal_ok"] == closed:
            return (f"jordan={report['jordan']}, reciprocal_ok={report['reciprocal_ok']} and "
                    f"closure_dim={report['closure_dim']} (m={m}) disagree")
        if report["closure_dim"] != dim and dim - report["closure_dim"] < n - 1:
            return f"closure_dim {report['closure_dim']} breaks the codimension bound"
        return None

    return check


def build_closure(seed: int, workdir: Path, root: Path) -> List[Op]:
    ops = []
    for n, m, copies in closure_grid():
        for k in range(copies):
            rng = gen.Rng(seed, "closure", str(n), str(m), str(k))
            path = workdir / f"space_{n}_{m}_{k}.json"
            gen.write_space(path, gen.random_space(rng, n, m))
            ops.append(Op(["analyze", relative(path, root), "--json"], closure_check(n, m),
                          repeat=(n, m) < CLOSURE_LONG))
    return ops


# -- certificates ---------------------------------------------------------------

# The mix puts eight ops of about 60 ms (chow on nets in S^4, degree-2
# certificates in S^5 with k = 5) in the middle, and three chow ops on nets
# in S^5 (about 0.2 s) just below the slowest ones, so that the median and
# the tail of the execution times each fall inside one dense group rather
# than on a gap between two.
CHOW_SHAPES = ((3, 3), (3, 3), (4, 3), (4, 3), (4, 3), (4, 3), (4, 3), (5, 3), (5, 3), (5, 3),
               (3, 2), (4, 2), (5, 2), (3, 4), (4, 4), (5, 4))
PLUCKER_NETS = 4
#: (n, k, D): D is the lowest Macaulay degree certifying that a generic
#: k-dimensional subspace of S^n has no rank-one point.  For (4, 6) the 21
#: minors span only 20 of the 21 quadrics, so degree 2 cannot certify; those
#: degree-3 ops take about 1 s and run once.
RANK_ONE_SYSTEMS = ((4, 4, 2), (4, 5, 2), (4, 6, 3), (4, 6, 3), (5, 5, 2), (5, 5, 2),
                    (5, 5, 2), (5, 6, 2), (5, 6, 2))
#: Oracle samples per dimension of S^n.  The package's own budget, 3 dim S^n,
#: undersamples at n = 5: chow_rank = 15 but 45 samples span 14 on 19 of 20
#: random nets in S^5, while 60 or more agree.
ORACLE_SAMPLES_PER_DIM = 5
QUADRICS = "jordan_net_quadrics.txt"
QUADRICS_DEGREE = 3
#: 3 quadrics times 12 linear multipliers, independent; 364 = binom(14, 3).
QUADRICS_ANSWER = {"kind": "UNKNOWN", "span_rank": 36, "span_target": 364}


def chow_check(path: Path, n: int) -> Check:
    dim = gen.sym_dim(n)
    oracle: List[int] = []

    def check(report: dict) -> Optional[str]:
        if report["rank"] != dim - len(report["kernel_forms"]):
            return f"rank {report['rank']} with {len(report['kernel_forms'])} kernel forms"
        if not oracle:
            from jordanet.chow import sampled_reciprocal_span
            from jordanet.io import load_space_file

            oracle.append(sampled_reciprocal_span(load_space_file(path),
                                                  ORACLE_SAMPLES_PER_DIM * dim))
        if report["rank"] != oracle[0]:
            return f"rank {report['rank']} but the sampled reciprocal span is {oracle[0]}"
        return None

    return check


def plucker_check(basis: Sequence[gen.Matrix]) -> Check:
    rows = [gen.upper_triangle(b) for b in basis]
    cols = len(rows[0])
    nonzero = {}
    for triple in combinations(range(cols), 3):
        sub = [[row[c] for c in triple] for row in rows]
        value = (sub[0][0] * (sub[1][1] * sub[2][2] - sub[1][2] * sub[2][1])
                 - sub[0][1] * (sub[1][0] * sub[2][2] - sub[1][2] * sub[2][0])
                 + sub[0][2] * (sub[1][0] * sub[2][1] - sub[1][1] * sub[2][0]))
        if value:
            nonzero["".join(map(str, triple))] = str(value)
    count = math.comb(cols, 3)

    def check(report: dict) -> Optional[str]:
        if report["coordinates"] != count or report["nonzero"] != nonzero:
            return "Pluecker coordinates differ from the 3 x 3 minors"
        if sorted(report["certificate_values"]) != sorted(PLUCKER_CATALOGS):
            return f"certificate values for {sorted(report['certificate_values'])}"
        return None

    return check


def emptiness_check(path: Path, k: int, degree: int) -> Check:
    target = math.comb(k + degree - 1, degree)
    lower: List[dict] = []

    def check(report: dict) -> Optional[str]:
        got = (report["kind"], report["degree"], report["span_rank"], report["span_target"])
        if got != ("CERTIFIED_EMPTY", degree, target, target):
            return f"expected a degree-{degree} certificate of rank {target}, got {got}"
        if degree > 2 and not lower:
            lower.append(oracle_report(["emptiness", str(path), "--degree", str(degree - 1), "--json"]))
        if lower and lower[0]["kind"] != "UNKNOWN":
            return f"degree {degree - 1} already certifies, so {degree} is not the lowest"
        return None

    return check


def build_certificates(seed: int, workdir: Path, root: Path) -> List[Op]:
    ops = []
    for index, (n, m) in enumerate(CHOW_SHAPES):
        path = workdir / f"chow_{index}_{n}_{m}.json"
        gen.write_space(path, gen.random_space(gen.Rng(seed, "chow", str(index)), n, m))
        ops.append(Op(["chow", relative(path, root), "--json"], chow_check(path, n)))
    for k in range(PLUCKER_NETS):
        basis = gen.random_space(gen.Rng(seed, "plucker", str(k)), 4, 3)
        path = workdir / f"plucker_{k}.json"
        gen.write_space(path, basis)
        ops.append(Op(["plucker", relative(path, root), "--json"], plucker_check(basis)))
    for index, (n, k, degree) in enumerate(RANK_ONE_SYSTEMS):
        basis = gen.random_space(gen.Rng(seed, "rank-one", str(index)), n, k)
        path = workdir / f"rank_one_{index}_{n}_{k}.txt"
        gen.write_polys(path, gen.rank_one_minors(basis))
        ops.append(Op(["emptiness", relative(path, root), "--degree", str(degree), "--json"],
                      emptiness_check(path, k, degree), repeat=degree == 2))
    quadrics = root / "src" / "jordanet" / "data" / "polynomials" / QUADRICS
    ops.append(Op(["emptiness", relative(quadrics, root), "--degree", str(QUADRICS_DEGREE),
                   "--json"],
                  expect(**QUADRICS_ANSWER), repeat=False))
    return ops


def prepare_certificates(root: Path) -> None:
    import_cli(root)
    from jordanet.varieties import catalog_polynomials

    for cid in PLUCKER_CATALOGS:
        catalog_polynomials(cid)


# -- cli_cold -------------------------------------------------------------------

NETRANK8_FORMS = ["2*z12 - z13 - z24", "z14 - z23 - z33 + z44"]
#: Every degeneration family in the catalog, degen/<a>-<b>; its limit is of class b.
DEGENERATIONS = ("1a-2a1", "1a-2a2", "1b-2b", "1b-3b1", "2a1-3a", "2a2-3a", "2a2-3b1",
                 "2b-3b2", "3a-3b2", "3b1-3b2")

#: ``analyze`` on every plain catalog id, ``limit`` on every degeneration,
#: ``chow`` on the two nets with known non-trivial answers, ``plucker`` on one
#: net, both copencils and the generic determinant.  The 20 commands that
#: classify a net of S^4 (analyze of s4/* and nets/L1, L2; every limit) each
#: rebuild the decision table and take about 1 s cold; ``chow --generic-n3``
#: parses the 1 MB determinant cache (about 2.3 s); the other 13 cost little
#: more than interpreter start and ``import jordanet.cli``.  With 21 slow
#: commands of 34, the median falls inside the group that rebuilds the table.
COLD_COMMANDS = (
    *((["analyze", f"catalog://s4/{label}"], expect(net_class=label, jordan=True))
      for label in NET_LABELS),
    (["analyze", "catalog://nets/L1"], expect(net_class="1a", jordan=True)),
    (["analyze", "catalog://nets/L2"], expect(net_class="1b", jordan=True)),
    *((["limit", f"catalog://degen/{family}"], expect(net_class=family.split("-")[1]))
      for family in DEGENERATIONS),
    (["chow", "--generic-n3"], expect(det_degree=12, det_terms=22659)),
    (["analyze", "catalog://copencil/L1"], expect(jordan=True, net_class="CLASS_L1")),
    (["analyze", "catalog://copencil/L2"], expect(jordan=True, net_class="CLASS_L2")),
    (["analyze", "catalog://dim4/L1"], expect(jordan=True, closure_dim=4)),
    (["analyze", "catalog://dim4/L2"], expect(jordan=True, closure_dim=4)),
    (["analyze", "catalog://dim4/L2flip"], expect(jordan=False, reciprocal_ok=False)),
    (["analyze", "catalog://netrank8"], expect(jordan=False, closure_dim=10)),
    (["analyze", "catalog://nets/L3"], expect(jordan=False, closure_dim=10)),
    (["analyze", "catalog://s5/Lstar"], expect(jordan=True, closure_dim=3)),
    (["chow", "catalog://netrank8"], expect(rank=8, kernel_forms=NETRANK8_FORMS)),
    (["chow", "catalog://nets/L3"], expect(rank=10, kernel_forms=[])),
    (["plucker", "catalog://netrank8"], expect(coordinates=120)),
    (["copencil", "catalog://copencil/L1"], expect(**{"class": "CLASS_L1"})),
    (["copencil", "catalog://copencil/L2"], expect(**{"class": "CLASS_L2"})),
)


def build_cold(seed: int, workdir: Path, root: Path) -> List[Op]:
    return [Op(argv + ["--json"], check) for argv, check in COLD_COMMANDS]


def prepare_cold(root: Path) -> None:
    """Fill the cache directory ($JORDANET_CACHE_DIR) the way a returning
    user's first ``chow --generic-n3`` would."""
    import_cli(root)
    from jordanet.chow import chow_det_generic

    chow_det_generic(3)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("classify_images", build_classify, prepare_classify, pass_seconds=7.0),
    Workload("closure_random", build_closure, import_cli, pass_seconds=30.0, min_passes=1),
    Workload("certificates", build_certificates, prepare_certificates, pass_seconds=5.0),
    Workload("cli_cold", build_cold, prepare_cold, pass_seconds=30.0, min_passes=1, cold=True),
)}
