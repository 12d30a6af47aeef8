"""Command-line front end.

    jordanet analyze  <file|catalog://id> [--json]
    jordanet chow     <file|catalog://id> [--rank] [--kernel] [--det-stats]
    jordanet chow     --generic-n3 [--det-stats]
    jordanet pencil   <file|catalog://id>
    jordanet copencil <file|catalog://id>
    jordanet plucker  <file|catalog://id>
    jordanet limit    <file|catalog://id>
    jordanet emptiness <polyfile> [--degree D]
    jordanet verify   [--subset NAME] [--seed N] [--json]
    jordanet catalog

Space files use the JSON schema documented in the README; ``catalog://<id>``
resolves to a built-in reference space.  ``--json`` prints a byte-stable
report, no timing, written in one walk (``_write_json``): one-space indent,
sorted keys, ASCII escapes, the bytes ``json.tool --indent 1 --sort-keys``
reprints.  Exit codes are 0 success, 1 verification failure, 2 parse
error, 3 precondition violation (a result with a number past Python's
4300-digit conversion limit, a refused TOO_LARGE computation and running
out of memory among them), 4 internal error (a failed self-check or any
other exception, as one ``error: INTERNAL`` line).  A stdout closed by its reader exits 3 with one ``error:
OUTPUT_CLOSED`` line.  A report is rendered whole before its first line is
printed, so an error leaves stdout empty.  ``analyze`` reads reciprocity
and the closure off the one Jordan test (see ``cmd_analyze``).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction
from typing import Union

from .errors import InputError, InternalCheckError, PreconditionError
from .io import load_space_file, read_text_file
from .jordan import is_jordan, jordan_closure, radical, structure_constants
from .linalg import Mat, det as linalg_det, frac_str
from .spaces import MatSpace, ParametricBasis, grassmann_limit, is_regular, plucker, unit_point


def _resolve_space(token: str, kind: type) -> Union[MatSpace, ParametricBasis]:
    """The space or family a file path or ``catalog://<id>`` names; raises a
    precondition error unless it is a ``kind`` (MatSpace or ParametricBasis)."""
    if token.startswith("catalog://"):
        from .catalog import canonical
        got = canonical(token[len("catalog://"):])
    else:
        got = load_space_file(token)
    if not isinstance(got, kind):
        if kind is MatSpace:
            raise PreconditionError("UNSUPPORTED_DIM",
                                    "expected a plain space; use 'limit' for a parametric family")
        raise PreconditionError("NOT_GENERIC_RANK", "limit expects a parametric family")
    return got


_quote = json.encoder.encode_basestring_ascii

#: the JSON text of a scalar by its exact type; any other value that is not a
#: container goes through ``json.dumps`` (a float, a subclass)
_SCALARS = {str: _quote, int: int.__repr__, bool: lambda v: "true" if v else "false",
            type(None): lambda v: "null", Fraction: lambda v: _quote(frac_str(v))}


def _plain(v):
    """``json.dumps``'s default: a Fraction as its ``frac_str``, a ``Mat`` as its rows."""
    return frac_str(v) if isinstance(v, Fraction) else v.data


def _write_json(v, out: list, pad: str) -> None:
    """Append the ``--json`` text of the container v (a dict, list, tuple or
    ``Mat``) at indent ``pad`` to out, in one walk: the bytes that
    ``json.dumps(v, sort_keys=True, indent=1)`` gives once each key is its
    str(), a Fraction its ``frac_str`` and a ``Mat`` its rows."""
    if isinstance(v, dict):
        keyed = {str(k): x for k, x in v.items()}
        items, ends = [(_quote(k) + ": ", keyed[k]) for k in sorted(keyed)], "{}"
    else:
        items, ends = [("", x) for x in (v.data if isinstance(v, Mat) else v)], "[]"
    if not items:
        out.append(ends)
        return
    inner = pad + " "
    sep = ends[0] + "\n" + inner
    for key, x in items:
        write = _SCALARS.get(type(x))
        if write is not None:
            out.append(sep + key + write(x))
        elif isinstance(x, (dict, list, tuple, Mat)):
            out.append(sep + key)
            _write_json(x, out, inner)
        else:
            out.append(sep + key + json.dumps(x, default=_plain))
        sep = ",\n" + inner
    out.append("\n" + pad + ends[1])


def _text_line(key, v) -> str:
    """A text-mode field: a container as compact JSON, a Fraction as its ``frac_str``."""
    if isinstance(v, (dict, list, tuple, Mat)):
        return f"{key}: {json.dumps(v, default=_plain)}"
    return f"{key}: {frac_str(v) if isinstance(v, Fraction) else v}"


def _emit(report: dict, as_json: bool) -> None:
    """Print the report, rendered whole first so that an error prints nothing:
    with ``as_json`` the one-walk JSON text of ``_write_json``, else a
    ``key: value`` line (``_text_line``) per field but ``command``."""
    if as_json:
        out = []
        _write_json(report, out, "")
        text = "".join(out)
    else:
        text = "\n".join(_text_line(key, v) for key, v in report.items() if key != "command")
    print(text)


def cmd_analyze(args) -> int:
    """Regularity; for the first invertible sweep point U the Jordan test;
    for a Jordan space its radical and class.

    ``reciprocal_ok`` is ``jordan``: U X^-1 U lies in L for every invertible
    X in L exactly when L is closed.  Closed => reciprocal: X -> U^-1 X
    embeds L in the special Jordan algebra (AB + BA) / 2 with I in the
    image, and (U^-1 X)^-1 is a polynomial in U^-1 X (Cayley-Hamilton).
    Reciprocal => closed: U (U + eps Y)^-1 U mod L vanishes for all but at
    most n values of eps, so identically; its eps^2 coefficient is Y * Y,
    and polarizing gives X * Y.  A closed space is its own closure, so only
    a space that is not closed runs ``jordan_closure``.
    """
    space = _resolve_space(args.space, MatSpace)
    report = {
        "command": "analyze",
        "input": args.space,
        "n": space.n,
        "m": space.m,
        "regular": is_regular(space),
    }
    if not report["regular"]:
        report.update({"jordan": None, "closure_dim": None, "radical_dim": None,
                       "abstract_class": None, "reciprocal_ok": None, "witness": None,
                       "net_class": None})
        return _done(report, args)
    report["unit_coordinates"] = list(unit_point(space).coords)
    ok, witness = is_jordan(space)  # the unit found above, with its coordinates
    report["jordan"] = ok
    report["witness"] = None
    if witness is not None:
        report["witness"] = {"i": witness.i, "j": witness.j, "residue": witness.residue}
    report["closure_dim"] = space.m if ok else jordan_closure(space).rank
    report["reciprocal_ok"] = ok
    report["radical_dim"] = None
    report["abstract_class"] = None
    report["net_class"] = None
    if ok:
        from .classify import (classify_abstract, classify_copencil_S3, classify_net_S4,
                               classify_pencil)
        a = structure_constants(space)
        report["radical_dim"] = len(radical(a))
        if space.m in (2, 3):
            report["abstract_class"] = classify_abstract(a)
        try:
            if space.n == 4 and space.m == 3:
                report["net_class"] = classify_net_S4(space)
            elif space.m == 2:
                report["net_class"] = classify_pencil(space).label
            elif space.n == 3 and space.m == 4:
                report["net_class"] = classify_copencil_S3(space)
        except PreconditionError as err:
            if err.code != "UNRECOGNIZED":
                raise
            report["net_class"] = "UNRECOGNIZED"
    return _done(report, args)


def cmd_chow(args) -> int:
    from .chow import chow_det_generic, chow_kernel_forms, chow_matrix, chow_rank
    if args.generic_n3 and args.space is not None:
        raise InputError("PARSE_ERROR", "--generic-n3 takes no space")
    report = {"command": "chow", "input": args.space or "generic-n3"}
    if args.space is None:
        if args.rank or args.kernel or not (args.generic_n3 or args.det_stats):
            raise InputError("PARSE_ERROR", "chow needs a space, or only --generic-n3 or --det-stats")
        det = chow_det_generic(3)
        report["det_degree"] = int(det.total_degree())
        report["det_terms"] = det.term_count()
        return _done(report, args)
    space = _resolve_space(args.space, MatSpace)
    wants_all = not (args.rank or args.kernel or args.det_stats)
    if args.rank or wants_all:
        report["rank"] = chow_rank(space)
    if args.kernel or wants_all:
        report["kernel_forms"] = [str(f) for f in chow_kernel_forms(space)]
    if args.det_stats:
        if space.n != 3 or space.m != 3:
            raise PreconditionError("UNSUPPORTED_DIM", "--det-stats applies to nets of 3x3 matrices")
        rows, den = chow_matrix(space)
        report["det_value"] = linalg_det(Mat([[Fraction(x, den) for x in row] for row in rows]))
    return _done(report, args)


def cmd_pencil(args) -> int:
    from .classify import classify_pencil
    got = classify_pencil(_resolve_space(args.space, MatSpace))
    return _done({"command": "pencil", "input": args.space,
                  "kind": got.kind, "label": got.label}, args)


def cmd_copencil(args) -> int:
    from .classify import classify_copencil_S3
    space = _resolve_space(args.space, MatSpace)
    return _done({"command": "copencil", "input": args.space,
                  "class": classify_copencil_S3(space)}, args)


def cmd_plucker(args) -> int:
    from .varieties import CATALOGS, catalog_eval
    space = _resolve_space(args.space, MatSpace)
    pv = plucker(space)
    nonzero = {"".join(str(i) for i in key): value for key, value in sorted(pv.nonzero().items())}
    report = {"command": "plucker", "input": args.space, "coordinates": len(pv.values),
              "nonzero": nonzero}
    if space.n == 4 and space.m == 3:
        quadrics = {cid: catalog_eval(cid, pv)[0] for cid in CATALOGS if cid.startswith("plucker")}
        report["certificate_values"] = quadrics
    return _done(report, args)


def cmd_limit(args) -> int:
    from .classify import classify_net_S4
    lim = grassmann_limit(_resolve_space(args.space, ParametricBasis))
    report = {"command": "limit", "input": args.space, "n": lim.n, "m": lim.m,
              "basis": [b for b in lim.basis]}
    try:
        if lim.n == 4 and lim.m == 3:
            report["net_class"] = classify_net_S4(lim)
    except PreconditionError:
        report["net_class"] = None
    return _done(report, args)


def cmd_emptiness(args) -> int:
    from .exact import integer_poly, parse_poly_lines
    from .varieties import macaulay_emptiness
    polys = [p for p, _ in parse_poly_lines(read_text_file(args.polyfile), integer_poly)]
    if not polys:
        raise InputError("PARSE_ERROR", "no polynomials in the input file")
    cert = macaulay_emptiness(polys, args.degree)
    return _done({"command": "emptiness", "input": args.polyfile, "degree": args.degree,
                  "kind": cert.kind, "span_rank": cert.span_rank,
                  "span_target": cert.span_target}, args)


def cmd_verify(args) -> int:
    from .verify import run_verification  # the suite's imports are paid by verify alone

    t0 = time.time()
    results = run_verification(args.subset, seed=args.seed)
    failures = [r for r in results if not r.ok]
    if args.json:
        report = {
            "command": "verify",
            "subset": args.subset or "all",
            "seed": args.seed,
            "passed": len(results) - len(failures),
            "failed": len(failures),
            "checks": [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results],
        }
        _emit(report, True)
    else:
        for r in results:
            status = "PASS" if r.ok else "FAIL"
            suffix = f"  [{r.detail}]" if (r.detail and not r.ok) else ""
            print(f"{status}  {r.name}{suffix}")
        print(f"{len(results) - len(failures)}/{len(results)} checks passed "
              f"({time.time() - t0:.1f}s)")
    return 1 if failures else 0


def cmd_catalog(args) -> int:
    from .catalog import catalog_ids, catalog_note
    report = {"command": "catalog",
              "entries": {cid: catalog_note(cid) for cid in catalog_ids()}}
    return _done(report, args)


def _done(report: dict, args) -> int:
    _emit(report, getattr(args, "json", False))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process: building one costs
    about as much as a small ``analyze``."""
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        # looked up per call: the one cached parser (``build_parser``) holds no functions
        code = globals()[f"cmd_{args.cmd}"](args)
        if not getattr(args, "json", False) and args.cmd != "verify":
            print(f"elapsed: {time.time() - t0:.2f}s")
        sys.stdout.flush()  # a closed stdout fails here, not at exit
    except BrokenPipeError:  # the reader left; send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: OUTPUT_CLOSED: stdout was closed before the output was written",
              file=sys.stderr)
        return 3
    except (InputError, PreconditionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2 if isinstance(err, InputError) else 3
    except MemoryError:  # a resource limit, like TOO_LARGE, not a bug
        print("error: TOO_LARGE: out of memory", file=sys.stderr)
        return 3
    except Exception as err:  # InternalCheckError or a bug: one line, no traceback
        if not isinstance(err, InternalCheckError):
            err = f"INTERNAL: {type(err).__name__}: {err}"
        print(f"error: {err}", file=sys.stderr)
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
