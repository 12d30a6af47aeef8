"""Command-line front end for the commands of ``_SYNOPSIS``, which ``-h``
prints and usage errors quote (a constant: ``python -OO`` strips docstrings).

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

import json
import os
import re
import sys
import time
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional, Sequence, Union

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


def _emit(report: dict, as_json: bool) -> int:
    """Print the report, rendered whole first so that an error prints nothing:
    with ``as_json`` the one-walk JSON text of ``_write_json``, else a
    ``key: value`` line (``_text_line``) per field but ``command``; returns 0."""
    if as_json:
        out = []
        _write_json(report, out, "")
        text = "".join(out)
    else:
        text = "\n".join(_text_line(key, v) for key, v in report.items() if key != "command")
    print(text)
    return 0


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
        return _emit(report, args.json)
    report["unit_coordinates"] = list(unit_point(space).coords)
    ok, witness = is_jordan(space)  # the unit found above, with its coordinates
    report.update(jordan=ok, witness=witness and {"i": witness.i, "j": witness.j,
                                                  "residue": witness.residue},
                  closure_dim=space.m if ok else jordan_closure(space).rank, reciprocal_ok=ok,
                  radical_dim=None, abstract_class=None, net_class=None)
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
    return _emit(report, args.json)


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
        return _emit(report, args.json)
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
        report["det_value"] = linalg_det(Mat(rows)) / den ** len(rows)
    return _emit(report, args.json)


def cmd_pencil(args) -> int:
    from .classify import classify_pencil
    got = classify_pencil(_resolve_space(args.space, MatSpace))
    return _emit({"command": "pencil", "input": args.space,
                  "kind": got.kind, "label": got.label}, args.json)


def cmd_copencil(args) -> int:
    from .classify import classify_copencil_S3
    space = _resolve_space(args.space, MatSpace)
    return _emit({"command": "copencil", "input": args.space,
                  "class": classify_copencil_S3(space)}, args.json)


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
    return _emit(report, args.json)


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
    return _emit(report, args.json)


def cmd_emptiness(args) -> int:
    from .exact import integer_poly, parse_poly_lines
    from .varieties import macaulay_emptiness
    polys = [p for p, _ in parse_poly_lines(read_text_file(args.polyfile), integer_poly)]
    if not polys:
        raise InputError("PARSE_ERROR", "no polynomials in the input file")
    cert = macaulay_emptiness(polys, args.degree)
    return _emit({"command": "emptiness", "input": args.polyfile, "degree": args.degree,
                  "kind": cert.kind, "span_rank": cert.span_rank,
                  "span_target": cert.span_target}, args.json)


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
    return _emit(report, args.json)


_SYNOPSIS = """\
    jordanet analyze   <file|catalog://id> [--json]
    jordanet chow      <file|catalog://id> [--rank] [--kernel] [--det-stats] [--json]
    jordanet chow      [--generic-n3] [--det-stats] [--json]
    jordanet pencil    <file|catalog://id> [--json]
    jordanet copencil  <file|catalog://id> [--json]
    jordanet plucker   <file|catalog://id> [--json]
    jordanet limit     <file|catalog://id> [--json]
    jordanet emptiness <polyfile> [--degree D] [--json]
    jordanet verify    [--subset NAME] [--seed N] [--json]
    jordanet catalog   [--json]
    (NAME: intro, jordan, chow, chow-oracle, classify, tau, pencil, complement, plucker, count)"""
_JSON = {"--json": (bool, False)}
#: each command's positional (None for none), whether it is required, and its long
#: options as (type, default): a bool is a flag, an int or str option reads one value
COMMANDS = {
    "chow": ("space", False, dict.fromkeys(
        ("--json", "--rank", "--kernel", "--det-stats", "--generic-n3"), (bool, False))),
    "emptiness": ("polyfile", True, {"--degree": (int, 4), **_JSON}),
    "verify": (None, False, {"--subset": (str, None), "--seed": (int, 0), **_JSON}),
    "catalog": (None, False, _JSON),
    **dict.fromkeys(("analyze", "pencil", "copencil", "plucker", "limit"), ("space", True, _JSON))}
_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")  # a value, not an option


def read_argv(argv: Sequence[str]) -> SimpleNamespace:
    """The attributes the ``cmd_*`` functions read, from one pass over argv that
    accepts what the standard library's parser did, with the same meaning: unknown
    options and extra values fail at the end, ``-h`` once the options after it are read."""
    cmd, positional, required, options, names = None, "cmd", True, {}, ("-h", "--help")
    given, extra, pending, i, cut = {}, [], True, 0, [*argv, "--"].index("--")  # values after cut

    def fail(msg: str):
        lines = [" ".join(ln.split()) for ln in _SYNOPSIS.splitlines() if cmd in ln.split()[1:2]]
        usage = "\n       ".join(lines or ["jordanet {" + ",".join(sorted(COMMANDS)) + "} ..."])
        print(f"usage: {usage}\njordanet{' ' + cmd if cmd else ''}: error: {msg}", file=sys.stderr)
        raise SystemExit(2)

    def option(tok: str) -> Optional[tuple]:  # None, (option, "=" value or None), or (None, None)
        name, eq, value = tok.partition("=")
        if tok[:2] == "--":
            found = [o for o in names if o == name] or [o for o in names if o.startswith(name)]
            if len(found) > 1:
                fail(f"ambiguous option: {tok} could match {', '.join(found)}")
            if found:
                return found[0], value if eq else None
        elif tok[:2] == "-h":  # -h=x or -hx is -h given x, but -hh.. is -h
            rest = (value if eq else None) if name == "-h" else tok[2:]
            return "-h", None if rest and not rest.strip("h") else rest
        if tok[:1] == "-" and tok != "-" and not _NUMBER.match(tok) and " " not in tok:
            return None, None  # an option no command has

    while i < len(argv):
        tok, i = argv[i], i + 1
        got = None if i > cut else option(tok)
        if i - 1 == cut and cmd and pending:  # a -- before the positional is dropped
            continue
        if got is None and cmd is None:
            cmd, (positional, required, options) = tok, COMMANDS.get(tok) or fail(f"no command {tok!r}")
            names, pending = ("-h", "--help", *options), positional is not None
        elif got is None and pending:
            given[positional], pending = tok, False
            i += i == cut  # a -- right after the positional is dropped too
        elif got is None or got[0] is None:
            extra.append(tok)
        else:  # -h and --help are flags that print the synopsis
            (name, value), kind = got, options.get(got[0], (bool,))[0]
            if kind is not bool and value is None and i < cut and option(argv[i]) is None:
                value, i = argv[i], i + 1
            if (kind is bool) != (value is None):
                fail(f"argument {name}: " + ("expected one argument" if value is None
                                             else f"ignored explicit argument {value!r}"))
            if name in ("-h", "--help"):
                list(map(option, argv[i:cut]))  # an ambiguous option after it fails first
                print(f"usage:\n{_SYNOPSIS}")
                raise SystemExit(0)
            try:
                given[name] = True if kind is bool else kind(value)
            except ValueError:
                fail(f"argument {name}: invalid {kind.__name__} value: {value!r}")
    if pending and required or extra:
        fail(f"the following arguments are required: {positional}" if pending and required
             else f"unrecognized arguments: {' '.join(extra)}")
    values = {o[2:].replace("-", "_"): given.get(o, d) for o, (_, d) in options.items()}
    return SimpleNamespace(cmd=cmd, **values, **{p: given.get(p) for p in [positional] if p})


def main(argv=None) -> int:
    args = read_argv(sys.argv[1:] if argv is None else argv)
    t0 = time.time()
    try:
        # looked up per call, so that a replaced ``cmd_*`` function is the one run
        code = globals()[f"cmd_{args.cmd}"](args)
        if not args.json and args.cmd != "verify":
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
