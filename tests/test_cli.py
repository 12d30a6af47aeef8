import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import jordanet
from jordanet import chow, classify, cli, exact, jordan, linalg, varieties
from jordanet.cli import main
from jordanet.errors import InputError, InternalCheckError, PreconditionError
from jordanet.io import load_space_file, parse_space_data
from jordanet.linalg import Mat, frac_str
from jordanet.prng import SplitMix64
from jordanet.spaces import MatSpace
from oracles import (argv_outcome, build_parser, emit_by_json_dumps, parse_outcome,
                     parse_poly_by_tokens, unit_mat)

GOLDENS = json.loads((Path(__file__).parent / "data" / "cli_goldens.json").read_text())


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_catalog_jordan_net(self, capsys):
        code, out, _ = run_cli(["analyze", "catalog://s4/1a", "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["jordan"] is True
        assert report["net_class"] == "1a"
        assert report["closure_dim"] == 3

    def test_sign_flip_witness(self, capsys):
        code, out, _ = run_cli(["analyze", "catalog://dim4/L2flip", "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["jordan"] is False
        assert report["witness"] is not None
        assert report["reciprocal_ok"] is False

    def test_closure_dimension_of_rank8_net(self, capsys):
        code, out, _ = run_cli(["analyze", "catalog://netrank8", "--json"], capsys)
        report = json.loads(out)
        assert report["closure_dim"] == 10

    def test_file_input(self, tmp_path, capsys):
        f = tmp_path / "space.json"
        f.write_text(json.dumps({
            "n": 2,
            "basis": [[[1, 0], [0, 1]], [["1", "1/2"], ["1/2", "0"]]],
        }))
        code, out, _ = run_cli(["analyze", str(f), "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["m"] == 2

    def test_parse_error_exit_code(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        code, _, err = run_cli(["analyze", str(f)], capsys)
        assert code == 2
        assert "PARSE_ERROR" in err

    def test_non_regular_is_reported_not_fatal(self, tmp_path, capsys):
        f = tmp_path / "singular.json"
        f.write_text(json.dumps({"n": 2, "basis": [[[1, 0], [0, 0]]]}))
        code, out, _ = run_cli(["analyze", str(f), "--json"], capsys)
        assert code == 0
        assert json.loads(out)["regular"] is False

    def test_precondition_exit_code(self, tmp_path, capsys):
        f = tmp_path / "singular.json"
        f.write_text(json.dumps({"n": 2, "basis": [[[1, 0], [0, 0]]]}))
        code, _, err = run_cli(["chow", str(f), "--rank"], capsys)
        assert code == 3
        assert "NOT_REGULAR" in err

    @pytest.mark.parametrize("basis, code_name", [
        ([[[1, 0], [0, 1]], [[2, 0], [0, 2]]], "DEPENDENT_BASIS"),
        ([[[1, 1], [0, 1]]], "NOT_SYMMETRIC"),
    ])
    def test_invalid_basis_exit_code(self, basis, code_name, tmp_path, capsys):
        f = tmp_path / "space.json"
        f.write_text(json.dumps({"n": 2, "basis": basis}))
        code, out, err = run_cli(["analyze", str(f), "--json"], capsys)
        assert code == 3 and out == ""
        assert err.startswith(f"error: {code_name}")


#: a net in S^3 whose Chow matrix is regular
CHOW_NET = {"n": 3, "basis": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                              [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
                              [[0, 0, 0], [0, 0, 1], [0, 1, 2]]]}


class TestChow:
    def test_rank_and_kernel(self, capsys):
        code, out, _ = run_cli(["chow", "catalog://netrank8", "--rank", "--kernel", "--json"], capsys)
        report = json.loads(out)
        assert report["rank"] == 8
        assert report["kernel_forms"] == ["2*z12 - z13 - z24", "z14 - z23 - z33 + z44"]

    def test_veronese_rank(self, capsys):
        code, out, _ = run_cli(["chow", "catalog://nets/L3", "--rank", "--json"], capsys)
        assert json.loads(out)["rank"] == 10

    def test_generic_stats(self, capsys):
        code, out, _ = run_cli(["chow", "--generic-n3", "--json"], capsys)
        report = json.loads(out)
        assert report["det_degree"] == 12
        assert report["det_terms"] == 22659

    def test_generic_stats_decode_no_term(self, monkeypatch, capsys):
        # the degree and the term count are read off the packed determinant,
        # and verify's evaluations sum its packed keys: none of its terms is formed
        decoded = []
        terms = exact.Packing.terms
        monkeypatch.setattr(exact.Packing, "terms",
                            lambda self, p, *args: decoded.append(len(p)) or terms(self, p, *args))
        chow.chow_det_generic.cache_clear()
        want = ('{\n "command": "chow",\n "det_degree": 12,\n "det_terms": 22659,\n'
                ' "input": "generic-n3"\n}\n')
        for flag in ("--generic-n3", "--det-stats"):
            assert run_cli(["chow", flag, "--json"], capsys) == (0, want, "")
        assert decoded == []
        code, out, _ = run_cli(["verify", "--subset", "chow", "--json"], capsys)
        assert code == 0 and json.loads(out)["failed"] == 0
        assert 22659 not in decoded

    @pytest.mark.parametrize("args", [["catalog://netrank8", "--generic-n3"],
                                      ["--generic-n3", "--rank"], ["--generic-n3", "--kernel"],
                                      ["--det-stats", "--rank"], ["--det-stats", "--kernel"]])
    def test_generic_n3_takes_no_space_rank_or_kernel(self, args, capsys):
        code, out, err = run_cli(["chow", *args, "--json"], capsys)
        assert code == 2
        assert "PARSE_ERROR" in err and out == ""

    @pytest.mark.parametrize("flags", [[], ["--rank", "--kernel", "--det-stats"]])
    def test_one_adjugate_per_command(self, flags, tmp_path, monkeypatch, capsys):
        # the adjugate of the generic element is one Faddeev-LeVerrier run on its
        # upper triangles, shared by the rank, the kernel forms and --det-stats
        calls = []
        adjugate = chow.symmetric_linear_adjugate
        monkeypatch.setattr(chow, "symmetric_linear_adjugate",
                            lambda mats: calls.append(1) or adjugate(mats))
        f = tmp_path / "net.json"
        f.write_text(json.dumps(CHOW_NET))
        code, out, _ = run_cli(["chow", str(f), "--json", *flags], capsys)
        assert code == 0 and len(calls) == 1

    def test_rank_and_kernel_form_no_fraction_matrix(self, tmp_path, monkeypatch, capsys):
        # the integer Chow matrix goes to the echelon as it is, and the kernel
        # forms are its primitive integer kernel as it is: no Mat is built and
        # no vector is cleared of denominators after ``integer_kernel`` is read,
        # once per space, on an integer and a rational basis
        made = []
        init, kernel, clear = linalg.Mat.__init__, linalg.Echelon.integer_kernel, linalg.integer_vector
        monkeypatch.setattr(linalg.Mat, "__init__",
                            lambda self, data: made.append("Mat") or init(self, data))
        monkeypatch.setattr(linalg.Echelon, "integer_kernel",
                            lambda self: made.append("integer_kernel") or kernel(self))
        monkeypatch.setattr(linalg, "integer_vector",
                            lambda v: made.append("integer_vector") or clear(v))
        rank8 = [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                 [["1/2", 0, 0, 0], [0, "-1/2", 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
                 [[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]]]
        for data, rank, forms in ((CHOW_NET, 6, []),
                                  ({"n": 4, "basis": rank8}, 8,
                                   ["2*z12 - z13 - z24", "z14 - z23 - z33 + z44"])):
            f = tmp_path / "space.json"
            f.write_text(json.dumps(data))
            code, out, _ = run_cli(["chow", str(f), "--json"], capsys)
            report = json.loads(out)
            assert code == 0 and (report["rank"], report["kernel_forms"]) == (rank, forms)
            assert made.pop() == "integer_kernel"
        assert "Mat" not in made and "integer_kernel" not in made

    def test_det_value_is_the_generic_chow_form_at_the_net(self, tmp_path, capsys):
        # the determinant of the net's Chow matrix against the symbolic n = 3
        # Chow determinant evaluated at the basis entries
        rng = SplitMix64(333)
        nets = [CHOW_NET, {"n": 3, "basis": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                             [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
                                             [[0, 0, 1], [0, 0, 0], [1, 0, 0]]]}]
        while len(nets) < 6:
            basis = []
            for _ in range(3):
                m = [[0] * 3 for _ in range(3)]
                for i in range(3):
                    for j in range(i, 3):
                        m[i][j] = m[j][i] = rng.int_between(-3, 3)
                basis.append(m)
            try:
                parse_space_data({"n": 3, "basis": basis})
            except PreconditionError:
                continue
            nets.append({"n": 3, "basis": basis})
        values = []
        for k, net in enumerate(nets):
            f = tmp_path / f"net{k}.json"
            f.write_text(json.dumps(net))
            code, out, _ = run_cli(["chow", str(f), "--det-stats", "--json"], capsys)
            assert code == 0
            values.append(json.loads(out)["det_value"])
            assert values[-1] == frac_str(chow.chow_det_eval_at_net(load_space_file(str(f))))
        assert values[1] == "-1" and sum(v != "0" for v in values) >= 4


class TestOtherCommands:
    def test_pencil(self, tmp_path, capsys):
        f = tmp_path / "pencil.json"
        f.write_text(json.dumps({
            "n": 3,
            "basis": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[2, 0, 0], [0, -1, 0], [0, 0, -1]]],
        }))
        code, out, _ = run_cli(["pencil", str(f), "--json"], capsys)
        assert json.loads(out)["label"] == "V1"

    def test_copencil(self, capsys):
        code, out, _ = run_cli(["copencil", "catalog://copencil/L2", "--json"], capsys)
        assert json.loads(out)["class"] == "CLASS_L2"

    def test_plucker(self, capsys):
        code, out, _ = run_cli(["plucker", "catalog://s4/1b", "--json"], capsys)
        report = json.loads(out)
        assert report["coordinates"] == 120
        assert report["certificate_values"]["plucker_spin_orbit_quadric"] == "0"

    def test_limit(self, tmp_path, capsys):
        f = tmp_path / "family.json"
        f.write_text(json.dumps({
            "n": 4,
            "parametric": True,
            "basis": [
                [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                 ["0", "0", "0", "0"], ["0", "0", "0", "0"]],
                [["0", "0", "0", "0"], ["0", "0", "0", "0"],
                 ["0", "0", "1", "0"], ["0", "0", "0", "0"]],
                [["0", "0", "0", "0"], ["0", "0", "0", "0"],
                 ["0", "0", "1", "t"], ["0", "0", "t", "t^2"]],
            ],
        }))
        code, out, _ = run_cli(["limit", str(f), "--json"], capsys)
        report = json.loads(out)
        assert code == 0
        assert report["net_class"] == "2a1"

    def test_emptiness(self, tmp_path, capsys):
        f = tmp_path / "system.txt"
        f.write_text("x^2\ny^2\n")
        code, out, _ = run_cli(["emptiness", str(f), "--degree", "3", "--json"], capsys)
        assert json.loads(out)["kind"] == "CERTIFIED_EMPTY"
        code, out, _ = run_cli(["emptiness", str(f), "--degree", "2", "--json"], capsys)
        assert json.loads(out)["kind"] == "UNKNOWN"

    def test_catalog_listing(self, capsys):
        code, out, _ = run_cli(["catalog", "--json"], capsys)
        entries = json.loads(out)["entries"]
        assert "s4/1a" in entries and "degen/3b1-3b2" in entries


class TestVerifyCommand:
    def test_subset_runs_clean(self, capsys):
        code, out, _ = run_cli(["verify", "--subset", "count"], capsys)
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_subset_json(self, capsys):
        code, out, _ = run_cli(["verify", "--subset", "intro", "--json"], capsys)
        report = json.loads(out)
        assert code == 0
        assert report["failed"] == 0

    def test_unknown_subset(self, capsys):
        # an unknown name is a parse error, as for an unknown catalog id
        code, _, err = run_cli(["verify", "--subset", "nope"], capsys)
        assert code == 2 and err.startswith("error: UNKNOWN_ID")


class TestDeterminism:
    def test_json_reports_are_byte_identical(self, capsys):
        _, out1, _ = run_cli(["analyze", "catalog://s4/2b", "--json"], capsys)
        _, out2, _ = run_cli(["analyze", "catalog://s4/2b", "--json"], capsys)
        assert out1 == out2
        _, out1, _ = run_cli(["verify", "--subset", "tau", "--seed", "1", "--json"], capsys)
        _, out2, _ = run_cli(["verify", "--subset", "tau", "--seed", "1", "--json"], capsys)
        assert out1 == out2


class TestGoldens:
    """analyze, chow and plucker --json on every plain catalog id, limit
    --json on every degen/* family, copencil --json on the two copencils,
    chow --generic-n3 --json, and analyze --json on seeded random spaces
    (stored with their case under "space": n = 3..5, proper and full
    closures, a singular space, and a regular one whose first invertible
    sweep point lies past the witness budget) and chow --det-stats --json on
    a seeded net in S^3, byte for byte as recorded in
    tests/data/cli_goldens.json."""

    @pytest.mark.parametrize("case", GOLDENS, ids=[" ".join(c["argv"][:2]) for c in GOLDENS])
    def test_output_is_unchanged(self, case, capsys, tmp_path, monkeypatch):
        if "space" in case:
            monkeypatch.chdir(tmp_path)
            Path(case["argv"][1]).write_text(json.dumps(case["space"]))
        code, out, _ = run_cli(case["argv"], capsys)
        assert code == 0
        assert out == case["stdout"]

    def test_covers_the_catalog(self):
        # each command on every catalog id it accepts: the plain spaces for
        # analyze, chow and plucker, the families for limit, and the two
        # copencils for copencil
        from jordanet.catalog import canonical, catalog_ids

        covered = {}
        for c in GOLDENS:
            if c["argv"][1].startswith("catalog://"):
                covered.setdefault(c["argv"][0], set()).add(c["argv"][1][len("catalog://"):])
        plain = {cid for cid in catalog_ids() if isinstance(canonical(cid), MatSpace)}
        assert len(plain) == 18
        assert covered == {"analyze": plain, "chow": plain, "plucker": plain,
                           "limit": set(catalog_ids()) - plain,
                           "copencil": {"copencil/L1", "copencil/L2"}}
        assert {" ".join(c["argv"]) for c in GOLDENS if c["argv"][0] == "chow"
                and not c["argv"][1].startswith("catalog://")} == {
            "chow --generic-n3 --json", "chow random_n3_net.json --det-stats --json"}


class TestOneWalkWriter:
    """The report writer against the old render-then-``json.dumps`` route
    (``oracles.emit_by_json_dumps``), stdout byte for byte in both modes."""

    CRAFTED = [
        {"command": "crafted", "fraction": Fraction(-7, 3), "whole": Fraction(12),
         "mat": Mat([[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(-5)]]),
         "tuple": (1, Fraction(3, 4), "x", (None,), Mat([])),
         "empty": [[], {}, [[]], [{}], {"a": [], "b": {}}, ()],
         "text": ["caf\u00e9", "\u2603 \U0001f600", "\x00\x01\x1f\x7f", "tab\tnew\nline \"q\" \\"],
         "flags": [True, False, None], "floats": [1.5, -0.0, 1e300, 0.1, float("inf")],
         "big": [2 ** 64 + 1, -(2 ** 100), Fraction(2 ** 70, 3)],
         "nested": {"b": {"z": 1, "a": [Fraction(1, 2)]}, "a": 2, "B": 3, "10": 4, "9": 5},
         "int_keys": {10: "ten", 9: "nine"}, "\u00e9 key": 1, 7: "int key", (1, 2): "tuple key"},
        {"command": "only"},
        {"scalars": [1, "1", Fraction(1), True, 1.0, None], "flag": False, "none": None},
        {},
    ]

    @staticmethod
    def oracle(report, as_json, capsys):
        emit_by_json_dumps(report, as_json)
        return capsys.readouterr().out

    @pytest.mark.parametrize("as_json", [True, False], ids=["json", "plain"])
    @pytest.mark.parametrize("case", GOLDENS, ids=[" ".join(c["argv"][:2]) for c in GOLDENS])
    def test_golden_commands(self, case, as_json, capsys, tmp_path, monkeypatch):
        if "space" in case:
            monkeypatch.chdir(tmp_path)
            Path(case["argv"][1]).write_text(json.dumps(case["space"]))
        reports, emit = [], cli._emit
        monkeypatch.setattr(cli, "_emit", lambda report, j: reports.append(report) or emit(report, j))
        argv = [a for a in case["argv"] if a != "--json"] + (["--json"] if as_json else [])
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and len(reports) == 1
        want = self.oracle(reports[0], as_json, capsys)
        if as_json:
            assert out == want == case["stdout"]
        else:  # the text mode's last line is the elapsed time
            assert out[:len(want)] == want
            assert re.fullmatch(r"elapsed: \d+\.\d\ds\n", out[len(want):])

    @pytest.mark.parametrize("as_json", [True, False], ids=["json", "plain"])
    @pytest.mark.parametrize("report", CRAFTED, ids=["crafted", "command", "scalars", "empty"])
    def test_crafted_reports(self, report, as_json, capsys):
        cli._emit(report, as_json)
        got = capsys.readouterr().out
        assert got == self.oracle(report, as_json, capsys)
        if as_json:
            assert got.isascii()
            assert got == json.dumps(json.loads(got), sort_keys=True, indent=1) + "\n"

    @pytest.mark.parametrize("as_json", [True, False], ids=["json", "plain"])
    @pytest.mark.parametrize("value", [Fraction(10 ** 5000, 3),
                                       Mat([[Fraction(1), Fraction(-(10 ** 5000))]])],
                             ids=["fraction", "mat"])
    def test_a_rational_past_4300_digits_prints_nothing(self, value, as_json, capsys):
        with pytest.raises(PreconditionError) as err:
            cli._emit({"command": "crafted", "a": 1, "z": [value]}, as_json)
        assert err.value.code == "RESULT_TOO_LARGE"
        assert capsys.readouterr().out == ""


class TestCommandTable:
    def test_two_calls_read_one_table(self, monkeypatch, capsys):
        # the command table is built once, with the module; a call reads it and
        # builds no parser, and two calls of each command print the golden bytes
        import argparse

        built = []
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda parser, *args, **kwargs: built.append(args))
        table, entries = cli.COMMANDS, repr(cli.COMMANDS)
        first = {}  # the first golden of each command
        for case in GOLDENS:
            if "space" not in case:
                first.setdefault(case["argv"][0], case)
        assert len(first) > 1
        for _ in range(2):
            for case in first.values():
                code, out, _ = run_cli(case["argv"], capsys)
                assert (code, out) == (0, case["stdout"])
        assert built == [] and cli.COMMANDS is table and repr(cli.COMMANDS) == entries


class TestBuiltOncePerProcess:
    def test_two_calls_build_each_process_value_once(self, capsys):
        # each is a ``functools.cache`` function: the second run of each
        # command reads what the first built
        from jordanet import catalog, chow, varieties

        cached = (catalog.manifest, catalog.canonical, varieties.catalog_polynomials,
                  chow.chow_det_generic)
        for fn in cached:
            fn.cache_clear()
        table = cli.COMMANDS
        for _ in range(2):
            for argv in (["plucker", "catalog://s4/1a", "--json"],
                         ["chow", "--generic-n3", "--json"]):
                assert run_cli(argv, capsys)[0] == 0
        # one build per key: the space s4/1a, the four Pluecker quadric
        # catalogs and chow_det_generic(3); the command table is the module's
        assert [fn.cache_info().misses for fn in cached] == [1, 1, 4, 1]
        assert [fn.cache_info().currsize for fn in cached] == [1, 1, 4, 1]
        assert cli.COMMANDS is table

    def test_analyze_sweeps_for_the_unit_once(self, monkeypatch, capsys):
        # is_regular, unit_point, is_jordan and the classification all read
        # the one unit of the space
        from jordanet import catalog, spaces

        catalog.canonical.cache_clear()
        swept, sweep = [], spaces._sweep_for_unit
        monkeypatch.setattr(spaces, "_sweep_for_unit", lambda sp: swept.append(sp) or sweep(sp))
        code, out, _ = run_cli(["analyze", "catalog://s4/3b1", "--json"], capsys)
        assert code == 0 and json.loads(out)["net_class"] == "3b1"
        assert len(swept) == 1 and swept[0] is catalog.canonical("s4/3b1")


def child_env():
    """The environment with the directory holding the imported ``jordanet``
    first on PYTHONPATH, so a child process runs the package under test."""
    src = str(Path(jordanet.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH", "")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, rest) if p)}


def run_subprocess(args):
    return subprocess.run([sys.executable, "-m", "jordanet.cli"] + args,
                          capture_output=True, text=True, env=child_env())


class TestImports:
    def test_the_cli_does_not_import_dataclasses(self):
        # dataclasses and the inspect module it imports were a seventh of the
        # package's import time; the package's records are NamedTuples
        proc = subprocess.run(
            [sys.executable, "-c",
             "import jordanet.cli, sys; sys.exit('dataclasses' in sys.modules)"],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr

    def test_the_cli_does_not_import_argparse(self, tmp_path):
        # the command line is read off the table cli.COMMANDS: importing the
        # CLI and running analyze and emptiness on files load no argparse
        space, system = tmp_path / "space.json", tmp_path / "system.txt"
        space.write_text(json.dumps({"n": 2, "basis": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}))
        system.write_text("x*y\nx^2\ny^2\n")
        for code in ("import jordanet.cli",
                     self.main_code(["analyze", str(space), "--json"]),
                     self.main_code(["emptiness", str(system), "--degree", "2", "--json"])):
            proc = subprocess.run(
                [sys.executable, "-c", f"{code}\nimport sys; sys.exit('argparse' in sys.modules)"],
                capture_output=True, text=True, env=child_env())
            assert proc.returncode == 0, (code, proc.stderr)

    #: the layers a command imports only when it runs them: the polynomial
    #: layer, the squarefree decomposition, the span test mod p and the
    #: seeded generator among them
    DEFERRED = ("catalog", "chow", "classify", "exact", "modular", "prng", "univariate",
                "varieties", "verify")

    def deferred_loaded(self, code):
        """The layers of DEFERRED that a fresh process holds after ``code``."""
        probe = (f"import sys; print('loaded:', "
                 f"*[m for m in {self.DEFERRED} if 'jordanet.' + m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", f"{code}\n{probe}"],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.splitlines()[-1].split()[1:])

    def main_code(self, argv):
        """Code that runs the CLI on ``argv`` and fails unless it exits 0."""
        return f"import jordanet.cli; assert jordanet.cli.main({argv!r}) == 0"

    @pytest.mark.parametrize("code", ["import jordanet", "import jordanet.cli"])
    def test_importing_loads_no_deferred_layer(self, code):
        assert self.deferred_loaded(code) == set()

    @pytest.mark.parametrize("code", ["import jordanet.linalg", "import jordanet.spaces"])
    def test_linear_algebra_loads_no_polynomial_layer(self, code):
        assert self.deferred_loaded(code) == set()

    def test_analyze_of_a_closure_loads_no_deferred_layer(self, tmp_path):
        # <I, E12 + E21, E23 + E32> is regular and not closed: (E12 + E21)^2 = E11 + E22
        f = tmp_path / "open.json"
        f.write_text(json.dumps({"n": 3, "basis": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                                   [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
                                                   [[0, 0, 0], [0, 0, 1], [0, 1, 0]]]}))
        code = self.main_code(["analyze", str(f), "--json"])
        assert self.deferred_loaded(code) == set()
        proc = run_subprocess(["analyze", str(f), "--json"])
        assert json.loads(proc.stdout)["jordan"] is False

    def test_analyze_of_a_catalog_net_loads_its_classification(self):
        # classification is linear algebra and one integer polynomial in lam per
        # point: neither the polynomial layer nor the Macaulay one
        code = self.main_code(["analyze", "catalog://s4/3b1", "--json"])
        assert self.deferred_loaded(code) == {"catalog", "classify", "univariate"}

    @pytest.mark.parametrize("command, basis", [
        ("pencil", [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                    [[2, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]]),
        ("copencil", [[[1, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
                      [[0, 0, 0], [0, 0, 0], [0, 0, 1]], [[0, 1, 0], [1, 0, 0], [0, 0, 0]]]),
    ])
    def test_pencil_and_copencil_load_no_polynomial_layer(self, command, basis, tmp_path):
        f = tmp_path / "space.json"
        f.write_text(json.dumps({"n": len(basis[0]), "basis": basis}))
        code = self.main_code([command, str(f), "--json"])
        assert self.deferred_loaded(code) == {"classify", "univariate"}

    def test_the_catalog_loads_no_polynomial_layer(self):
        # a degeneration family imports exact when it is read, not before
        assert self.deferred_loaded("import jordanet.catalog") == {"catalog"}

    def test_limit_of_a_degeneration_loads_the_polynomial_layer(self):
        code = self.main_code(["limit", "catalog://degen/1a-2a1", "--json"])
        assert "exact" in self.deferred_loaded(code)

    def test_emptiness_loads_the_span_test_mod_p(self, tmp_path):
        # the Macaulay test imports modular when it runs; plucker, which reads
        # certificate polynomials from varieties too, does not
        f = tmp_path / "system.txt"
        f.write_text("x*y - z^2\nx^2\ny^2\nz^2\n")
        code = self.main_code(["emptiness", str(f), "--degree", "2", "--json"])
        assert self.deferred_loaded(code) == {"exact", "modular", "univariate", "varieties"}
        code = self.main_code(["plucker", "catalog://s4/3b1", "--json"])
        assert "modular" not in self.deferred_loaded(code)

    def test_chow_loads_chow_alone(self, tmp_path):
        f = tmp_path / "net.json"
        f.write_text(json.dumps({"n": 3, "basis": [[[1, 0, 0], [0, 0, 0], [0, 0, 0]],
                                                   [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
                                                   [[0, 0, 0], [0, 0, 0], [0, 0, 1]]]}))
        # of the command layers; the Chow matrix is polynomial, so exact comes too, and
        # univariate with it while exact keeps its names for the benchmark's tracer
        assert self.deferred_loaded(self.main_code(["chow", str(f), "--json"])) == {
            "chow", "exact", "univariate"}


class TestTypedErrors:
    def test_pencil_on_parametric_family(self, tmp_path):
        f = tmp_path / "family.json"
        f.write_text(json.dumps({
            "n": 2, "parametric": True,
            "basis": [[["1", "t"], ["t", "t^2"]], [["0", "0"], ["0", "1"]]],
        }))
        for cmd in ("pencil", "copencil", "analyze", "chow", "plucker"):
            proc = run_subprocess([cmd, str(f)])
            assert proc.returncode == 3, cmd
            assert "UNSUPPORTED_DIM" in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_limit_on_plain_space(self):
        proc = run_subprocess(["limit", "catalog://s4/1a"])
        assert proc.returncode == 3
        assert "NOT_GENERIC_RANK" in proc.stderr and "Traceback" not in proc.stderr

    def test_emptiness_on_missing_file(self, tmp_path):
        proc = run_subprocess(["emptiness", str(tmp_path / "missing.txt")])
        assert proc.returncode == 2
        assert "PARSE_ERROR" in proc.stderr and "Traceback" not in proc.stderr

    def test_emptiness_at_negative_degree(self, tmp_path):
        f = tmp_path / "system.txt"
        f.write_text("x*y\n")
        proc = run_subprocess(["emptiness", str(f), "--degree", "-1", "--json"])
        assert proc.returncode == 3
        assert "NEGATIVE_DEGREE" in proc.stderr and "Traceback" not in proc.stderr
        assert "CERTIFIED_EMPTY" not in proc.stdout

    def test_seed_is_only_a_verify_option(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "catalog://s4/1a", "--seed", "1"])
        assert "--seed" in capsys.readouterr().err


class TestConsoleEntryPoint:
    def test_installed_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "jordanet.cli", "catalog", "--json"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0
        assert "s4/3b2" in proc.stdout


class TestSpaceDimension:
    @pytest.mark.parametrize("n, basis", [
        (2.5, [[[1, 0], [0, 1]]]), (2.0, [[[1, 0], [0, 1]]]), ("2", [[[1, 0], [0, 1]]]),
        (True, [[[1]]]), (0, [[]]), (-1, [[[1]]]), (None, [[[1]]]),
    ])
    def test_bad_n_is_a_parse_error(self, n, basis, tmp_path, capsys):
        f = tmp_path / "space.json"
        f.write_text(json.dumps({"n": n, "basis": basis}))
        code, out, err = run_cli(["analyze", str(f), "--json"], capsys)
        assert code == 2
        assert "PARSE_ERROR" in err and out == ""


class TestNumberEntries:
    """Entries are integers or p/q strings.  Exponents, decimals, numbers past
    Python's 4300-digit conversion limit and JSON nested too deep are parse
    errors: not exit 4, and no exponent is ever expanded."""

    @pytest.mark.parametrize("text", [
        '{"n": 1, "basis": [[[1%s]]]}' % ("0" * 4999),
        '{"n": 1, "basis": [[["1e5000"]]]}',
        '{"n": 1, "basis": [[["1e999999999"]]]}',
        '{"n": 1, "basis": [[["0.5"]]]}',
        '{"n": 1, "basis": [[["1/2e3"]]]}',
        '{"n": 1, "basis": [[["%s"]]]}' % ("7" * 5000),
        "[" * 100000 + "]" * 100000,
    ], ids=["json-integer-5000-digits", "exponent", "huge-exponent", "decimal",
            "exponent-in-denominator", "string-5000-digits", "nested-100000-deep"])
    def test_is_a_parse_error(self, text, tmp_path, capsys):
        f = tmp_path / "space.json"
        f.write_text(text)
        code, out, err = run_cli(["analyze", str(f), "--json"], capsys)
        assert code == 2
        assert "PARSE_ERROR" in err and out == ""

    def test_signed_integers_and_fractions_are_read(self, tmp_path, capsys):
        f = tmp_path / "space.json"
        f.write_text(json.dumps({"n": 2, "basis": [[["-3/7", "+2"], ["+2", "-4"]]]}))
        code, out, _ = run_cli(["plucker", str(f), "--json"], capsys)
        assert code == 0
        assert json.loads(out)["nonzero"] == {"0": "-3/7", "1": "2", "2": "-4"}


class TestUnitInvertedOnce:
    def test_analyze_inverts_the_unit_once(self, monkeypatch, capsys):
        # count the inversions on a freshly loaded space: the unit's integer
        # matrix U' (the rows the sweep ranked) is inverted once, and no
        # Fraction matrix is inverted at all
        from jordanet import catalog, linalg, spaces

        inverted, fraction_inverses = [], []
        invert, invert_fraction = linalg.integer_inverse, linalg.inverse_or_none
        rebind_everywhere(monkeypatch, "integer_inverse", invert,
                          lambda rows, scale=1: inverted.append(rows) or invert(rows, scale))
        rebind_everywhere(monkeypatch, "inverse_or_none", invert_fraction,
                          lambda m: fraction_inverses.append(m) or invert_fraction(m))
        catalog.canonical.cache_clear()
        code, _, _ = run_cli(["analyze", "catalog://s4/2b", "--json"], capsys)
        assert code == 0
        unit = spaces.unit_point(catalog.canonical("s4/2b"))
        assert unit_mat(unit) != linalg.Mat.identity(4)
        assert inverted.count(unit.rows) == 1 and fraction_inverses == []


class TestNoFractionProducts:
    def test_jordan_and_classify_checks_multiply_no_fraction_matrices(self, monkeypatch, capsys):
        # congruence images, the reciprocal check and the radical's consumers
        # run on integer rows: verify's jordan and classify subsets pass with
        # the product of two Fraction matrices refused
        from jordanet import linalg

        def refuse(a, b):
            raise AssertionError("a product of Fraction matrices was formed")

        monkeypatch.setattr(linalg, "_fraction_product", refuse)
        for subset in ("jordan", "classify"):
            code, out, err = run_cli(["verify", "--subset", subset, "--json"], capsys)
            report = json.loads(out)
            assert (code, report["failed"], err) == (0, 0, ""), subset
            assert report["passed"] > 0, subset


def products_per_call(monkeypatch, name, owner, helper):
    """Wrap the jordan function ``name`` in every namespace, and count for
    each call to it the calls to ``owner.helper`` made inside that call."""
    real, help_real = getattr(jordan, name), getattr(owner, helper)
    counts, inside = [], []

    def recording(*args):
        counts.append(0)
        inside.append(1)
        try:
            return real(*args)
        finally:
            inside.pop()

    def counting(*args):
        if inside:
            counts[-1] += 1
        return help_real(*args)

    rebind_everywhere(monkeypatch, name, real, recording)
    monkeypatch.setattr(owner, helper, counting)
    return counts


class TestAssociativityOnce:
    def test_analyze_of_a_net_evaluates_associativity_once(self, monkeypatch, capsys):
        # the abstract class and the invariant vector both ask; only the
        # first reads the tensor, the second the answer cached on the structure
        from jordanet import catalog

        counts = products_per_call(monkeypatch, "is_associative", jordan, "_combine")
        catalog.canonical.cache_clear()
        code, out, _ = run_cli(["analyze", "catalog://s4/3b1", "--json"], capsys)
        assert code == 0 and json.loads(out)["net_class"] == "3b1"
        assert len(counts) == 2 and counts[0] > 0 and counts[1] == 0


class TestRadSquareOnce:
    def test_analyze_of_a_net_squares_the_radical_once(self, monkeypatch, capsys):
        # for a 2-dimensional radical the abstract class and the invariant
        # vector both ask for its square; it is computed once
        from jordanet import catalog

        counts = products_per_call(monkeypatch, "rad_square_dim", jordan, "_combine")
        catalog.canonical.cache_clear()
        code, out, _ = run_cli(["analyze", "catalog://s4/3a", "--json"], capsys)
        assert code == 0 and json.loads(out)["net_class"] == "3a"
        # the three products of a 2-dimensional radical, each one combination
        # of the m = 3 planes of the tensor and one of their results
        assert counts == [3 * (3 + 1), 0]


class TestInputCheckedOnce:
    """make_space checks a space file once; the closure and the radical
    pencil that analyze builds from it are not checked again.  One analyze
    solves for coordinates on at most one inverse, that of the input's pivot
    block, and only a closed space or a space holding the identity forms it;
    besides it, the unit's U' is inverted exactly once."""

    @staticmethod
    def write(path, space):
        path.write_text(json.dumps({"n": space.n, "basis": [
            [[frac_str(x) for x in row] for row in b.data] for b in space.basis]}))
        return str(path)

    def test_at_most_one_transform_per_analyze(self, monkeypatch, tmp_path, capsys):
        # counts the pivot-block inverses (``MatSpace.pivot_inverse`` on its
        # first read) apart from the inverses of the unit's U' (``Unit.inverse``),
        # by the function that calls the inversion
        from jordanet import spaces
        from jordanet.catalog import canonical
        from jordanet.spaces import sample_congruent

        files = {"closure": self.write(tmp_path / "flip.json", canonical("dim4/L2flip")),
                 "3b1": self.write(tmp_path / "3b1.json", sample_congruent(canonical("s4/3b1"), 7))}
        calls = []
        real = spaces.integer_inverse
        monkeypatch.setattr(spaces, "integer_inverse", lambda rows, scale=1: calls.append(
            sys._getframe(1).f_code.co_name == "pivot_inverse") or real(rows, scale))
        for expected, path in files.items():
            calls.clear()
            code, out, _ = run_cli(["analyze", path, "--json"], capsys)
            report = json.loads(out)
            assert code == 0
            pivot_blocks, units = calls.count(True), calls.count(False)
            assert units == 1, expected  # every analyze of a regular space inverts U' once
            if expected == "closure":
                assert report["jordan"] is False and report["closure_dim"] == 6
                assert pivot_blocks <= 1, expected
            else:
                assert report["net_class"] == "3b1"
                assert pivot_blocks == 1, expected  # the Jordan test reads the inverse

    def test_default_unit_keeps_its_sweep_coordinates(self, monkeypatch, tmp_path, capsys):
        # is_jordan(space) takes the unit with the coordinates that the sweep
        # found: no membership test re-finds them, and the basis products are
        # reduced on the echelon, so the sweep's test for the identity is the
        # one membership test (one ``MatSpace.coordinates``)
        from jordanet.catalog import canonical
        from jordanet.spaces import MatSpace, sample_congruent

        files = [self.write(tmp_path / "3b1.json", sample_congruent(canonical("s4/3b1"), 7)),
                 self.write(tmp_path / "flip.json", canonical("dim4/L2flip"))]
        calls = []
        real = MatSpace.coordinates
        monkeypatch.setattr(MatSpace, "coordinates", lambda sp, v: calls.append(1) or real(sp, v))
        for path in files:
            calls.clear()
            code, out, _ = run_cli(["analyze", path, "--json"], capsys)
            assert code == 0
            assert len(calls) == 1, path


class TestFamilyFiles:
    FAMILY = [[["1", "t"], ["t", "0"]], [["0", "0"], ["0", "1"]]]
    CONSTANT = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]

    @pytest.mark.parametrize("command, fields", [
        ("limit", {"parametric": True, "param": ["t"]}),
        ("limit", {"parametric": True, "param": 1, "basis": CONSTANT}),
        ("limit", {"parametric": True, "param": "2t", "basis": CONSTANT}),
        ("analyze", {"parametric": "false", "basis": CONSTANT}),
        ("limit", {"parametric": 1}),
        ("limit", {"parametric": True, "basis": [[["1", "t"], ["t", True]], CONSTANT[1]]}),
        # each row of a basis matrix must be a JSON list
        ("analyze", {"basis": [[[1, 0], 5]]}),
        ("analyze", {"basis": [[[1, 0], None]]}),
        ("analyze", {"basis": [[[1, 0], "21"]]}),
        ("analyze", {"basis": [[[1, 0], {"2": 0, "1": 5}]]}),
        ("limit", {"parametric": True, "basis": [[["1", "t"], 5]]}),
        ("limit", {"parametric": True, "basis": [[["1", "t"], "t1"]]}),
        # a plain file's param is checked too, by the grammar it imports for that
        ("analyze", {"param": "2t", "basis": CONSTANT}),
    ], ids=["param-list", "param-int", "param-not-a-name", "parametric-string", "parametric-int",
            "boolean-entry", "int-row", "null-row", "string-row", "object-row",
            "parametric-int-row", "parametric-string-row", "plain-param-not-a-name"])
    def test_malformed_family_is_a_parse_error(self, command, fields, tmp_path, capsys):
        f = tmp_path / "family.json"
        f.write_text(json.dumps({"n": 2, "basis": self.FAMILY, **fields}))
        code, out, err = run_cli([command, str(f), "--json"], capsys)
        assert code == 2
        assert "PARSE_ERROR" in err and out == ""


class TestLimitClassification:
    @pytest.mark.parametrize("error, code", [
        (InternalCheckError("INTERNAL", "self-check failed"), 4),
        (PreconditionError("NOT_JORDAN", "not closed"), 0),
    ])
    def test_only_precondition_errors_read_as_null(self, error, code, monkeypatch, capsys):
        def fail(space):
            raise error

        monkeypatch.setattr(classify, "classify_net_S4", fail)
        got, out, err = run_cli(["limit", "catalog://degen/3b1-3b2", "--json"], capsys)
        assert got == code
        if code == 0:
            assert json.loads(out)["net_class"] is None and err == ""
        else:
            assert out == "" and err.startswith("error: INTERNAL")


class TestTrials:
    @pytest.mark.parametrize("trials", ["3", "0", "-3"])
    def test_the_flag_is_rejected(self, trials, tmp_path, capsys):
        singular = tmp_path / "singular.json"
        singular.write_text(json.dumps({"n": 2, "basis": [[[1, 0], [0, 0]]]}))
        for space in ("catalog://s4/1a", str(singular)):
            with pytest.raises(SystemExit) as exit_:
                main(["analyze", space, "--json", "--trials", trials])
            assert exit_.value.code == 2
            out, err = capsys.readouterr()
            assert "--trials" in err and out == ""


ROOT = Path(__file__).resolve().parent.parent


def readme_lines():
    """The argv of each ``jordanet`` command the README shows: a ``$ jordanet``
    or ``jordanet`` line of a code block without placeholders, or an inline
    `jordanet ...`; a shell pipe or comment ends it."""
    text = (ROOT / "README.md").read_text()
    found = re.findall(r"^(?:\$ )?jordanet ([^<\[\n]*)$", text, re.M)
    found += re.findall(r"`jordanet ([^`]*)`", text)
    return [shlex.split(line.split("|")[0].split("#")[0]) for line in found]


def benchmark_lines(workdir):
    """The argv of every op of the four benchmark workloads at seed 0, and of
    every cold command as listed."""
    sys.path.insert(0, str(ROOT / "benchmark"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "benchmark"))
    ops = [op.argv for w in workloads.WORKLOADS.values() for op in w.build(0, workdir, ROOT)]
    return ops + [argv for argv, _ in workloads.COLD_COMMANDS]


#: what ``mutate_argv`` inserts: every long option, then unknown, misspelt and
#: ambiguous options, prefixes, ``-h`` forms, ``--``, tokens argparse reads as
#: values (negative numbers, ``-``, blanks) and bad or 5000-digit ints
ARGV_OPTIONS = ["--json", "--rank", "--kernel", "--det-stats", "--generic-n3", "--degree",
                "--subset", "--seed"]
ARGV_NOISE = ["--", "--", "-h", "--help", "--he", "--h", "-hh", "-hx", "-h=h", "-h=", "--help=x",
              "-h x", "--trials", "--det_stats", "--jsonx", "-x", "-j", "---", "--=", "--=x",
              "--s", "--d", "--de", "--deg", "--su", "--se", "--json=", "--json=1", "-1", "-.5",
              "-5\n", "-1x", "-", "", "--x y", "a b", "x", "7", "+3", " 7", "1_0", "\u0663", "1.5",
              "1" * 5000, "nope", "analyze", "verify", "--subset=--", "--degree=--"]


def mutate_argv(rng, argv):
    """argv after one to three seeded edits: a token dropped, duplicated or
    swapped with another, an option joined to the next token by ``=`` or cut
    to a prefix, an option or a noise token inserted, the command replaced."""
    argv = list(argv)
    for _ in range(rng.int_between(1, 3)):
        edit, k = rng.int_between(0, 8), rng.int_between(0, len(argv))
        at = min(k, len(argv) - 1)
        if edit == 0 and argv:
            del argv[at]
        elif edit == 1 and argv:
            argv.insert(at, argv[at])
        elif edit == 2 and argv:
            j = rng.int_between(0, len(argv) - 1)
            argv[at], argv[j] = argv[j], argv[at]
        elif edit == 3 and k < len(argv) - 1 and argv[k].startswith("-"):
            argv[k:k + 2] = [argv[k] + "=" + argv[k + 1]]
        elif edit == 4 and argv and argv[at].startswith("--") and len(argv[at]) > 3:
            name, eq, value = argv[at].partition("=")
            argv[at] = name[:rng.int_between(2, len(name) - 1)] + eq + value
        elif edit == 5:
            argv.insert(k, pick(rng, ARGV_OPTIONS))
        elif edit == 6:
            argv[k:k] = [pick(rng, ARGV_OPTIONS[5:]), pick(rng, ARGV_NOISE)]
        elif edit == 7 and argv:
            argv[0] = pick(rng, ["analyze", "chow", "emptiness", "verify", "catalog", "anal",
                                 "-h", "--", "nope"])
        else:
            argv.insert(k, pick(rng, ARGV_NOISE))
    return argv


def equals_dash_dash(argv):
    """Whether an option is given ``--`` by ``=``: argparse up to 3.12
    strips it, so a value option gets an empty list, where the reader keeps
    the string ``--`` (and an int option fails, as ``int("--")`` does)."""
    return any(tok.startswith("-") and tok.partition("=")[1:] == ("=", "--") for tok in argv)


class TestArgvReader:
    """``cli.read_argv`` against the argparse parser it replaced
    (``oracles.build_parser``): the same lines accepted with the same
    attributes, rejected with exit 2, or answered with the help and exit 0."""

    @staticmethod
    def outcomes(argv):
        want = argv_outcome(build_parser().parse_args, argv)
        got = argv_outcome(cli.read_argv, argv)
        if got[1] == 2:  # the usage, then the error, on stderr alone
            assert got[2] == "" and re.fullmatch(
                r"usage: jordanet [^\n]+(\n {7}jordanet [^\n]+)*\njordanet( [a-z]+)?: error: .+\n",
                got[3], re.S), argv
        if got[1] == 0:
            assert (got[2], got[3]) == (f"usage:\n{cli._SYNOPSIS}\n", ""), argv
        return want[:2], got[:2]

    def test_known_lines_read_as_argparse_reads_them(self, tmp_path):
        lines = [case["argv"] for case in GOLDENS] + benchmark_lines(tmp_path)
        assert len(lines) > 250
        for argv in lines:
            want, got = self.outcomes(argv)
            assert got == want and got[1] is None, argv
        readme = readme_lines()
        assert len(readme) >= 7 and ["verify", "--subset", "classify"] in readme
        for argv in readme:
            want, got = self.outcomes(argv)
            assert got == want, argv

    @pytest.mark.skipif(sys.version_info >= (3, 12), reason=(
        "the reader keeps argparse's reading of 3.10 and 3.11 (checked to agree on 3.10.13, "
        "3.11.7 and 3.12.1); 3.13 reads -h letter runs, a leading -- and an ambiguous option "
        "after -h otherwise, and later 3.12 releases are unchecked"))
    def test_seeded_mutations_read_as_argparse_reads_them(self, tmp_path):
        bases = [case["argv"] for case in GOLDENS] + benchmark_lines(tmp_path) + readme_lines()
        rng = SplitMix64(20261021)
        seen = {None: 0, 0: 0, 2: 0}  # accepted, help, rejected
        for _ in range(3000):
            argv = mutate_argv(rng, pick(rng, bases))
            want, got = self.outcomes(argv)
            if got != want:  # the one intended difference: "=--" gives the string "--"
                assert equals_dash_dash(argv) and (got[1] == 2 or "--" in got[0].values()), argv
            seen[got[1]] += 1
        assert min(seen.values()) > 150, seen

    @pytest.mark.parametrize("argv, named", [
        ([], "cmd"), (["nope", "x"], "'nope'"), (["--", "analyze", "x"], "'--'"),
        (["analyze"], "space"), (["emptiness", "--json"], "polyfile"),
        (["verify", "--s", "intro"], "--s could match --subset, --seed"),
        (["verify", "-h", "--s"], "--s could match"), (["analyze", "x", "--trials", "3"], "--trials 3"),
        (["emptiness", "f", "--degree", "x"], "--degree: invalid int value: 'x'"),
        (["emptiness", "f", "--degree", "9" * 5000], "--degree: invalid int value"),
        (["emptiness", "f", "--degree", "--json"], "--degree: expected one argument"),
        (["analyze", "x", "--json=1"], "--json: ignored explicit argument '1'"),
        (["chow", "x", "--det_stats"], "--det_stats"), (["analyze", "x", "y"], "arguments: y"),
        (["analyze", "x", "--json", "--"], "arguments: --"), (["-hx"], "-h: ignored explicit")])
    def test_usage_errors_name_the_offending_token(self, argv, named, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        out, err = capsys.readouterr()
        assert exit_.value.code == 2 and out == ""
        assert err.startswith("usage: jordanet") and named in err.splitlines()[-1]

    @pytest.mark.parametrize("argv", [
        ["-h"], ["--help"], ["--he"], ["--bogus", "-h"], ["analyze", "-h"], ["analyze", "-hh"],
        ["chow", "x", "--rank", "--help"], ["verify", "--seed", "3", "-h", "--seed", "x"],
        ["emptiness", "--deg", "2", "-h=h", "f"]])
    def test_help_prints_the_synopsis(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        out, err = capsys.readouterr()
        assert exit_.value.code == 0 and err == ""
        assert out == f"usage:\n{cli._SYNOPSIS}\n"
        assert {ln.split()[1] for ln in out.splitlines() if ln.split()[:1] == ["jordanet"]} == \
            set(cli.COMMANDS)

    @pytest.mark.parametrize("argv, attrs", [
        (["emptiness", "f", "--degree=-1"], {"polyfile": "f", "degree": -1}),
        (["emptiness", "--deg", "-1", "--", "-f"], {"polyfile": "-f", "degree": -1}),
        (["verify", "--su=x", "--se", " 7 ", "--json"], {"subset": "x", "seed": 7, "json": True}),
        (["chow", "--json", "--"], {"space": None, "json": True}),
        (["chow", "--de", "--", "--rank"], {"space": "--rank", "det_stats": True, "rank": False}),
        (["analyze", "-1", "--js"], {"space": "-1", "json": True}),
        (["verify", "--subset=--"], {"subset": "--"})])
    def test_lines_and_their_attributes(self, argv, attrs):
        got = vars(cli.read_argv(argv))
        assert got["cmd"] == argv[0] and {k: got[k] for k in attrs} == attrs

    @pytest.mark.parametrize("argv", [["-h"], ["chow", "--bogus"]])
    def test_help_and_usage_errors_are_the_same_bytes_under_OO(self, argv):
        # python -OO strips docstrings; the synopsis is not one
        runs = [subprocess.run([sys.executable, *flags, "-m", "jordanet.cli", *argv],
                               capture_output=True, env=child_env()) for flags in ([], ["-OO"])]
        plain, stripped = [(p.returncode, p.stdout, p.stderr) for p in runs]
        assert stripped == plain and b"jordanet chow " in plain[1] + plain[2]

    def test_the_synopsis_names_the_verify_subsets_in_order(self):
        from jordanet import verify

        line = cli._SYNOPSIS.splitlines()[-1].strip()
        assert line.startswith("(NAME: ") and line[7:-1].split(", ") == list(verify.SUBSETS)


def rebind_everywhere(monkeypatch, name, real, replacement):
    """Point every jordanet module that binds ``name`` to ``real`` at
    ``replacement`` instead."""
    for module in [m for k, m in sys.modules.items() if k.startswith("jordanet")]:
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, replacement)


class TestAnalyzeReadsTheJordanTest:
    """analyze takes reciprocity and the closure from is_jordan: no sampled
    reciprocal check on any input, and a closure only for a space that is
    not closed."""

    NOT_JORDAN = {"dim4/L2flip", "nets/L3", "netrank8"}

    def test_counts(self, monkeypatch, capsys):
        from jordanet.catalog import catalog_ids

        calls = {"check_reciprocal_identity": 0, "jordan_closure": 0}
        for name in calls:
            real = getattr(jordan, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            rebind_everywhere(monkeypatch, name, real, counting)
        plain = [cid for cid in catalog_ids() if not cid.startswith("degen/")]
        assert self.NOT_JORDAN < set(plain)
        for cid in plain:
            before = dict(calls)
            code, out, _ = run_cli(["analyze", f"catalog://{cid}", "--json"], capsys)
            report = json.loads(out)
            assert code == 0 and report["regular"], cid
            assert report["jordan"] is (cid not in self.NOT_JORDAN), cid
            assert calls["check_reciprocal_identity"] == before["check_reciprocal_identity"], cid
            expected = int(cid in self.NOT_JORDAN)
            assert calls["jordan_closure"] - before["jordan_closure"] == expected, cid


class TestPartitionVariables:
    """generic_multiplicity_partition hands squarefree_decomposition one
    integer polynomial in lam, its n + 1 coefficients, per integer point it
    reads: one for each canonical net of 1a, 1b, 2a1, 2a2 and 2b, none for
    3a, 3b1 and 3b2 (a radical of dimension m - 1 leaves one part), and one
    for a pencil, which has no variable."""

    POINTS = {"1a": 1, "1b": 1, "2a1": 1, "2a2": 1, "2b": 1, "3a": 0, "3b1": 0, "3b2": 0}

    def record(self, monkeypatch):
        inputs = []
        real = exact.squarefree_decomposition

        def recording(coeffs):
            inputs.append(list(coeffs))
            return real(coeffs)

        rebind_everywhere(monkeypatch, "squarefree_decomposition", real, recording)
        return inputs

    def test_net(self, monkeypatch, capsys):
        inputs = self.record(monkeypatch)
        for label, points in self.POINTS.items():
            before = len(inputs)
            code, out, _ = run_cli(["analyze", f"catalog://s4/{label}", "--json"], capsys)
            assert code == 0 and json.loads(out)["net_class"] == label
            assert len(inputs) - before == points, label
        assert all(len(p) == 5 and all(type(c) is int for c in p) for p in inputs), inputs

    def test_v2_pencil(self, monkeypatch, tmp_path, capsys):
        inputs = self.record(monkeypatch)
        path = tmp_path / "v2.json"
        path.write_text(json.dumps({"n": 4, "basis": [
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
        ]}))
        code, out, _ = run_cli(["analyze", str(path), "--json"], capsys)
        assert code == 0 and json.loads(out)["net_class"] == "V2"
        assert len(inputs) == 1 and len(inputs[0]) == 5, inputs
        assert all(type(c) is int for c in inputs[0]), inputs


class TestBoundedCost:
    """A Macaulay or Chow matrix past its size bound is refused before it is
    built (exit 3, TOO_LARGE, with its estimated shape), and running out of
    memory anywhere exits 3 too: both are resource limits, not bugs."""

    SYSTEM = "x*y - z^2\nx^2 - w*y\n"

    @pytest.mark.parametrize("degree, shape", [(30, "8990 x 5456"), (60, "71980 x 39711")])
    def test_large_degrees_are_refused_within_a_second(self, degree, shape, tmp_path, capsys):
        f = tmp_path / "system.txt"
        f.write_text(self.SYSTEM)
        start = time.process_time()
        code, out, err = run_cli(["emptiness", str(f), "--degree", str(degree), "--json"], capsys)
        assert time.process_time() - start < 1
        assert code == 3 and out == ""
        assert "TOO_LARGE" in err and shape in err and "INTERNAL" not in err

    def test_degree_ten_is_answered(self, tmp_path, capsys):
        f = tmp_path / "system.txt"
        f.write_text(self.SYSTEM)
        code, out, _ = run_cli(["emptiness", str(f), "--degree", "10", "--json"], capsys)
        report = json.loads(out)
        assert code == 0 and (report["kind"], report["span_rank"], report["span_target"]) == (
            "UNKNOWN", 246, 286)

    def test_degree_fifteen_is_answered_within_a_second(self, tmp_path, capsys):
        # 1120 x 816: each quadric's reduced row times the 560 monomials of degree 13
        f = tmp_path / "system.txt"
        f.write_text(self.SYSTEM)
        start = time.process_time()
        code, out, _ = run_cli(["emptiness", str(f), "--degree", "15", "--json"], capsys)
        assert time.process_time() - start < 1
        report = json.loads(out)
        assert code == 0 and (report["kind"], report["span_rank"], report["span_target"]) == (
            "UNKNOWN", 756, 816)

    def test_degree_four_rank_one_certificate_in_s5_within_two_seconds(self, tmp_path, capsys):
        # the 55 rank-one minors of a dense 8-dimensional subspace of S^5 at
        # degree 4 (1980 x 330): they span all 36 quadrics in t1..t8, so the
        # multiples are single monomials
        from jordanet.linalg import Mat
        from jordanet.spaces import make_space
        from jordanet.varieties import rank_one_system

        rng = SplitMix64(508)
        basis = []
        for _ in range(8):
            mat = [[0] * 5 for _ in range(5)]
            for i in range(5):
                for j in range(i, 5):
                    mat[i][j] = mat[j][i] = rng.int_between(-3, 3)
            basis.append(Mat.from_ints(mat))
        f = tmp_path / "minors.txt"
        f.write_text("".join(f"{p}\n" for p in rank_one_system(make_space(5, basis))))
        start = time.process_time()
        code, out, _ = run_cli(["emptiness", str(f), "--degree", "4", "--json"], capsys)
        assert time.process_time() - start < 2
        report = json.loads(out)
        assert code == 0 and (report["kind"], report["span_rank"], report["span_target"]) == (
            "CERTIFIED_EMPTY", 330, 330)

    @pytest.mark.parametrize("flags", [["--rank"], []], ids=["rank", "all"])
    @pytest.mark.parametrize("n, shape", [(6, "21 x 53130"), (7, "28 x 1107568")])
    def test_chow_on_all_of_sn_is_refused_within_a_second(self, n, shape, flags, tmp_path, capsys):
        basis = [[[int({a, b} == {i, j}) for b in range(n)] for a in range(n)]
                 for i in range(n) for j in range(i, n)]
        f = tmp_path / "sn.json"
        f.write_text(json.dumps({"n": n, "basis": basis}))
        start = time.process_time()
        code, out, err = run_cli(["chow", str(f), "--json"] + flags, capsys)
        assert time.process_time() - start < 1
        assert code == 3 and out == ""
        assert "TOO_LARGE" in err and shape in err and "INTERNAL" not in err

    def test_plucker_on_a_hyperplane_in_s7_is_refused_within_a_second(self, tmp_path, capsys):
        # dense, so the Laplace memo would visit all 2^28 - 1 column subsets
        rng = SplitMix64(7)
        basis = []
        for _ in range(27):
            mat = [[0] * 7 for _ in range(7)]
            for i in range(7):
                for j in range(i, 7):
                    mat[i][j] = mat[j][i] = rng.nonzero_int_between(-3, 3)
            basis.append(mat)
        f = tmp_path / "hyperplane.json"
        f.write_text(json.dumps({"n": 7, "basis": basis}))
        start = time.process_time()
        code, out, err = run_cli(["plucker", str(f), "--json"], capsys)
        assert time.process_time() - start < 1
        assert code == 3 and out == ""
        assert "TOO_LARGE" in err and "268435455 column subsets" in err and "INTERNAL" not in err

    def test_limit_on_a_dense_family_in_s6_is_answered_within_a_second(self, tmp_path, capsys):
        # 20 dense matrices in S^6, some entries k*t: their values at t = 0 are
        # independent, so the first evaluation returns them; the family's
        # minors would visit all 2^21 - 1 column subsets, and none is formed
        rng = SplitMix64(11)
        basis = []
        for _ in range(20):
            mat = [["0"] * 6 for _ in range(6)]
            for i in range(6):
                for j in range(i, 6):
                    c = rng.nonzero_int_between(-3, 3)
                    mat[i][j] = mat[j][i] = f"{c}*t" if rng.int_between(0, 1) else str(c)
            basis.append(mat)
        f = tmp_path / "family.json"
        f.write_text(json.dumps({"n": 6, "parametric": True, "basis": basis}))
        start = time.process_time()
        code, out, err = run_cli(["limit", str(f), "--json"], capsys)
        assert time.process_time() - start < 1
        report = json.loads(out)
        assert code == 0 and err == "" and report["m"] == 20
        assert report["basis"] == [[["0" if "t" in e else e for e in row] for row in mat]
                                   for mat in basis]

    def test_limit_on_a_dependent_family_is_refused_within_a_second(self, tmp_path, capsys):
        # <E11, f(t) E11> with f = 1 + t + ... + t^200: every minor vanishes,
        # and the refusal costs 200 passes, each stripping one power of t
        f_t = " + ".join(["1", "t"] + [f"t^{k}" for k in range(2, 201)])
        f = tmp_path / "family.json"
        f.write_text(json.dumps({"n": 2, "parametric": True,
                                 "basis": [[["1", "0"], ["0", "0"]], [[f_t, "0"], ["0", "0"]]]}))
        start = time.process_time()
        code, out, err = run_cli(["limit", str(f), "--json"], capsys)
        assert time.process_time() - start < 1
        assert code == 3 and out == ""
        assert err.startswith("error: NOT_GENERIC_RANK")

    @pytest.mark.parametrize("k", [499, 3000])
    def test_limit_past_its_work_bound_is_refused_within_a_second(self, k, tmp_path):
        # <E11, f(t) E11 + t^(k+1) E22> with f = 1 + t + ... + t^k: k + 1
        # passes over k + 3 terms, past MAX_LIMIT_WORK from k = 499 on; at
        # k = 3000 the passes take 15-20 s of CPU, past the child's 10 s cap
        import resource

        f_t = " + ".join(["1", "t"] + [f"t^{e}" for e in range(2, k + 1)])
        f = tmp_path / "family.json"
        f.write_text(json.dumps({"n": 2, "parametric": True, "basis": [
            [["1", "0"], ["0", "0"]], [[f_t, "0"], ["0", f"t^{k + 1}"]]]}))
        cap = 10

        def limit():
            resource.setrlimit(resource.RLIMIT_CPU, (cap, cap))

        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run([sys.executable, "-m", "jordanet.cli", "limit", str(f), "--json"],
                              capture_output=True, text=True, env=child_env(), preexec_fn=limit,
                              timeout=60)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr == (f"error: TOO_LARGE: the limit would take up to {k + 1} passes over "
                               f"{k + 3} terms, past 250000 pass-terms\n")
        assert (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime) < 1.0

    @pytest.mark.parametrize("n, m, subsets", [(5, 15, None), (6, 7, None), (6, 8, 401930)])
    def test_plucker_bound_admits_s5_and_seven_dimensions_of_s6(self, n, m, subsets,
                                                                tmp_path, capsys):
        # unit matrices: a sparse basis, so admitted sizes are answered at once
        pairs = [(i, j) for i in range(n) for j in range(i, n)][:m]
        basis = [[[int({a, b} == {i, j}) for b in range(n)] for a in range(n)] for i, j in pairs]
        f = tmp_path / "units.json"
        f.write_text(json.dumps({"n": n, "basis": basis}))
        code, out, err = run_cli(["plucker", str(f), "--json"], capsys)
        if subsets is None:
            assert code == 0 and json.loads(out)["coordinates"] == math.comb(n * (n + 1) // 2, m)
        else:
            assert code == 3 and f"{subsets} column subsets" in err

    @staticmethod
    def write_singular_space(path, n, m, seed):
        """m matrices in S^n that vanish on their leading k x k block, k > n/2,
        so that each element has rank at most 2(n - k) < n, written as one
        dense congruence image (no common kernel shows in the entries)."""
        from jordanet.linalg import Mat
        from jordanet.spaces import make_space, sample_congruent

        rng, k = SplitMix64(seed), n // 2 + 1
        while True:
            basis = []
            for _ in range(m):
                mat = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(max(i, k), n):
                        mat[i][j] = mat[j][i] = rng.int_between(-3, 3)
                basis.append(Mat.from_ints(mat))
            try:
                space = sample_congruent(make_space(n, basis), seed)
                break
            except PreconditionError:  # DEPENDENT_BASIS: draw again
                pass
        path.write_text(json.dumps({"n": n, "basis": [
            [[frac_str(x) for x in row] for row in b.data] for b in space.basis]}))
        return str(path)

    def test_analyze_of_a_large_singular_space_is_refused_within_a_second(self, tmp_path, capsys):
        # the generic determinant of 12 matrices in S^8 would take 26 153 536
        # term products (about 10 s) once 32 sweep points are singular
        f = self.write_singular_space(tmp_path / "singular.json", 8, 12, 3)
        start = time.process_time()
        code, out, err = run_cli(["analyze", f, "--json"], capsys)
        assert time.process_time() - start < 1
        assert code == 3 and out == ""
        assert "TOO_LARGE" in err and "32 sweep points were singular" in err
        assert "26153536 term products" in err and "INTERNAL" not in err

    @staticmethod
    def write_block_image(path, sizes, seed):
        """The dense congruence image P^T B P, P = 5I + entries in {-2..2}, of
        the elementary basis of Sym(a) + Sym(b) for sizes (a, b): a Jordan
        algebra holding P^T P, whose first 32 sweep points are singular."""
        n, rng = sum(sizes), SplitMix64(seed)
        blocks = [(i, j) for start, k in ((0, sizes[0]), (sizes[0], sizes[1]))
                  for i in range(start, start + k) for j in range(i, start + k)]
        p = [[5 * (i == j) + rng.int_between(-2, 2) for j in range(n)] for i in range(n)]
        basis = [[[p[i][a] * p[j][b] + p[j][a] * p[i][b] if i != j else p[i][a] * p[i][b]
                   for b in range(n)] for a in range(n)] for i, j in blocks]
        path.write_text(json.dumps({"n": n, "basis": basis}))
        return str(path)

    @pytest.mark.parametrize("sizes", [(5, 1), (4, 3), (5, 4)])
    def test_regular_spaces_past_the_determinant_bound_are_answered(self, sizes, tmp_path, capsys):
        # the generic determinant is past MAX_GENERIC_DET_PRODUCTS, so after
        # the 32 singular sweep points a seeded dense point is the unit
        f = self.write_block_image(tmp_path / "block.json", sizes, 0)
        code, out, err = run_cli(["analyze", f, "--json"], capsys)
        assert code == 0 and err == ""
        m = sum(k * (k + 1) // 2 for k in sizes)
        report = json.loads(out)
        assert (report["m"], report["regular"], report["jordan"], report["closure_dim"]) == (
            m, True, True, m)

    @pytest.mark.parametrize("sizes", [(3, 3), (4, 2)])
    def test_dense_points_come_before_an_admitted_determinant(self, sizes, tmp_path, capsys):
        # the generic determinant is under MAX_GENERIC_DET_PRODUCTS, yet after
        # the 32 singular sweep points a seeded dense point is the unit;
        # expanding the determinant first and sweeping on takes 2.5 to 2.8 s
        f = self.write_block_image(tmp_path / "block.json", sizes, 0)
        start = time.process_time()
        code, out, err = run_cli(["analyze", f, "--json"], capsys)
        assert time.process_time() - start < 1
        assert code == 0 and err == ""
        m = sum(k * (k + 1) // 2 for k in sizes)
        report = json.loads(out)
        assert (report["m"], report["regular"], report["jordan"], report["closure_dim"]) == (
            m, True, True, m)

    def test_the_largest_measured_singular_space_admitted_is_answered(self, tmp_path, capsys):
        # 1 923 072 products, under MAX_GENERIC_DET_PRODUCTS
        f = self.write_singular_space(tmp_path / "singular.json", 12, 3, 3)
        code, out, err = run_cli(["analyze", f, "--json"], capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["regular"] is False

    def test_emptiness_in_more_variables_than_the_recursion_limit(self, tmp_path, capsys):
        f = tmp_path / "linear.txt"
        f.write_text(" + ".join(f"x{i}" for i in range(1200)) + "\n")
        code, out, err = run_cli(["emptiness", str(f), "--degree", "1", "--json"], capsys)
        assert code == 0 and err == ""
        report = json.loads(out)
        assert (report["kind"], report["span_rank"], report["span_target"]) == ("UNKNOWN", 1, 1200)

    def test_emptiness_of_one_variable_at_degree_a_billion(self, tmp_path):
        # the 1 x 1 Macaulay matrix of t1^2 at degree 10^9: its monomials are
        # yielded as exponent tuples, with no index tuple as long as the
        # degree; the child's address space is capped, so a regression fails
        # with MemoryError instead of exhausting the machine
        import resource

        f = tmp_path / "square.txt"
        f.write_text("t1^2\n")
        cap = 1 << 30

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run([sys.executable, "-m", "jordanet.cli", "emptiness", str(f),
                               "--degree", "1000000000", "--json"], capture_output=True,
                              text=True, env=child_env(), preexec_fn=limit, timeout=60)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["kind"] == "CERTIFIED_EMPTY"
        assert (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime) < 1.0

    def test_memory_error_exits_3(self, monkeypatch, tmp_path, capsys):
        # memory runs out inside the Macaulay build, where its echelon is made,
        # after the file was read into integer polynomials
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(varieties, "Echelon", exhausted)
        f = tmp_path / "system.txt"
        f.write_text(self.SYSTEM)
        code, out, err = run_cli(["emptiness", str(f), "--degree", "2", "--json"], capsys)
        assert code == 3 and out == ""
        assert "TOO_LARGE" in err and "INTERNAL" not in err


class TestOutputClosed:
    """A reader that closed stdout is no bug: one OUTPUT_CLOSED line and
    exit 3, whether stdout is buffered (the error comes at the flush) or not
    (it comes at the first write)."""

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_closed_stdout_exits_3(self, unbuffered):
        env = {k: v for k, v in child_env().items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "jordanet.cli", "analyze", "catalog://s4/3b1", "--json"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write_end)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: OUTPUT_CLOSED") and proc.stderr.count("\n") == 1


class TestResultTooLarge:
    """A result with a number past Python's 4300-digit conversion limit is a
    precondition error (exit 3) that prints nothing to stdout; big entries
    whose results are small are no error."""

    BIG = str(10 ** 3000)
    # I, BIG (E12 + E21), BIG (E13 + E31): the witness residue of analyze and
    # the Pluecker minors both hold 10^6000
    HUGE_RESULTS = {"n": 3, "basis": [
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        [["0", BIG, "0"], [BIG, "0", "0"], ["0", "0", "0"]],
        [["0", "0", BIG], ["0", "0", "0"], [BIG, "0", "0"]],
    ]}

    @pytest.mark.parametrize("command", ["analyze", "plucker"])
    @pytest.mark.parametrize("as_json", [True, False], ids=["json", "plain"])
    def test_is_a_precondition_error(self, command, as_json, tmp_path, capsys):
        f = tmp_path / "space.json"
        f.write_text(json.dumps(self.HUGE_RESULTS))
        code, out, err = run_cli([command, str(f)] + (["--json"] if as_json else []), capsys)
        assert code == 3
        assert "RESULT_TOO_LARGE" in err and "INTERNAL" not in err
        assert out == ""

    def test_big_entries_with_a_small_report_exit_0(self, tmp_path, capsys):
        # entries written out in digits; every number analyze reports is small
        f = tmp_path / "space.json"
        big = 10 ** 3000
        f.write_text(json.dumps({"n": 2, "basis": [[[big, 0], [0, 1]], [[0, 1], [1, big]]]}))
        code, out, err = run_cli(["analyze", str(f), "--json"], capsys)
        assert code == 0 and err == ""
        report = json.loads(out)
        assert (report["jordan"], report["net_class"]) == (True, "V1")


class TestExitCodes:
    @pytest.mark.parametrize("error, code, prefix", [
        (InputError("PARSE_ERROR", "bad"), 2, "error: PARSE_ERROR"),
        (PreconditionError("NOT_REGULAR", "singular"), 3, "error: NOT_REGULAR"),
        (InternalCheckError("INTERNAL", "self-check failed"), 4, "error: INTERNAL"),
        (ZeroDivisionError("division by zero"), 4, "error: INTERNAL: ZeroDivisionError"),
        (KeyError("k"), 4, "error: INTERNAL: KeyError"),
    ])
    def test_errors_map_to_documented_codes(self, error, code, prefix, monkeypatch, capsys):
        def fail(args):
            raise error

        monkeypatch.setattr(cli, "cmd_catalog", fail)
        got, out, err = run_cli(["catalog"], capsys)
        assert got == code
        assert err.startswith(prefix) and err.count("\n") == 1
        assert "Traceback" not in err and out == ""


def pick(rng, options):
    return options[rng.int_between(0, len(options) - 1)]


def fuzz_entry(rng, parametric):
    pool = [0, 1, -1, 2, -2, 1, 0, "1/2", "-3/4", "0"]
    odd = ["1/0", "x", "", "2^", "1//2", True, None, 0.5, [1], {"a": 1}, 10 ** 30]
    if parametric:
        pool += ["t", "t^2", "1 + t", "-t", "2*t^3"]
        odd += ["s", "t^", "t/0", "t*x"]
    return pick(rng, odd) if rng.int_between(0, 15) == 0 else pick(rng, pool)


def fuzz_space(rng):
    """A space or family JSON value: mostly well-formed small spaces, with
    malformed fields, shapes and entries mixed in."""
    roll = rng.int_between(0, 19)
    if roll == 0:
        return pick(rng, [[], 3, "space", None, {"basis": []}, {"n": 2}])
    n = rng.int_between(1, 4) if roll > 3 else pick(rng, [0, -1, 2.5, True, "3", None, 5.0])
    size = n if isinstance(n, int) and not isinstance(n, bool) and 1 <= n <= 4 else 2
    parametric = rng.int_between(0, 4) == 0
    basis = []
    for _ in range(rng.int_between(0 if roll == 1 else 1, 4)):
        mat = [[None] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                mat[i][j] = mat[j][i] = fuzz_entry(rng, parametric)
        if rng.int_between(0, 9) == 0:
            mat[0][-1] = 7  # not symmetric (or a changed 1 x 1 entry)
        if rng.int_between(0, 14) == 0:
            mat = mat[:-1] if rng.int_between(0, 1) else [row + [0] for row in mat]
        basis.append(mat)
    if rng.int_between(0, 12) == 0 and basis:
        basis.append(basis[0])  # dependent
    obj = {"n": n, "basis": basis if rng.int_between(0, 19) else "basis"}
    if parametric:
        obj["parametric"] = True
        if rng.int_between(0, 5) == 0:
            obj["param"] = pick(rng, ["s", "", 3, None])
    return obj


RATIONAL_EXPONENT = re.compile(r"\^\s*\d+/\d+")


def fuzz_poly_line(rng):
    if rng.int_between(0, 2):
        terms = []
        for _ in range(rng.int_between(1, 3)):
            mono = "*".join(pick(rng, ["x", "y", "z", "x^2", "y^2"])
                            for _ in range(rng.int_between(1, 2)))
            terms.append(pick(rng, ["", "2*", "-1/3*", "0*"]) + mono)
        return pick(rng, [" + ", " - "]).join(terms)
    tokens = ["x", "y", "z", "2", "1/2", "^", "*", "+", "-", "/", "(", ")", " ", "^2",
              "x^3", "0", "1/0", "^-1", "**", "#", "x1", "."]
    return "".join(pick(rng, tokens) for _ in range(rng.int_between(1, 6)))


#: pieces of ``fuzz_poly_text``: operands (names, p/q, powers, Unicode
#: digits, x^4/2, zero denominators, 4300- and 4301-digit numbers), sign
#: runs, blanks (tab and NBSP among them) and noise
FUZZ_OPERANDS = ["x", "y", "t1", "_a", "B_2", "p012", "0", "7", "12", "007", "1/2", "3/4",
                 "22/7", "5/0", "0/0", "\u0663", "\u0661\u0662", "\uff17", "\u00b2", "x^2",
                 "y^02", "x^0", "x^4/2", "z ^ 3", "x^\u0663", "x^", "1" * 4300, "9" * 4301,
                 "1/" + "3" * 4301, "x^" + "1" * 4301]
FUZZ_SIGNS = ["+", "-", "- -", "+-", "--", "-+-", "+ +"]
FUZZ_BLANKS = ["", "", " ", "  ", "\t", "\u00a0", " \t"]
FUZZ_NOISE = ["*", "^", "/", "(", ")", "**", "#", ".", "x y", "2x", "e5", "+", "-", "x ^ y"]


def fuzz_poly_text(rng):
    """A line of 1-4 terms of 1-3 ``FUZZ_OPERANDS`` joined by ``*``, the
    terms by sign runs, a blank after every piece; every fourth or so gets
    a noise piece at a random place."""
    pieces = [pick(rng, ["", "", "-", "+-"])]
    for k in range(rng.int_between(1, 4)):
        if k:
            pieces.append(pick(rng, FUZZ_SIGNS))
        for j in range(rng.int_between(1, 3)):
            pieces += ["*", pick(rng, FUZZ_OPERANDS)] if j else [pick(rng, FUZZ_OPERANDS)]
    if rng.int_between(0, 3) == 0:
        pieces.insert(rng.int_between(0, len(pieces)), pick(rng, FUZZ_NOISE))
    return "".join(piece + pick(rng, FUZZ_BLANKS) for piece in pieces)


class TestFuzz:
    """Seeded malformed and edge-case inputs (SplitMix64) through the space and
    polynomial commands, in process: every input gets an answer or a typed
    error, never an internal error or a traceback."""

    SPACE_COMMANDS = (["analyze"], ["chow"], ["pencil"], ["copencil"], ["plucker"], ["limit"])

    def test_commands_exit_cleanly(self, tmp_path, capsys):
        rng = SplitMix64(20261018)
        space_file = tmp_path / "space.json"
        poly_file = tmp_path / "system.txt"
        seen = set()
        for k in range(150):
            obj = fuzz_space(rng)
            text = json.dumps(obj) if k % 15 else json.dumps(obj)[:-1]
            space_file.write_text(text)
            for cmd in self.SPACE_COMMANDS:
                code, _, err = run_cli(cmd + [str(space_file), "--json"], capsys)
                assert code in (0, 2, 3), (cmd, text, err)
                assert "Traceback" not in err
                seen.add(code)
        for _ in range(100):
            poly_file.write_text("\n".join(fuzz_poly_line(rng)
                                           for _ in range(rng.int_between(1, 4))))
            degree = str(rng.int_between(-1, 3))
            code, _, err = run_cli(["emptiness", str(poly_file), "--degree", degree, "--json"],
                                   capsys)
            assert code in (0, 2, 3), (poly_file.read_text(), degree, err)
            assert "Traceback" not in err
            seen.add(code)
        assert seen == {0, 2, 3}

    def test_poly_lines_parse_as_the_token_oracle_does(self):
        # the same generator and seed as above; a rational exponent (x^2/2)
        # is the one intended difference: the token oracle reads it as an
        # integer when its value is one
        rng = SplitMix64(20261018)
        outcomes = set()
        for _ in range(3000):
            text = fuzz_poly_line(rng)
            got = parse_outcome(exact.parse_poly, text)
            want = parse_outcome(parse_poly_by_tokens, text)
            if got != want:
                assert got == "PARSE_ERROR" and RATIONAL_EXPONENT.search(text), text
            outcomes.add(got == "PARSE_ERROR")
        assert outcomes == {True, False}

    def test_scanner_matches_the_token_oracle(self):
        # the polynomial or PARSE_ERROR, as the token oracle has it, save a
        # rational exponent (x^4/2), which only the oracle reads
        rng = SplitMix64(2031)
        seen = {"parsed": 0, "PARSE_ERROR": 0, "rational exponent": 0}
        for _ in range(8000):
            text = fuzz_poly_text(rng)
            got = parse_outcome(exact.parse_poly, text)
            want = parse_outcome(parse_poly_by_tokens, text)
            if got != want:
                assert got == "PARSE_ERROR" and RATIONAL_EXPONENT.search(text), text
                seen["rational exponent"] += 1
            seen["parsed" if got != "PARSE_ERROR" else "PARSE_ERROR"] += 1
        assert min(seen.values()) > 100, seen

    def test_integer_poly_is_parse_poly_over_its_lcm(self):
        # the scanner test's strings: integer_poly reads (p', d) with p = p' / d, d
        # the lcm of the denominators written, or the same PARSE_ERROR
        rng = SplitMix64(2031)
        parsed = 0
        for _ in range(8000):
            text = fuzz_poly_text(rng)
            got = parse_outcome(exact.parse_poly, text)
            try:
                p, d = exact.integer_poly(text)
            except InputError as err:
                assert got == err.code == "PARSE_ERROR", text
                continue
            assert d == math.lcm(*(den for _, _, den in exact.scan_terms(text))), text
            assert frozenset((mono, Fraction(c, d)) for mono, c in p.items()) == \
                exact.parse_poly(text)._signature(), text
            parsed += 1
        assert parsed > 1000

    def test_fuzzed_files_never_exit_4(self, tmp_path, capsys):
        # the same texts, 1-3 to a file, through emptiness at degrees -1..3
        rng = SplitMix64(2032)
        poly_file = tmp_path / "system.txt"
        seen = set()
        for _ in range(400):
            poly_file.write_text("\n".join(fuzz_poly_text(rng)
                                           for _ in range(rng.int_between(1, 3))))
            degree = str(rng.int_between(-1, 3))
            code, _, err = run_cli(["emptiness", str(poly_file), "--degree", degree, "--json"],
                                   capsys)
            assert code in (0, 2, 3), (poly_file.read_text(), degree, err)
            assert "Traceback" not in err
            seen.add(code)
        assert seen == {0, 2, 3}
