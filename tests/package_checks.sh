#!/usr/bin/env bash
# Checks of the installed package, run through its console script from any
# directory outside the checkout, where they leave their files:
#
#     cd "$(mktemp -d)" && bash /path/to/checkout/tests/package_checks.sh
#
# Tier-1 imports the package from src/, so a data file missing from the built
# package (pyproject's package-data globs) shows only here.  Each check exits
# nonzero on a wrong answer, and the script stops at the first.
set -eo pipefail
tests="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if ! command -v jordanet > /dev/null; then
    echo "package_checks.sh: no jordanet console script on PATH; run 'pip install .' first" >&2
    exit 1
fi
if ! python -c 'import jordanet' 2> /dev/null; then
    echo "package_checks.sh: python cannot import jordanet; run 'pip install .' first" >&2
    exit 1
fi

# --json prints the bytes json.tool reprints with a one-space indent and sorted keys
for run in "analyze catalog://dim4/L2flip" "chow catalog://netrank8" "plucker catalog://netrank8" \
           "limit catalog://degen/1a-2a1" "verify --subset intro"; do
  jordanet $run --json > report.json
  python -m json.tool --indent 1 --sort-keys report.json > reprinted.json
  cmp report.json reprinted.json
done
# the command line is read off one table: --help lists the nine commands, a command without
# its positional exits 2 with its usage on stderr and nothing on stdout, and --degree=2 and
# the prefix --deg each read as --degree 2
jordanet --help > help.txt
for cmd in analyze chow pencil copencil plucker limit emptiness verify catalog; do
  grep -q "^ *jordanet $cmd " help.txt
done
code=0; jordanet analyze > usage_out.txt 2> usage_err.txt || code=$?
test "$code" = 2 && test ! -s usage_out.txt
grep -q "^usage: jordanet analyze" usage_err.txt
# python -OO strips docstrings, not the synopsis: the same help, usage line and --json bytes
python -OO -m jordanet.cli --help > help_oo.txt
for cmd in analyze chow pencil copencil plucker limit emptiness verify catalog; do
  grep -q "^ *jordanet $cmd " help_oo.txt
done
cmp help.txt help_oo.txt
code=0; python -OO -m jordanet.cli chow --bogus > usage_oo_out.txt 2> usage_oo_err.txt || code=$?
test "$code" = 2 && test ! -s usage_oo_out.txt
grep -q "^usage: jordanet chow <file|catalog://id>" usage_oo_err.txt
jordanet analyze catalog://dim4/L2flip --json > report_plain.json
python -OO -m jordanet.cli analyze catalog://dim4/L2flip --json > report_oo.json
cmp report_plain.json report_oo.json
printf 'x*y\nx^2\ny^2\n' > degree_system.txt
jordanet emptiness degree_system.txt --degree 2 --json > degree_apart.json
jordanet emptiness degree_system.txt --degree=2 --json > degree_equals.json
jordanet emptiness degree_system.txt --deg 2 --json > degree_prefix.json
cmp degree_apart.json degree_equals.json
cmp degree_apart.json degree_prefix.json
jordanet analyze catalog://s4/3b1 --json > analyze.json
jordanet analyze catalog://s4/3b2 --json > analyze_3b2.json
jordanet analyze catalog://dim4/L2flip --json > analyze_flip.json
jordanet chow --generic-n3 --json > chow.json
python -c 'import json, sys; sys.exit(json.load(open("analyze.json"))["net_class"] != "3b1")'
python -c 'import json, sys; sys.exit(json.load(open("analyze_3b2.json"))["net_class"] != "3b2")'
# the multiplicity partition alone tells 2a2, (3, 1), from 2a1; 1b has (2, 2)
jordanet analyze catalog://s4/2a2 --json > analyze_2a2.json
jordanet analyze catalog://s4/1b --json > analyze_1b.json
python -c 'import json, sys; sys.exit(json.load(open("analyze_2a2.json"))["net_class"] != "2a2")'
python -c 'import json, sys; sys.exit(json.load(open("analyze_1b.json"))["net_class"] != "1b")'
# rad^2 = 1 tells 3a from the 3b classes
jordanet analyze catalog://s4/3a --json > analyze_3a.json
python -c 'import json, sys; sys.exit(json.load(open("analyze_3a.json"))["net_class"] != "3a")'
# the other three nets, so that every multiplicity partition runs on the installed package
for label in 1a 2a1 2b; do
  jordanet analyze "catalog://s4/$label" --json > "analyze_$label.json"
  python -c 'import json, sys; sys.exit(json.load(open(sys.argv[1] + ".json"))["net_class"] != sys.argv[1][8:])' "analyze_$label"
done
# a pencil's partition is one integer polynomial in lam, with no variable: V1 and V2 in
# S^4 and the nilpotent pencil <antidiag(1, 1, 1), E11> in S^3
echo '{"n": 4, "basis": [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], [[2, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]]}' > pencil_v1.json
echo '{"n": 4, "basis": [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]]}' > pencil_v2.json
echo '{"n": 3, "basis": [[[0, 0, 1], [0, 1, 0], [1, 0, 0]], [[1, 0, 0], [0, 0, 0], [0, 0, 0]]]}' > pencil_nil.json
for case in v1:V1 v2:V2 nil:nilpotent; do
  jordanet pencil "pencil_${case%%:*}.json" --json > "pencil_${case%%:*}_out.json"
  python -c 'import json, sys; sys.exit(json.load(open(sys.argv[1]))["label"] != sys.argv[2])' "pencil_${case%%:*}_out.json" "${case#*:}"
done
# P^T B P for a fixed integer P: 2a1 and 2a2 differ only in their partitions, (2, 2) and
# (3, 1), each read off one integer point of the image
for label in 2a1 2a2; do
  python - "$label" > "image_$label.json" <<'PY'
import json, sys
from jordanet.catalog import canonical
from jordanet.linalg import frac_str
p = [[2, 1, 0, 0], [0, 1, -1, 0], [1, 0, 1, 1], [0, 0, 1, 3]]
image = [[[sum(p[k][i] * b[k, l] * p[l][j] for k in range(4) for l in range(4)) for j in range(4)]
          for i in range(4)] for b in canonical(f"s4/{sys.argv[1]}").basis]
print(json.dumps({"n": 4, "basis": [[[frac_str(x) for x in row] for row in m] for m in image]}))
PY
  jordanet analyze "image_$label.json" --json > "analyze_image_$label.json"
  python -c 'import json, sys; sys.exit(json.load(open(sys.argv[1]))["net_class"] != sys.argv[2])' "analyze_image_$label.json" "$label"
done
# the full verification suite on the installed package: no check fails, and each
# check's name, verdict and detail are the committed golden's, criterion by criterion
jordanet verify --json > verify.json
python - "$tests/data/verify_golden.json" <<'PY'
import json, sys
got, golden = json.load(open("verify.json")), json.load(open(sys.argv[1]))
want = [check for number in sorted(golden) for check in golden[number]]
if got["failed"] or len(got["checks"]) != len(want):
    sys.exit(f"verify: {got['failed']} failed, {len(got['checks'])} checks for {len(want)}")
for k, (a, b) in enumerate(zip(got["checks"], want)):
    if a != b:
        sys.exit(f"verify check {k}: {a} != {b}")
PY
# every CLI golden (analyze, chow, plucker and limit on the catalog, copencil on the
# copencils, analyze and chow --det-stats on the seeded spaces, each written to its file
# first), stdout byte for byte through the console script
python - "$tests/data/cli_goldens.json" <<'PY'
import json, pathlib, subprocess, sys
for case in json.load(open(sys.argv[1])):
    if "space" in case:
        pathlib.Path(case["argv"][1]).write_text(json.dumps(case["space"]))
    run = subprocess.run(["jordanet"] + case["argv"], stdout=subprocess.PIPE)
    if (run.returncode, run.stdout) != (0, case["stdout"].encode()):
        sys.exit(f"golden differs: jordanet {' '.join(case['argv'])}")
PY
# chow on a closed net and on the net in S^5, byte for byte against their goldens: the
# rank and kernel forms come off the integer Chow matrix (C', L^(n-1)), whose rows are
# plain ints (rank 8 for the rank-8 net)
for id in nets/L2 s5/Lstar; do
  out="chow_${id//\//_}"
  jordanet chow "catalog://$id" --json > "$out.json"
  python - "$tests/data/cli_goldens.json" "$id" > "${out}_golden.json" <<'PY'
import json, sys
argv = ["chow", f"catalog://{sys.argv[2]}", "--json"]
sys.stdout.write(next(c for c in json.load(open(sys.argv[1])) if c["argv"] == argv)["stdout"])
PY
  cmp "$out.json" "${out}_golden.json"
done
python - <<'PY'
import sys
from jordanet.catalog import canonical
from jordanet.chow import chow_matrix
from jordanet.linalg import rref
rows, den = chow_matrix(canonical("netrank8"))
plain = type(den) is int and all(type(x) is int for row in rows for x in row)
sys.exit(not plain or rref(rows).rank != 8)
PY
# the rank-8 net over denominators 2 and 3 against its integer multiple (the same space):
# the Chow matrix is read off (B', L) over L^(n-1)
echo '{"n": 4, "basis": [[["1/2", 0, 0, 0], [0, "1/2", 0, 0], [0, 0, "1/2", 0], [0, 0, 0, "1/2"]], [["1/3", 0, 0, 0], [0, "-1/3", 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], [[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]]]}' > rank8_sixths.json
echo '{"n": 4, "basis": [[[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]], [[2, 0, 0, 0], [0, -2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], [[0, 6, 6, 0], [6, 0, 0, 6], [6, 0, 0, 6], [0, 6, 6, 0]]]}' > rank8_times6.json
jordanet chow rank8_sixths.json --json > chow_sixths.json
jordanet chow rank8_times6.json --json > chow_times6.json
python -c 'import json, sys; a, b = (json.load(open(f)) for f in ("chow_sixths.json", "chow_times6.json")); sys.exit((a["rank"], a["kernel_forms"]) != (b["rank"], b["kernel_forms"]) or a["rank"] != 8)'
python -c "import jordanet.cli, sys; sys.exit('dataclasses' in sys.modules)"
# with no bytecode written, every module a process imports is compiled: importing the
# CLI loads none of the layers a command imports only when it runs them (the polynomial
# layer and the seeded generator among them), and the console script's analyze of a
# space that is not closed prints its golden bytes
PYTHONDONTWRITEBYTECODE=1 python -c 'import jordanet.cli, sys; sys.exit(any(f"jordanet.{m}" in sys.modules for m in ("catalog", "chow", "classify", "exact", "modular", "prng", "varieties", "verify")))'
PYTHONDONTWRITEBYTECODE=1 jordanet analyze catalog://dim4/L2flip --json > analyze_flip_cold.json
python - "$tests/data/cli_goldens.json" > analyze_flip_golden.json <<'PY'
import json, sys
argv = ["analyze", "catalog://dim4/L2flip", "--json"]
sys.stdout.write(next(c for c in json.load(open(sys.argv[1])) if c["argv"] == argv)["stdout"])
PY
cmp analyze_flip_cold.json analyze_flip_golden.json
# classification is linear algebra and one integer polynomial in lam per point: with no
# bytecode, the console script's analyze of a catalog net and pencil of a file import
# neither the polynomial layer exact nor the Macaulay layer varieties (PYTHONPROFILEIMPORTTIME
# names every module a process imports), and print their golden bytes
python - "$tests/data/cli_goldens.json" > analyze_3b1_golden.json <<'PY'
import json, sys
argv = ["analyze", "catalog://s4/3b1", "--json"]
sys.stdout.write(next(c for c in json.load(open(sys.argv[1])) if c["argv"] == argv)["stdout"])
PY
printf '{\n "command": "pencil",\n "input": "pencil_v1.json",\n "kind": "diagonalizable",\n "label": "V1"\n}\n' > pencil_v1_golden.json
for run in "analyze catalog://s4/3b1 --json:analyze_3b1" "pencil pencil_v1.json --json:pencil_v1"; do
  PYTHONDONTWRITEBYTECODE=1 PYTHONPROFILEIMPORTTIME=1 jordanet ${run%:*} > "${run##*:}_cold.json" 2> "${run##*:}_imports.txt"
  grep -Eq '\| +jordanet\.classify$' "${run##*:}_imports.txt"
  if grep -Eq '\| +jordanet\.(exact|varieties)$' "${run##*:}_imports.txt"; then
    echo "jordanet ${run%:*} imports exact or varieties" >&2
    exit 1
  fi
  cmp "${run##*:}_cold.json" "${run##*:}_golden.json"
done
python -c 'import json, sys; r = json.load(open("analyze_flip.json")); sys.exit((r["jordan"], r["closure_dim"]) != (False, 6))'
# the closure dimension is the rank of the integer echelon the closure grows
jordanet analyze catalog://netrank8 --json > analyze_rank8.json
jordanet analyze catalog://nets/L3 --json > analyze_L3.json
python -c 'import json, sys; sys.exit(json.load(open("analyze_rank8.json"))["closure_dim"] != 10)'
python -c 'import json, sys; sys.exit(json.load(open("analyze_L3.json"))["closure_dim"] != 10)'
# the closure of a dense net in S^8, grown from its products, is all 36 dimensions
python -c 'import json; from jordanet.prng import SplitMix64; r = SplitMix64(808); u = [[[r.int_between(-3, 3) for j in range(8)] for i in range(8)] for _ in range(3)]; print(json.dumps({"n": 8, "basis": [[[m[min(i, j)][max(i, j)] for j in range(8)] for i in range(8)] for m in u]}))' > dense8.json
jordanet analyze dense8.json --json > analyze_dense8.json
python -c 'import json, sys; sys.exit(json.load(open("analyze_dense8.json"))["closure_dim"] != 36)'
# a dense net in S^10: its closure, all 55 dimensions, reads only the rank of the
# forward echelon it grows
python -c 'import json; from jordanet.prng import SplitMix64; r = SplitMix64(818); u = [[[r.int_between(-3, 3) for j in range(10)] for i in range(10)] for _ in range(3)]; print(json.dumps({"n": 10, "basis": [[[m[min(i, j)][max(i, j)] for j in range(10)] for i in range(10)] for m in u]}))' > dense10.json
jordanet analyze dense10.json --json > analyze_dense10.json
python -c 'import json, sys; sys.exit(json.load(open("analyze_dense10.json"))["closure_dim"] != 55)'
# a congruence image P^T B P of Sym(4) + Sym(3) (P = 5I + entries in {-2..2}): its first
# 32 sweep points are singular and its determinant too large to expand, so a seeded
# dense point is its unit
python -c 'import json; from jordanet.prng import SplitMix64; r = SplitMix64(0); p = [[5 * (i == j) + r.int_between(-2, 2) for j in range(7)] for i in range(7)]; e = [(i, j) for s, k in ((0, 4), (4, 3)) for i in range(s, s + k) for j in range(i, s + k)]; print(json.dumps({"n": 7, "basis": [[[p[i][a] * p[j][b] + p[j][a] * p[i][b] if i != j else p[i][a] * p[i][b] for b in range(7)] for a in range(7)] for i, j in e]}))' > block43.json
jordanet analyze block43.json --json > analyze_block43.json
python -c 'import json, sys; r = json.load(open("analyze_block43.json")); sys.exit((r["regular"], r["jordan"], r["closure_dim"]) != (True, True, 16))'
# the same for Sym(3) + Sym(3): its determinant is small enough to expand, but the
# dense points come first
python -c 'import json; from jordanet.prng import SplitMix64; r = SplitMix64(0); p = [[5 * (i == j) + r.int_between(-2, 2) for j in range(6)] for i in range(6)]; e = [(i, j) for s, k in ((0, 3), (3, 3)) for i in range(s, s + k) for j in range(i, s + k)]; print(json.dumps({"n": 6, "basis": [[[p[i][a] * p[j][b] + p[j][a] * p[i][b] if i != j else p[i][a] * p[i][b] for b in range(6)] for a in range(6)] for i, j in e]}))' > block33.json
jordanet analyze block33.json --json > analyze_block33.json
python -c 'import json, sys; r = json.load(open("analyze_block33.json")); sys.exit((r["regular"], r["jordan"], r["closure_dim"]) != (True, True, 12))'
# a Fraction determinant read off the echelon: the Chow matrix of <I, E12 + E21, E13 + E31>
echo '{"n": 3, "basis": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [1, 0, 0], [0, 0, 0]], [[0, 0, 1], [0, 0, 0], [1, 0, 0]]]}' > net_e.json
jordanet chow net_e.json --det-stats --json > chow_det.json
python -c 'import json, sys; sys.exit(json.load(open("chow_det.json"))["det_value"] != "-1")'
python -c 'import json, sys; sys.exit(json.load(open("chow.json"))["det_terms"] != 22659)'
# with no space, --det-stats prints the bytes of --generic-n3, and the installed package's
# generic Chow form counts its terms off the packed determinant
jordanet chow --det-stats --json > chow_stats.json
cmp chow.json chow_stats.json
python - <<'PY'
import sys
from jordanet.chow import chow_det_generic
sys.exit(chow_det_generic(3).term_count() != 22659)
PY
# the generic Chow form keeps at most two layers of minors: its process peaks under 4.5 MB
# above chow catalog://netrank8, which imports the same modules and does little work.
# Each child's peak RSS is read by os.wait4; on Linux it is at least the peak of the
# process that started it, so this checker starts them before it holds anything large
python - <<'PY'
import json, os, shutil, subprocess, sys

def run(*argv):
    child = subprocess.Popen([shutil.which("jordanet"), *argv, "--json"], stdout=subprocess.PIPE)
    out = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        sys.exit(f"jordanet {' '.join(argv)} exited {child.returncode}")
    return json.loads(out), usage.ru_maxrss  # KB on Linux

(generic, generic_kb), (_, small_kb) = run("chow", "--generic-n3"), run("chow", "catalog://netrank8")
print(f"chow --generic-n3 peak RSS {generic_kb} KB, chow catalog://netrank8 {small_kb} KB")
sys.exit(generic["det_terms"] != 22659 or generic_kb - small_kb >= 4.5 * 1024)
PY
jordanet plucker catalog://netrank8 --json > plucker.json
python -c 'import json, sys; sys.exit(json.load(open("plucker.json"))["coordinates"] != 120)'
# the 2a1 separator quadric in dual Pluecker coordinates tells 3b1 (value 1) from 2a1 (0),
# from integer minors and an integer evaluation
jordanet plucker catalog://s4/3b1 --json > plucker_3b1.json
jordanet plucker catalog://s4/2a1 --json > plucker_2a1.json
python -c 'import json, sys; sys.exit(json.load(open("plucker_3b1.json"))["certificate_values"]["plucker_separator_2a1_quadric"] != "1")'
python -c 'import json, sys; sys.exit(json.load(open("plucker_2a1.json"))["certificate_values"]["plucker_separator_2a1_quadric"] != "0")'
quadrics=$(python -c 'import jordanet, pathlib; print(pathlib.Path(jordanet.__file__).parent / "data" / "polynomials" / "jordan_net_quadrics.txt")')
jordanet emptiness "$quadrics" --degree 3 --json > emptiness.json
python -c 'import json, sys; r = json.load(open("emptiness.json")); sys.exit((r["span_rank"], r["span_target"]) != (36, 364))'
# a larger, sparse Macaulay matrix (1365 columns) on the fraction-free echelon
jordanet emptiness "$quadrics" --degree 4 --json > emptiness_4.json
python -c 'import json, sys; r = json.load(open("emptiness_4.json")); sys.exit((r["span_rank"], r["span_target"]) != (231, 1365))'
# every degeneration's limit, its passes bounded by the powers of t in its rows: the
# limit's net class is the target named after the id's dash
for id in 1a-2a1 1a-2a2 1b-2b 1b-3b1 2a1-3a 2a2-3a 2a2-3b1 2b-3b2 3a-3b2 3b1-3b2; do
  jordanet limit "catalog://degen/$id" --json > "limit_$id.json"
  python -c 'import json, sys; sys.exit(json.load(open(sys.argv[1]))["net_class"] != sys.argv[2])' "limit_$id.json" "${id#*-}"
done
# a family file in the parameter s over denominators 2 and 3, read straight into its
# rows of {power: coefficient}: -6 times the first row plus the second is s^2 E12
echo '{"n": 2, "parametric": true, "param": "s", "basis": [[["1/3", "1/2*s"], ["1/2*s", 0]], [[2, "3*s + s^2"], ["3*s + s^2", 0]]]}' > family_s.json
jordanet limit family_s.json --json > limit_s.json
python -c 'import json, sys; sys.exit(json.load(open("limit_s.json"))["basis"] != [[["1/3", "0"], ["0", "0"]], [["0", "1"], ["1", "0"]]])'
# an asymmetric family is refused where it enters: NOT_SYMMETRIC, exit 3
echo '{"n": 2, "parametric": true, "basis": [[["1", "t"], ["2*t", "0"]], [[0, 0], [0, 1]]]}' > family_asym.json
code=0; jordanet limit family_asym.json --json > limit_asym.json 2> limit_asym.err || code=$?
test "$code" = 3
grep -q "^error: NOT_SYMMETRIC" limit_asym.err
# 20 dense matrices in S^6, some entries k*t: the first evaluation at t = 0 has full
# rank and returns, and none of the family's 2^21 - 1 column subsets is visited
python -c 'import json; from jordanet.prng import SplitMix64; r = SplitMix64(11); e = lambda c: f"{c}*t" if r.int_between(0, 1) else str(c); up = [[e(r.nonzero_int_between(-3, 3)) for _ in range(21)] for _ in range(20)]; p = [(i, j) for i in range(6) for j in range(i, 6)]; print(json.dumps({"n": 6, "parametric": True, "basis": [[[u[p.index((min(a, b), max(a, b)))] for b in range(6)] for a in range(6)] for u in up]}))' > family_s6.json
timeout 10 jordanet limit family_s6.json --json > limit_s6.json
python -c 'import json, sys; sys.exit(json.load(open("limit_s6.json"))["m"] != 20)'
# B2 = t B1 with B1 = diag(1, t): rows dependent over Q(t) are NOT_GENERIC_RANK, exit 3
echo '{"n": 2, "parametric": true, "basis": [[["1", "0"], ["0", "t"]], [["t", "0"], ["0", "t^2"]]]}' > family_dep.json
code=0; jordanet limit family_dep.json --json > limit_dep.json 2> limit_dep.err || code=$?
test "$code" = 3
grep -q "^error: NOT_GENERIC_RANK" limit_dep.err
jordanet chow catalog://netrank8 --json > chow_rank8.json
python -c 'import json, sys; sys.exit(json.load(open("chow_rank8.json"))["kernel_forms"] != ["2*z12 - z13 - z24", "z14 - z23 - z33 + z44"])'
# the diagonal net <E11, E22, E33>: adj diag(t1, t2, t3) = diag(t2 t3, t1 t3, t1 t2), a
# Chow matrix with one nonzero cell in each diagonal row, so rank 3 and the off-diagonal forms
echo '{"n": 3, "basis": [[[1, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 1]]]}' > net_diag.json
jordanet chow net_diag.json --json > chow_diag.json
python -c 'import json, sys; r = json.load(open("chow_diag.json")); sys.exit((r["rank"], r["kernel_forms"]) != (3, ["z12", "z13", "z23"]))'
# a basis over denominators 3 and 2: the identity test reduces L I on the integer basis
# (B', L), and its coordinates over B' are those of I over B
echo '{"n": 2, "basis": [[["1/3", 0], [0, "1/3"]], [[0, "1/2"], ["1/2", 0]]]}' > thirds.json
jordanet analyze thirds.json --json > analyze_thirds.json
python -c 'import json, sys; sys.exit(json.load(open("analyze_thirds.json"))["unit_coordinates"] != ["3", "0"])'
# one variable at degree 10^9: a 1 x 1 Macaulay matrix, its monomials yielded as exponent tuples
echo 't1^2' > square.txt
jordanet emptiness square.txt --degree 1000000000 --json > emptiness_billion.json
python -c 'import json, sys; sys.exit(json.load(open("emptiness_billion.json"))["kind"] != "CERTIFIED_EMPTY")'
python -c 'print(" + ".join(f"x{i}" for i in range(1200)))' > linear.txt
jordanet emptiness linear.txt --degree 1 --json > linear.json
python -c 'import json, sys; sys.exit(json.load(open("linear.json"))["span_target"] != 1200)'

# a system with rational coefficients and a repeated monomial (5/6 (xy - z^2) and
# 3/4 (x^2 - wy)) against the same system in integer form: one span, read off integer rows
printf '1/2*x*y + 1/3*y*x - 5/6*z^2\n3/4*x^2 - 1/4*w*y - 1/2*y*w\n' > rational.txt
printf 'x*y - z^2\nx^2 - w*y\n' > integer.txt
jordanet emptiness rational.txt --degree 6 --json > emptiness_rational.json
jordanet emptiness integer.txt --degree 6 --json > emptiness_integer.json
python -c 'import json, sys; a, b = (json.load(open(f)) for f in ("emptiness_rational.json", "emptiness_integer.json")); sys.exit(a["span_rank"] != b["span_rank"] or (a["span_rank"], a["span_target"]) != (60, 84))'
# the 21 rank-one minors of a dense 4-dimensional subspace of S^4 span all 10 quadrics,
# which their rank mod 134217689 proves; times that prime they have rank 0 mod it, so
# the exact echelon answers, and both certify at degree 2 with span rank 10
for scale in 1 134217689; do
  python - "$scale" > "rank_one_$scale.txt" <<'PY'
import sys
from jordanet.exact import integer_poly
from jordanet.linalg import Mat
from jordanet.prng import SplitMix64
from jordanet.spaces import make_space
from jordanet.varieties import rank_one_system
r, scale = SplitMix64(49), int(sys.argv[1])
dense = lambda: [[r.int_between(-3, 3) for _ in range(4)] for _ in range(4)]
space = make_space(4, [Mat.from_ints([[u[min(i, j)][max(i, j)] for j in range(4)] for i in range(4)])
                       for u in (dense() for _ in range(4))])
for p in rank_one_system(space):
    print(" + ".join(f"{scale * c}*" + "*".join(f"{v}^{e}" for v, e in mono)
                     for mono, c in integer_poly(str(p))[0].items()))
PY
  jordanet emptiness "rank_one_$scale.txt" --degree 2 --json > "emptiness_rank_one_$scale.json"
done
python -c 'import json, sys; a, b = (json.load(open(f"emptiness_rank_one_{s}.json")) for s in (1, 134217689)); sys.exit((a["kind"], a["span_rank"]) != (b["kind"], b["span_rank"]) or (a["kind"], a["span_rank"]) != ("CERTIFIED_EMPTY", 10))'
# Macaulay certificates from the reduced basis of each degree part: the mixed
# degrees {x*y, x^3 + y^3} span 3 of the 4 cubics at degree 3 and all 5 quartics
# at degree 4
printf 'x*y\nx^3 + y^3\n' > mixed.txt
jordanet emptiness mixed.txt --degree 3 --json > emptiness_mixed_3.json
jordanet emptiness mixed.txt --degree 4 --json > emptiness_mixed_4.json
python -c 'import json, sys; r = json.load(open("emptiness_mixed_3.json")); sys.exit((r["kind"], r["span_rank"], r["span_target"]) != ("UNKNOWN", 3, 4))'
python -c 'import json, sys; r = json.load(open("emptiness_mixed_4.json")); sys.exit((r["kind"], r["span_rank"], r["span_target"]) != ("CERTIFIED_EMPTY", 5, 5))'
# the two quadrics at degree 15 (1120 x 816): multiples of two reduced rows, answered at once
timeout 10 jordanet emptiness integer.txt --degree 15 --json > emptiness_15.json
python -c 'import json, sys; r = json.load(open("emptiness_15.json")); sys.exit((r["span_rank"], r["span_target"]) != (756, 816))'
