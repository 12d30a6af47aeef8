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
# the full verification suite on the installed package: no check fails, and it runs
# as many checks as the committed golden lists
jordanet verify --json > verify.json
python -c 'import json, sys; r, g = (json.load(open(f)) for f in ("verify.json", sys.argv[1])); sys.exit(r["failed"] != 0 or r["passed"] != sum(map(len, g.values())))' "$tests/data/verify_golden.json"
# the rank-8 net over denominators 2 and 3 against its integer multiple (the same space):
# the Chow matrix is read off (B', L) over (-1)^(n-1) L^(n-1)
echo '{"n": 4, "basis": [[["1/2", 0, 0, 0], [0, "1/2", 0, 0], [0, 0, "1/2", 0], [0, 0, 0, "1/2"]], [["1/3", 0, 0, 0], [0, "-1/3", 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], [[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]]]}' > rank8_sixths.json
echo '{"n": 4, "basis": [[[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]], [[2, 0, 0, 0], [0, -2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], [[0, 6, 6, 0], [6, 0, 0, 6], [6, 0, 0, 6], [0, 6, 6, 0]]]}' > rank8_times6.json
jordanet chow rank8_sixths.json --json > chow_sixths.json
jordanet chow rank8_times6.json --json > chow_times6.json
python -c 'import json, sys; a, b = (json.load(open(f)) for f in ("chow_sixths.json", "chow_times6.json")); sys.exit((a["rank"], a["kernel_forms"]) != (b["rank"], b["kernel_forms"]) or a["rank"] != 8)'
python -c "import jordanet.cli, sys; sys.exit('dataclasses' in sys.modules)"
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
jordanet plucker catalog://netrank8 --json > plucker.json
python -c 'import json, sys; sys.exit(json.load(open("plucker.json"))["coordinates"] != 120)'
quadrics=$(python -c 'import jordanet, pathlib; print(pathlib.Path(jordanet.__file__).parent / "data" / "polynomials" / "jordan_net_quadrics.txt")')
jordanet emptiness "$quadrics" --degree 3 --json > emptiness.json
python -c 'import json, sys; r = json.load(open("emptiness.json")); sys.exit((r["span_rank"], r["span_target"]) != (36, 364))'
# a larger, sparse Macaulay matrix (1365 columns) on the fraction-free echelon
jordanet emptiness "$quadrics" --degree 4 --json > emptiness_4.json
python -c 'import json, sys; r = json.load(open("emptiness_4.json")); sys.exit((r["span_rank"], r["span_target"]) != (231, 1365))'
# every degeneration's limit, its valuation read off integer minors: the limit's net
# class is the target named after the id's dash
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
jordanet chow catalog://netrank8 --json > chow_rank8.json
python -c 'import json, sys; sys.exit(json.load(open("chow_rank8.json"))["kernel_forms"] != ["2*z12 - z13 - z24", "z14 - z23 - z33 + z44"])'
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
