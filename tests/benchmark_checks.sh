#!/usr/bin/env bash
# The benchmark's answer checks and output digests at seed 0, run from any
# directory:
#
#     bash /path/to/checkout/tests/benchmark_checks.sh
#
# Tier-1 does not run benchmark/run.py, which checks every workload's answers
# and prints one json_sha256 per workload over its outputs.  This runs each
# workload for one second (about 15 s in all on 2 CPUs) and fails unless the
# report's last line has "correct": true and "failed": 0, and the four
# digests equal the seed-0 digests pinned below: a change that moves an
# answer or a byte of any workload's output shows here.
set -eo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$(mktemp)"
trap 'rm -f "$out"' EXIT

python3 benchmark/run.py --workload all --seed 0 --seconds 1 --trace 0 > "$out"
tail -n 1 "$out" | python3 -c '
import json, sys
report = json.load(sys.stdin)
correct, failed = report["correct"], report["failed"]
if correct is not True or failed != 0:
    sys.exit(f"benchmark answers: correct {correct}, failed {failed}")
'
awk '$2 == "json_sha256" {print $1, $4}' "$out" | diff - <(cat <<'EOF'
classify_images 7bef2db7d8e433d7eb2c7cc528d10f51b28275df2a49c266cfcea8647d0fd96e
closure_random 40414d6788c7a96aa70690a1b948bc4b78d805c1807ed7779f6152fafc4a6802
certificates 65016940d255ae8f24080304f53bc007581b24ce59280d4432433eda8f3d69c0
cli_cold f714f0a8aebe24a447fd32312c97f6ebe8602dcd9232a16b90d415715265907c
EOF
)
echo "benchmark answers correct, 0 failed, seed-0 digests unchanged"
