#!/usr/bin/env bash
# The CLI's scale envelope (README, "Scale envelope"): each row runs one
# `altcycles` command on an adversarial input under a `timeout` budget and
# checks its output. Prints a line per row; exits 1 if any row failed. Needs
# `altcycles` on PATH and, for tests/conftest.py's builders, pytest.
set -u
cd "$(dirname "$0")/.."
d=$(mktemp -d) && trap 'rm -rf "$d"' EXIT
failed=0

# build FILE BUDGET COMMAND...: write COMMAND's stdout to FILE for the rows
build() { timeout "$2" "${@:3}" > "$d/$1" || { echo "FAIL  build $1: exit $?"; failed=1; }; }

# fixture FILE EXPR: write the graph that tests/conftest.py's EXPR builds
fixture() {
  build "$1" 30 python -c "import sys; sys.path.insert(0, 'tests'); import altcycles, conftest
sys.stdout.write(altcycles.serialize_text(conftest.$2))"
}

# check BUDGET CODE STDOUT STDERR COMMAND...: run COMMAND under `timeout
# BUDGET`; compare its exit code, its stdout lines (or their count, written
# `N lines`) and its stderr, a glob pattern (`*` for any)
check() {
  local budget=$1 code=$2 want=$3 err=$4 start=${EPOCHREALTIME//[^0-9]/} status=0 got
  shift 4
  timeout "$budget" "$@" > "$d/out" 2> "$d/err" || status=$?
  local us=$((${EPOCHREALTIME//[^0-9]/} - start)) verdict=ok
  if [[ $want == *' lines' ]]; then got="$(($(wc -l < "$d/out"))) lines"
  else got=$(cat "$d/out"; echo .) want=${want:+$want$'\n'}.; fi  # exact: the `.` keeps newlines
  [[ $status == "$code" && $got == "$want" && $(< "$d/err") == $err ]] || verdict=FAIL failed=1
  printf '%-4s %3d.%02d s of %2d s  %s\n' $verdict $((us / 1000000)) $((us / 10000 % 100)) \
    "$budget" "${*//"$d/"/}"
  [[ $verdict == ok ]] || printf '      got exit %s, stdout %q, stderr %q\n      want exit %s, stdout %q\n' \
    "$status" "${got:0:200}" "$(head -c 200 "$d/err")" "$code" "$want"
}

build family.txt 10 altcycles generate --family counterexample --k1 2500 --k2 2500
build star.txt 30 python -c "print('n 10000'); [print(f'e 0 {v} B') for v in range(1, 10000)]"
build mixed-star.txt 30 python -c "print('n 10000'); [print(f'e 0 {v}', 'RB'[v % 2]) for v in range(1, 10000)]"
build both-star.txt 30 python -c "print('n 10000'); [print(f'e 0 {v} B\ne 0 {v} R') for v in range(1, 10000)]"
fixture ring.txt 'both_colored_ring(1200)'
fixture ring600.txt 'both_colored_ring(600)'
build cex10.txt 30 altcycles generate --family counterexample --k1 10 --k2 10
build cex16.txt 30 altcycles generate --family counterexample --k1 16 --k2 16
fixture apex.txt 'blue_apex(200, 1)'
fixture pendant.txt 'blue_apex(200, 1, (1,))'
fixture gate.txt 'gate_gadget(200, 1, True)'
fixture both-star400.txt 'hub_shape("star", 400)'
build closure40.txt 30 altcycles generate --family closure-2m --n 40 --density 0.1 --seed 3
build complete1001.txt 30 altcycles generate --family complete-random --n 1001 --seed 1
build complete100.txt 30 altcycles generate --family complete-random --n 100 --seed 1
build complete1000.txt 30 altcycles generate --family complete-random --n 1000 --seed 1

check 10 0 true '*' altcycles check --predicate 2nm-closed "$d/family.txt"
check 10 0 '35006 lines' '*' altcycles export-dot "$d/family.txt"
check 10 4 $'not-2m-closed\nwitness 2path 0 2 4' '*' altcycles solve "$d/family.txt"
check 10 1 $'false\nwitness 2path 1 0 2' '*' altcycles check --predicate 2m-closed "$d/star.txt"
check 10 0 true '*' altcycles check --predicate 2nm-closed "$d/star.txt"
check 10 1 $'false\nwitness 2path 1 0 3' '*' altcycles check --predicate 2m-closed "$d/mixed-star.txt"
check 10 1 $'false\nwitness 2path 1 0 2' '*' altcycles check --predicate 2nm-closed "$d/mixed-star.txt"
check 10 0 true '*' altcycles check --predicate closed-alternating "$d/mixed-star.txt"
check 10 0 true '*' altcycles check --predicate closed-alternating "$d/both-star.txt"
check 10 0 '600 lines' '*' altcycles factor "$d/ring.txt"
check 10 0 '1 lines' '*' altcycles factor --min-cycle-len 4 "$d/ring.txt"
check 10 0 '300 lines' '*' altcycles oracle factor "$d/ring600.txt"
check 10 70 '' 'error: exhaustive search exceeded the recursion limit' altcycles oracle factor "$d/ring.txt"
check 10 0 true '*' altcycles check --predicate color-connected "$d/cex10.txt"
check 10 0 true '*' altcycles check --predicate color-connected "$d/cex16.txt"
check 10 1 $'false\nwitness pair 0 200' '*' altcycles check --predicate color-connected "$d/apex.txt"
check 10 1 $'false\nwitness pair 0 200' '*' altcycles check --predicate color-connected "$d/pendant.txt"
check 10 1 $'false\nwitness pair 0 200' '*' altcycles check --predicate color-connected "$d/gate.txt"
check 10 0 true '*' altcycles check --predicate color-connected "$d/both-star400.txt"
check 10 0 true '*' altcycles check --predicate 2m-closed "$d/closure40.txt"
check 5 2 no-factor '*' altcycles solve "$d/complete1001.txt"
check 10 0 true '*' altcycles check --predicate closed-alternating "$d/complete100.txt"
check 10 0 '2 lines' '*' altcycles solve "$d/complete1000.txt"
exit $failed
