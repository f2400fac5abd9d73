#!/usr/bin/env bash
# Pins `repro`'s one-off subcommands: runs each invocation below on a
# small fixed input and prints the command line, its stdout, its stderr
# (each line prefixed "stderr: ") and its exit code.  Every run is
# seeded and takes milliseconds.  From the repository root, after
# `dune build`:
#
#   bash tools/repro_cli_golden.sh | diff -u bench/golden/repro_cli.txt -
#
# REPRO names the binary to run (default: the dune build's).
set -u
repro=${REPRO:-./_build/default/bin/repro.exe}
err=$(mktemp)
trap 'rm -f "$err"' EXIT

run() {
  echo "\$ repro $*"
  code=0
  "$repro" "$@" 2> "$err" || code=$?
  sed 's/^/stderr: /' "$err"
  echo "[exit $code]"
}

run simulate -n 64 --steps 2000
run simulate -n 32 -m 64 --scenario B --rule adap:1,2,2,3 --steps 2000 --adversarial
run recover -n 32 --reps 5
run recover -n 32 -m 48 --scenario B --rule abku:3 --reps 5
run recover -n 16 --target 3 --reps 3 --seed 7
run couple -n 32 --reps 5
run couple -n 16 --scenario B --rule adap:1,2,2,3 --reps 5
run edge -n 32 --steps 1000
run edge -n 16 --steps 500 --adversarial
run exact -n 6 --starts all
run exact -n 8 --scenario B --starts extremal
run exact -n 5 -m 7 --rule adap:2,3 --eps 0.1
run fluid -n 100
run fluid -n 100 -m 200 --scenario B -d 3
run tv -n 16 --reps 50
run tv -n 12 --scenario B --rule adap:1,2,2,3 --reps 50
run weighted -n 64 --tail pareto
run weighted -n 8 -m 0 -d 3
run parallel -n 64 -d 3
run parallel -n 32 -m 0 --rounds 2
run removal -n 16 --law squared
run removal -n 12 --law b --rule adap:1,2,2,3
run validate --quick --list
run validate --quick --only EdgeClass
run recover -n 1
run couple -n 8 -m 1 --scenario B
run tv -n 8 -m 1 --scenario B
run simulate -n 8 -m 0
run weighted -n 8 -d 0
run recover -n 8 --reps 0
run exact -n 4 --domains 0
