#!/bin/sh
# Golden check of `tecore-cli solve --out` on the running example (gen
# --dataset example) under the paper's rules: MLN, PSL, and an incremental
# re-solve through an edit script. Only the written files are compared;
# stdout carries timings.
#
#   tests/cli_solve_golden.sh <tecore-cli> <tests/data dir> <work dir>
set -eu
cli=$1
data=$2
work=$3
mkdir -p "$work"
"$cli" gen --dataset example --out "$work/example.tq" > /dev/null

# check <golden file> <extra solve flags...>
check() {
  golden=$1
  shift
  "$cli" solve --graph "$work/example.tq" --rules "$data/paper_rules.tcr" \
    --out "$work/$golden" "$@" > /dev/null
  diff -u "$data/$golden" "$work/$golden"
}
check paper_solve_mln.tq --solver mln
check paper_solve_psl.tq --solver psl
check paper_solve_edits.tq --solver mln --edits "$data/paper_edits.tq"
