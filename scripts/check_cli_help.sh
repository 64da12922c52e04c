#!/usr/bin/env bash
# CLI help coverage: the usage text must mention every plumbed option and
# every subcommand, so an option added in code but forgotten in --help
# fails the build. Also checks that malformed numeric flag values are
# refused with exit status 2.
#
# Usage: scripts/check_cli_help.sh [path/to/tecore-cli]
set -u

CLI="${1:-build/tecore-cli}"
if [[ ! -x "$CLI" ]]; then
  echo "error: '$CLI' not found or not executable (build first)" >&2
  exit 2
fi

# tecore-cli with no arguments prints usage to stderr and exits 2.
USAGE="$("$CLI" 2>&1)"

FLAGS=(--graph --rules --solver --threshold --threads
       --edits --out --dataset --size --prefix --version --host --port
       --kb --auth-token-file --data-dir --fsync --max-body-bytes --retain
       --kb-tokens-file --access-log
       --min-support --min-confidence --max-patterns)
COMMANDS=(stats complete suggest mine validate detect solve gen serve kb
          verify version)

# Token-anchored match so a flag is not satisfied by a longer flag that
# merely contains it (or a subcommand by an unrelated word).
mentions() {
  grep -qE "(^|[^[:alnum:]_-])$1([^[:alnum:]_-]|\$)" <<<"$USAGE"
}

missing=0
for flag in "${FLAGS[@]}"; do
  if ! mentions "$flag"; then
    echo "usage text does not mention plumbed option: $flag" >&2
    missing=1
  fi
done
for command in "${COMMANDS[@]}"; do
  if ! mentions "$command"; then
    echo "usage text does not mention subcommand: $command" >&2
    missing=1
  fi
done

if [[ "$missing" -ne 0 ]]; then
  echo "--- actual usage text ---" >&2
  printf '%s\n' "$USAGE" >&2
  exit 1
fi
echo "usage text mentions all ${#FLAGS[@]} options and ${#COMMANDS[@]} subcommands"

# Malformed numeric flag values are usage errors: exit 2 with a message,
# never a crash (an uncaught exception exits by SIGABRT, status 134).
# Each is rejected before any input file is read, so none needs to exist.
bad=0
expect_usage_error() {
  "$CLI" "$@" >/dev/null 2>&1
  local code=$?
  if [[ "$code" -ne 2 ]]; then
    echo "tecore-cli $* exited $code, expected 2" >&2
    bad=1
  fi
}
expect_usage_error gen --size abc
expect_usage_error gen --size -1
expect_usage_error solve --graph absent.tq --rules absent.tcr --threshold abc
expect_usage_error mine --graph absent.tq --min-support -1
expect_usage_error mine --graph absent.tq --max-patterns abc
expect_usage_error mine --graph absent.tq --min-confidence 2
if [[ "$bad" -ne 0 ]]; then
  exit 1
fi
echo "malformed numeric flag values exit 2"
