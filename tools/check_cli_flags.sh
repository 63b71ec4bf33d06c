#!/usr/bin/env bash
# Every metadock subcommand must refuse a flag it does not read: exit 2
# with a usage error that names the flag, before doing any work.  A stale
# flag of a deleted feature (the AVX-512 kernel, the score cache) must
# never be dropped silently.  A negative count is a usage error too,
# never a wrapped size_t.
#
# Usage: tools/check_cli_flags.sh path/to/metadock
set -u

bin="$1"
fail=0

# expect_usage MESSAGE CMD [ARGS...]: `metadock CMD ARGS` exits 2 with an
# error containing MESSAGE.
expect_usage() {
  want="$1"; shift
  err="$("$bin" "$@" 2>&1 > /dev/null < /dev/null)"
  code=$?
  if [ "$code" -ne 2 ] || ! printf '%s\n' "$err" | grep -q -- "$want"; then
    echo "FAIL: metadock $*: exit $code, want 2 and '$want'" >&2
    printf '%s\n' "$err" | head -3 >&2
    fail=1
  fi
}

# expect_unknown FLAG CMD [ARGS...]: the error names FLAG as unknown.
expect_unknown() {
  flag="$1"; shift
  expect_usage "unknown flag --$flag" "$@"
}

# expect_negative FLAG CMD [ARGS...]: the error rejects FLAG's negative count.
expect_negative() {
  flag="$1"; shift
  expect_usage "--$flag: expected a count >= 0" "$@"
}

for cmd in dock screen serve cluster tables; do
  expect_unknown simd-level "$cmd" --simd-level avx2
done
# A flag another subcommand reads is still unknown here.
expect_unknown hits-jsonl dock --hits-jsonl hits.jsonl
expect_unknown scoring-impl tables --which none --scoring-impl auto
expect_unknown simd-level screen --count 1 --simd-level=avx2
expect_unknown score-cache screen --score-cache 16
expect_unknown score-cache dock --score-cache 16

expect_negative batch-size screen --count 1 --batch-size -1
expect_negative count screen --count -1
expect_negative count cluster --nodes 1 --count -1
expect_negative conformers dock --conformers -2
expect_negative max-jobs serve --stdin --max-jobs -1
expect_negative fault-rebalance screen --count 1 --fault-rebalance -1

# Known flags still run (tables with no matching table does no work).
if ! "$bin" tables --which none > /dev/null; then
  echo "FAIL: metadock tables --which none" >&2
  fail=1
fi

[ "$fail" -eq 0 ] && echo "check_cli_flags: OK"
exit "$fail"
