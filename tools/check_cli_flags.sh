#!/usr/bin/env bash
# Every metadock subcommand must refuse a flag it does not read: exit 2
# with a usage error that names the flag, before doing any work.  A stale
# flag of a deleted feature (the AVX-512 kernel, the score cache, the
# host scoring kernel selector) must
# never be dropped silently.  A negative or over-range count, a NaN range
# value and an unknown name are usage errors too, never a wrapped size_t
# or int, a silent fallback, or a failure after the setup.
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
expect_unknown scoring-impl dock --scoring-impl auto
expect_unknown scoring-impl screen --count 1 --scoring-impl batched-scalar

expect_negative batch-size screen --count 1 --batch-size -1
expect_negative count screen --count -1
expect_negative count cluster --nodes 1 --count -1
expect_negative conformers dock --conformers -2
expect_negative max-jobs serve --stdin --max-jobs -1
expect_negative fault-rebalance screen --count 1 --fault-rebalance -1
expect_negative fault-retries dock --fault-retries -1
expect_negative poll-ms serve --stdin --poll-ms -1

# An int-typed count above INT_MAX never wraps (4294967297 would cast to 1).
expect_usage "--fault-retries: expected a count <= 2147483647" dock --fault-retries 4294967297
expect_usage "--poll-ms: expected a count <= 2147483647" serve --stdin --poll-ms 4294967297

# NaN fails every range check.
expect_usage "scale must be in (0, 1]" dock --scale nan
expect_usage "--cpu-tail-share: expected 0 <= F < 1" dock --cpu-tail-share nan

# A fault on a device or node the run does not have, and a CPU tail share
# the strategy would ignore, are refused rather than silently dropped.
expect_usage "fault plan names device 5, but the run uses 2 GPU(s)" \
  dock --node hertz --fault-kill 5@0
expect_usage "fault plan names device 0, but the run uses 0 GPU(s)" \
  dock --strategy cpu --fault-kill 0@0
expect_usage "node fault names node 7, but the cluster has 2 node(s)" \
  cluster --nodes 2 --node-fault-kill 7@1
for args in "--strategy coop" "--strategy cpu" "--overlap off"; do
  # shellcheck disable=SC2086  # each entry is a flag list
  expect_usage "cpu_tail_share needs the hom or het strategy with overlap on" \
    dock $args --cpu-tail-share 0.3
done

# The name tables are shared with job files; an unknown name is a usage error.
for cmd in dock screen cluster; do
  expect_usage "unknown metaheuristic 'bogus'" "$cmd" --mh bogus
  expect_usage "unknown node 'bogus'" "$cmd" --node bogus
  expect_usage "unknown dataset 'bogus'" "$cmd" --dataset bogus
done
expect_usage "unknown strategy 'bogus'" dock --strategy bogus
expect_usage "unknown strategy 'bogus'" screen --strategy bogus

# Known flags still run (tables with no matching table does no work).
if ! "$bin" tables --which none > /dev/null; then
  echo "FAIL: metadock tables --which none" >&2
  fail=1
fi

[ "$fail" -eq 0 ] && echo "check_cli_flags: OK"
exit "$fail"
