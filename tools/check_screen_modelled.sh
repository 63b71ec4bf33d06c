#!/usr/bin/env bash
# Pins the modelled timeline of real screening runs: for each configuration
# below, `screen --count 3 --seed 5 --hits-jsonl F` must write exactly the
# `index virtual_seconds energy_joules` triples in
# tools/golden/screen_modelled.txt (the virtual clock of NodeExecutor::run();
# the paper-table golden pins estimate() only).  The first configuration's
# whole stream must also equal tools/golden/screen_hits.jsonl byte for
# byte: both host scoring kernels compute one evaluation order (DESIGN.md
# §10), so every build and host must match it; never regenerate it per host.
#
# Usage: tools/check_screen_modelled.sh path/to/metadock [--print]
#   --print writes the current triples to stdout instead of diffing them.
set -u

bin="$1"
golden_dir="$(cd "$(dirname "$0")" && pwd)/golden"
golden="$golden_dir/screen_modelled.txt"
golden_hits="$golden_dir/screen_hits.jsonl"
dir="$(mktemp -d)" || exit 1
trap 'rm -rf "$dir"' EXIT

configs=(
  "--strategy het"
  "--strategy hom"
  "--strategy cpu"
  "--strategy coop"
  "--overlap off"
  "--cpu-tail-share 0.1"
  "--node jupiter --strategy coop --fault-kill 2@0.001 --fault-straggle 0@0:4"
  "--node jupiter --fault-transient 0@0.3 --fault-rebalance 2"
)

emit() {
  local i=0 cfg
  for cfg in "${configs[@]}"; do
    i=$((i + 1))
    # shellcheck disable=SC2086  # each config is a flag list
    "$bin" screen --count 3 --seed 5 $cfg --hits-jsonl "$dir/$i.jsonl" > /dev/null || return 1
    echo "# $cfg"
    sed -E 's/^\{"index":([0-9]+),.*"virtual_seconds":([^,}]+),"energy_joules":([^,}]+).*$/\1 \2 \3/' \
      "$dir/$i.jsonl"
  done
}

if [ "${2:-}" = "--print" ]; then
  emit
  exit $?
fi
emit > "$dir/out.txt" || exit 1
if ! diff -u "$golden" "$dir/out.txt"; then
  echo "FAIL: screen modelled timeline differs from $golden" >&2
  exit 1
fi
if ! cmp "$golden_hits" "$dir/1.jsonl"; then
  diff "$golden_hits" "$dir/1.jsonl" | head -6 >&2
  echo "FAIL: '${configs[0]}' hit stream differs from $golden_hits" >&2
  exit 1
fi
echo "check_screen_modelled: OK"
