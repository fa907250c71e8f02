#!/usr/bin/env bash
# Concurrency stress: runs three parallel copies of each threaded suite —
# concurrent sessions, the morsel scheduler and the governor — each
# repeating its tests 20 times, and fails if any copy fails. Races that surface
# once in many runs then show up in tier-1 instead of as flakes.
#
# Usage:
#   tools/run_stress.sh <directory holding the test binaries>
#
# Registered as the `stress` ctest entry (label `stress`):
#   ctest --test-dir build -L stress
set -u

dir="${1:?usage: $0 <test binary directory>}"
copies=3
repeat=20

logs="$(mktemp -d)"
trap 'rm -rf "${logs}"' EXIT

pids=()
names=()
for suite in session_test morsel_test governor_test; do
  for ((i = 0; i < copies; ++i)); do
    "${dir}/${suite}" --gtest_repeat="${repeat}" \
      > "${logs}/${suite}.${i}.log" 2>&1 &
    pids+=("$!")
    names+=("${suite}.${i}")
  done
done

status=0
for k in "${!pids[@]}"; do
  if ! wait "${pids[$k]}"; then
    echo "== ${names[$k]} failed; its output:"
    tail -n 60 "${logs}/${names[$k]}.log"
    status=1
  fi
done
exit "${status}"
