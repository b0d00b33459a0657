#!/bin/sh
# `wrpt_cli simulate --threads` contract, driven from ctest: the fault
# simulator detects the same faults at every thread count, so the printed
# patterns/detected counts must not depend on --threads. Each line is
# compared up to " in "; the rest is wall time. A --threads value that is
# negative or does not fit an unsigned int is a usage error (exit 64),
# never a wrapped thread count.
#
#   usage: cli_simulate_threads.sh <path-to-wrpt_cli>
set -u
cli=$1

one=$("$cli" simulate S1 --patterns 1024 --seed 3 --threads 1) || exit 1
echo "threads 1: $one"
for t in 3 4; do
  got=$("$cli" simulate S1 --patterns 1024 --seed 3 --threads $t) || exit 1
  echo "threads $t: $got"
  if [ "${one%% in *}" != "${got%% in *}" ]; then
    echo "FAIL: --threads 1 and --threads $t disagree" >&2
    exit 1
  fi
done

for bad in -1 4294967296 4294967297; do
  "$cli" simulate S1 --patterns 64 --threads "$bad" >/dev/null 2>&1
  code=$?
  if [ "$code" -ne 64 ]; then
    echo "FAIL: --threads $bad exited $code, want usage error 64" >&2
    exit 1
  fi
done
exit 0
