#!/bin/sh
# `wrpt_cli simulate --threads` contract, driven from ctest: the parallel
# fault simulator detects exactly what the sequential one does, so the
# printed patterns/detected counts must not depend on --threads. Each line
# is compared up to " in "; the rest is wall time.
#
#   usage: cli_simulate_threads.sh <path-to-wrpt_cli>
set -u
cli=$1

one=$("$cli" simulate S1 --patterns 1024 --seed 3 --threads 1) || exit 1
four=$("$cli" simulate S1 --patterns 1024 --seed 3 --threads 4) || exit 1
echo "threads 1: $one"
echo "threads 4: $four"
if [ "${one%% in *}" != "${four%% in *}" ]; then
  echo "FAIL: --threads 1 and --threads 4 disagree" >&2
  exit 1
fi
exit 0
