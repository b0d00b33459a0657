#!/bin/sh
# Exit-code contract of `wrpt_cli` failure paths, driven from ctest:
# serve's open/bind failures must print the errno string to stderr and
# exit with a distinct code (4 = stdin/pipe input open failure, 5 = socket
# bind failure) — never silently, never with the generic 1. A malformed
# flag value is a usage error (64) that names the flag.
#
#   usage: cli_exit_codes.sh <path-to-wrpt_cli> <pipe|socket|badspec|badnumber>
set -u
cli=$1
mode=$2

case $mode in
  pipe)
    out=$("$cli" serve /nonexistent-wrpt-dir/in.pipe 2>&1)
    code=$?
    want=4
    ;;
  socket)
    out=$("$cli" serve --listen unix:/nonexistent-wrpt-dir/wrpt.sock 2>&1)
    code=$?
    want=5
    ;;
  badspec)
    # An argument typo is a usage error (64), not a bind failure (5).
    out=$("$cli" serve --listen junk 2>&1)
    code=$?
    want=64
    ;;
  badnumber)
    # Junk and a trailing suffix must both be refused, never aborted on
    # or read as the number's prefix.
    for bad in abc 0.5x; do
      out=$("$cli" lengths S1 --confidence "$bad" 2>&1)
      code=$?
      echo "$out"
      if [ "$code" -ne 64 ]; then
        echo "FAIL: --confidence $bad exited $code, want usage error 64" >&2
        exit 1
      fi
      case $out in
        *"--confidence takes a number, got '$bad'"*) ;;
        *)
          echo "FAIL: usage error for '$bad' does not name the flag" >&2
          exit 1
          ;;
      esac
    done
    exit 0
    ;;
  *)
    echo "unknown mode '$mode'" >&2
    exit 2
    ;;
esac

echo "$out"
if [ "$code" -ne "$want" ]; then
  echo "FAIL: expected exit $want for $mode mode, got $code" >&2
  exit 1
fi
if [ "$mode" != badspec ]; then
  case $out in
    *"No such file or directory"*) ;;
    *)
      echo "FAIL: stderr is missing the errno string" >&2
      exit 1
      ;;
  esac
fi
exit 0
