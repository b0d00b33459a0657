#!/bin/sh
# Test driver for wrpt_lint. Registered as ctests by CMakeLists.txt.
#
#   lint_test.sh <wrpt_lint> rule <name>   golden-diff <name>/bad, clean <name>/good
#   lint_test.sh <wrpt_lint> repo          whole-tree scan must be clean (exit 0)
#   lint_test.sh <wrpt_lint> usage         exit-code contract: 2 on misuse
#
# Exit codes under test: 0 clean, 1 violations found, 2 usage/IO error.
set -u

BIN=${1:?usage: lint_test.sh <wrpt_lint> <mode> [rule]}
MODE=${2:?usage: lint_test.sh <wrpt_lint> <mode> [rule]}
HERE=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

case "$MODE" in
rule)
    RULE=${3:?usage: lint_test.sh <wrpt_lint> rule <name>}
    GOLDEN="$HERE/golden/$RULE.txt"
    [ -f "$GOLDEN" ] || fail "missing golden $GOLDEN"
    cd "$HERE/fixtures" || fail "missing fixtures dir"

    # bad/ tree: exit 1 and diagnostics byte-identical to the golden.
    OUT=$("$BIN" "$RULE/bad")
    STATUS=$?
    [ "$STATUS" -eq 1 ] || fail "$RULE/bad: expected exit 1, got $STATUS"
    echo "$OUT" | diff -u "$GOLDEN" - ||
        fail "$RULE/bad: diagnostics differ from golden/$RULE.txt"

    # good/ tree: exit 0 and silent.
    OUT=$("$BIN" "$RULE/good")
    STATUS=$?
    [ "$STATUS" -eq 0 ] || fail "$RULE/good: expected exit 0, got $STATUS"
    [ -z "$OUT" ] || fail "$RULE/good: expected no output, got: $OUT"
    ;;

repo)
    ROOT=$(CDPATH= cd -- "$HERE/../.." && pwd)
    cd "$ROOT" || fail "cannot cd to repo root"
    OUT=$("$BIN" src tools tests)
    STATUS=$?
    [ "$STATUS" -eq 0 ] || fail "repo scan: expected exit 0, got $STATUS
$OUT"
    ;;

usage)
    # No paths at all.
    "$BIN" >/dev/null 2>&1
    [ $? -eq 2 ] || fail "no args: expected exit 2"
    # Unknown option.
    "$BIN" --no-such-flag >/dev/null 2>&1
    [ $? -eq 2 ] || fail "unknown option: expected exit 2"
    # Nonexistent path.
    "$BIN" /nonexistent/wrpt/lint/path >/dev/null 2>&1
    [ $? -eq 2 ] || fail "missing path: expected exit 2"
    # --list-rules succeeds and names every rule.
    OUT=$("$BIN" --list-rules) || fail "--list-rules: expected exit 0"
    for RULE in dense-map determinism blocking-io raw-mutex raw-thread; do
        echo "$OUT" | grep -q "$RULE" || fail "--list-rules missing $RULE"
    done
    ;;

*)
    fail "unknown mode '$MODE'"
    ;;
esac

echo "PASS: $MODE ${3:-}"
exit 0
