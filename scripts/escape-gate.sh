#!/usr/bin/env bash
# escape-gate.sh — the dynamic half of the hotpathalloc invariant.
#
# The hotpathalloc analyzer (internal/lint, run by TestLintModule under
# go test ./...) forbids allocation *syntax* in //tfrc:hotpath
# functions; this gate catches what syntax checks cannot:
# values the compiler decides to heap-allocate (escape analysis). It
# compiles the hot simulator packages with -gcflags=-m, normalizes the
# "escapes to heap" / "moved to heap" diagnostics to `file: message`
# (line:col stripped so unrelated edits don't churn the list), and fails
# if any diagnostic is not in the committed allowlist.
#
# Every allowlist entry is a deliberate, setup-time or amortized
# allocation (constructors, slab growth, panic formatting). A new entry
# means a new heap allocation on or near the packet path: justify it in
# review and regenerate with:
#
#   scripts/escape-gate.sh --update
#
# Run from the repository root.
set -euo pipefail

cd "$(dirname "$0")/.."

ALLOWLIST=scripts/escape_allowlist.txt
# Hot packages: the event engine and everything on the per-packet path.
PKGS=(./internal/sim ./internal/core ./internal/netsim ./internal/cc ./internal/tcp ./internal/tfrcsim ./internal/traffic)

# A fresh GOCACHE forces real compilation; with warm caches the compiler
# is never invoked and -m prints nothing.
GOCACHE_DIR=$(mktemp -d)
trap 'rm -rf "$GOCACHE_DIR"' EXIT

current() {
    GOCACHE="$GOCACHE_DIR" go build -gcflags=-m "${PKGS[@]}" 2>&1 |
        grep -E 'escapes to heap|moved to heap' |
        sed -E 's/^([^:]+):[0-9]+:[0-9]+: /\1: /' |
        LC_ALL=C sort -u
}

if [[ "${1:-}" == "--update" ]]; then
    current >"$ALLOWLIST"
    echo "escape-gate: wrote $(wc -l <"$ALLOWLIST") entries to $ALLOWLIST"
    exit 0
fi

got=$(current)
new=$(comm -13 "$ALLOWLIST" <(printf '%s\n' "$got"))
if [[ -n "$new" ]]; then
    echo "escape-gate: new heap escapes not in $ALLOWLIST:" >&2
    printf '%s\n' "$new" >&2
    echo "escape-gate: justify them, then run scripts/escape-gate.sh --update" >&2
    exit 1
fi

# Stale entries are only informational: they disappear on --update.
stale=$(comm -23 "$ALLOWLIST" <(printf '%s\n' "$got") | wc -l)
if [[ "$stale" -gt 0 ]]; then
    echo "escape-gate: note: $stale allowlist entr(y|ies) no longer produced (run --update to prune)"
fi
echo "escape-gate: OK ($(printf '%s\n' "$got" | wc -l) known escapes)"
