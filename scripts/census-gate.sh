#!/usr/bin/env bash
# census-gate.sh — exported code that nothing but tests calls.
#
# Lists every exported func and method declared in non-test Go outside
# vendor/ and testdata/ whose name appears on no other non-test line:
# not counting its own declaration (a one-line body still counts) and
# not counting comments. Matching is by bare name, so a name any other code spells —
# another package's function of the same name, an interface method, a
# struct field — counts as a caller; the list errs toward silence.
#
# What it cannot see: a func or method only tests call whose name other
# code also spells. FlowMonitor.Rate passed as used because senders have
# a Rate, RTTEstimator.Var because the linter names types.Var, Wheel.Tick
# because it names time.Tick, stats.Median because the benchmark has a
# Median field. Finding those takes resolving every identifier to its
# declaration (go/types), which this script does not do; a census by
# hand should.
#
# Each listed name must be in the committed allowlist with a reason
# (public facade, re-export, test-observation accessor, ...), and each
# allowlist entry must still be listed. A new entry means exported code
# only tests reach: delete it, or justify it and regenerate with
#
#   scripts/census-gate.sh --update
#
# which keeps the reasons of surviving entries and marks new ones TODO.
# Run from anywhere; paths are relative to the repository root.
set -euo pipefail

cd "$(dirname "$0")/.."

ALLOWLIST=scripts/census_allowlist.txt

# census prints "dir Name" or "dir Recv.Name", sorted, one per unused
# exported func or method.
census() {
    find . -name '*.go' ! -name '*_test.go' ! -path './vendor/*' ! -path '*/testdata/*' -print |
        LC_ALL=C sort |
        xargs awk '
            FNR == 1 { dir = FILENAME; sub(/^\.\//, "", dir); sub(/\/[^\/]*$/, "", dir); if (dir ~ /\.go$/) dir = "." }
            {
                line = $0
                sub(/\/\/.*/, "", line) # comments, including doc comments
                if (match(line, /^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*/)) {
                    head = substr(line, 1, RLENGTH)
                    line = substr(line, RLENGTH + 1)
                    name = head; sub(/.*[ )]/, "", name)
                    recv = ""
                    if (head ~ /^func \(/) {
                        recv = head; sub(/^func \(/, "", recv); sub(/^[A-Za-z0-9_]+ /, "", recv)
                        sub(/^\*/, "", recv); sub(/[\[)].*/, "", recv)
                        recv = recv "."
                    }
                    defs[dir " " recv name] = name
                }
                n = split(line, toks, /[^A-Za-z0-9_]+/)
                for (i = 1; i <= n; i++) if (toks[i] != "") used[toks[i]] = 1
            }
            END { for (d in defs) if (!(defs[d] in used)) print d }
        ' | LC_ALL=C sort
}

ids() { sed -E 's/[[:space:]]*#.*$//' "$ALLOWLIST" | grep -v '^$' | LC_ALL=C sort; }

if [[ "${1:-}" == "--update" ]]; then
    updated=$(census | while read -r id; do
        reason=$(awk -v id="$id" '{ split($0, a, /[[:space:]]*#[[:space:]]*/) } a[1] == id { print a[2]; exit }' "$ALLOWLIST" 2>/dev/null || true)
        printf '%s  # %s\n' "$id" "${reason:-TODO: delete, or say why only tests call it}"
    done)
    printf '%s\n' "$updated" >"$ALLOWLIST"
    echo "census-gate: wrote $(grep -c . "$ALLOWLIST") entries to $ALLOWLIST"
    exit 0
fi

got=$(census)
new=$(comm -13 <(ids) <(printf '%s\n' "$got" | grep -v '^$' || true))
stale=$(comm -23 <(ids) <(printf '%s\n' "$got" | grep -v '^$' || true))
if [[ -n "$new" ]]; then
    echo "census-gate: exported code no non-test line calls, not in $ALLOWLIST:" >&2
    printf '%s\n' "$new" | sed 's/^/  /' >&2
fi
if [[ -n "$stale" ]]; then
    echo "census-gate: $ALLOWLIST lists names that are now called or gone:" >&2
    printf '%s\n' "$stale" | sed 's/^/  /' >&2
fi
if [[ -n "$new" || -n "$stale" ]]; then
    echo "census-gate: delete the code (or justify it), then run scripts/census-gate.sh --update" >&2
    exit 1
fi
echo "census-gate: OK ($(printf '%s\n' "$got" | grep -c . || true) allowlisted names)"
