#!/usr/bin/env bash
# Unsafe-code audit gate: every `unsafe` site in first-party code must carry
# a `// SAFETY:` comment — on the same line, in the contiguous comment block
# directly above it, or (for a pair of adjacent `unsafe impl`s) on the
# immediately preceding unsafe line sharing one justification. Complements
# the workspace-wide `unsafe_op_in_unsafe_fn = "deny"` lint (root
# Cargo.toml), which forces every unsafe operation into its own commented
# block.
#
# Usage: scripts/unsafe_gate.sh   (exits 1 listing any unannotated site)
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
# First-party code only (the benchmark package included): the vendored
# crates.io stand-ins are outside this policy's scope (they are audited as
# a unit when imported).
while IFS=: read -r file line text; do
    # Skip pure-comment or attribute mentions of the word "unsafe".
    stripped="${text%%//*}"
    case "$stripped" in
    *unsafe*) ;;
    *) continue ;;
    esac
    case "$text" in
    *unsafe_op_in_unsafe_fn* | *forbid\(unsafe* | *deny\(unsafe*) continue ;;
    esac
    if printf '%s\n' "$text" | grep -q '// SAFETY:'; then
        continue
    fi
    # Walk the contiguous run of comment lines (or an adjacent unsafe impl
    # covered by the same comment) directly above the site.
    ok=0
    n=$((line - 1))
    while [ "$n" -ge 1 ]; do
        prev=$(sed -n "${n}p" "$file")
        case "$prev" in
        *"// SAFETY:"*)
            ok=1
            break
            ;;
        [[:space:]]*"//"* | "//"*) ;;
        *unsafe\ impl*) ;;
        *) break ;;
        esac
        n=$((n - 1))
    done
    if [ "$ok" -eq 1 ]; then
        continue
    fi
    echo "unsafe_gate: $file:$line: unsafe without a // SAFETY: comment"
    echo "    $text"
    fail=1
done < <(grep -rn --include='*.rs' -w 'unsafe' crates src examples pp-bench/src 2>/dev/null || true)

if [ "$fail" -ne 0 ]; then
    echo "unsafe_gate: FAIL — annotate each site with // SAFETY: <why this is sound>"
    exit 1
fi
echo "unsafe_gate: ok — every unsafe site carries a // SAFETY: comment"
