#!/usr/bin/env bash
# Size ledger: how much first-party library code there is, how much of its
# public surface nothing else uses, and how many unwrap/expect sites it has.
# A report, not a gate; a change that deletes code quotes it before and after.
#
# One fixed rule for "non-test": a file under crates/*/src counts up to, not
# including, its first `#[cfg(test)]` line (every file if it has none).
#
# Prints three sections:
#   1. non-test lines per crate, then the total;
#   2. `pub` items (fn, struct, enum, trait, type, const, static, mod) defined
#      in non-test code whose name appears as a word in no other .rs file of
#      the tree (crates, src, tests, examples, pp-bench/src, vendor). Name
#      matching stands in for resolution, so a common name (`new`, `len`)
#      never shows up here even when its item is unused;
#   3. non-test `.unwrap()` / `.expect(` sites per crate, then the total.
#
# Usage: scripts/size_ledger.sh   (always exits 0 when the tree is readable)
set -euo pipefail
cd "$(dirname "$0")/.."

# Non-test part of one file, prefixed with its path: "path<TAB>line".
non_test() {
    awk -v f="$1" '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { print f "\t" $0 }' "$1"
}

lib_files=$(find crates/*/src -name '*.rs' | sort)

echo "== non-test lines per crate (up to each file's first #[cfg(test)]) =="
total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    n=0
    for f in $(find "$dir/src" -name '*.rs' | sort); do
        n=$((n + $(non_test "$f" | wc -l)))
    done
    printf '%-12s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"

echo
echo "== pub items named in no other file =="
# file<TAB>name for every `pub` item in non-test code (`pub(crate)` excluded).
defs=$(for f in $lib_files; do non_test "$f"; done |
    sed -nE 's/^([^\t]*)\t[[:space:]]*pub (unsafe |const |async )*(fn|struct|enum|trait|type|const|static|mod) (mut )?([A-Za-z_][A-Za-z0-9_]*).*/\1\t\5/p' |
    sort -u)
# Every .rs file of the tree except build output.
tree_files=$(find crates src tests examples pp-bench/src vendor -name '*.rs' 2>/dev/null | sort)
# name<TAB>number of files mentioning it as a word.
# shellcheck disable=SC2086
counts=$(awk '{
        n = split($0, w, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++) if (w[i] != "" && !((w[i], FILENAME) in seen)) {
            seen[w[i], FILENAME] = 1
            files[w[i]]++
        }
    } END { for (k in files) print k "\t" files[k] }' $tree_files)
single=$(awk -F'\t' 'NR == FNR { files[$1] = $2; next } files[$2] == 1 { print $1 "\t" $2 }' \
    <(printf '%s\n' "$counts") <(printf '%s\n' "$defs"))
if [ -n "$single" ]; then
    printf '%s\n' "$single" | awk -F'\t' '{ printf "%-48s %s\n", $1, $2 }'
fi
printf 'count %d of %d pub items\n' "$(printf '%s' "$single" | grep -c . || true)" \
    "$(printf '%s\n' "$defs" | grep -c .)"

echo
echo "== non-test unwrap/expect sites per crate =="
total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    n=$(for f in $(find "$dir/src" -name '*.rs' | sort); do non_test "$f"; done |
        cut -f2- | grep -vE '^[[:space:]]*//' | grep -oE '\.(unwrap\(\)|expect\()' | wc -l || true)
    printf '%-12s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
