#!/usr/bin/env bash
# Counts the workspace's non-test Rust lines, one way for every change:
#
#   * every `.rs` file outside `tests/` directories, `vendor/` and
#     `target/`;
#   * less each `#[cfg(test)]` `mod NAME { ... }` block (the attribute,
#     the block and its closing brace);
#   * less each file a `#[cfg(test)] mod NAME;` declaration pulls in
#     (the test-only `reference.rs` oracles).
#
# Blank and comment lines count. `crates/benchmark` is reported on its
# own line and left out of the total.
#
# Usage: scripts/loc.sh [ROOT]    (ROOT defaults to this repository)
set -euo pipefail

root="${1:-$(dirname "$0")/..}"
cd "$root"

files=$(find . \( -name target -o -name vendor -o -name tests -o -name .git \) -prune \
    -o -name '*.rs' -type f -print | sed 's|^\./||' | sort)

# The files `#[cfg(test)] mod NAME;` declares: NAME.rs beside a lib.rs,
# main.rs or mod.rs, else in the declaring file's own directory.
test_only=$(
    for f in $files; do
        awk '/^[ \t]*#\[cfg\(test\)\][ \t]*$/ { armed = 1; next }
             armed && match($0, /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/) {
                 line = $0; sub(/^[ \t]*(pub(\([a-z]+\))? )?mod /, "", line); sub(/;.*/, "", line)
                 print line
             }
             { armed = 0 }' "$f" | while read -r name; do
            dir=$(dirname "$f")
            case $(basename "$f") in
            lib.rs | main.rs | mod.rs) base=$dir ;;
            *) base=$dir/$(basename "$f" .rs) ;;
            esac
            for candidate in "$base/$name.rs" "$base/$name/mod.rs"; do
                [ -f "$candidate" ] && echo "${candidate#./}"
            done
        done
    done | sort -u
)

# Lines of the given files, less their `#[cfg(test)] mod NAME { ... }`
# blocks: from the attribute to the first line at the block's indent
# that is a lone `}`.
count() {
    [ $# -eq 0 ] && { echo 0; return; }
    awk '
        skip_to != "" { if ($0 == skip_to) skip_to = ""; next }
        pending != "" {
            if (match($0, /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ \{$/)) {
                indent = $0; sub(/[^ \t].*$/, "", indent)
                skip_to = indent "}"
                pending = ""
                next
            }
            total += 1
            pending = ""
        }
        /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { pending = $0; next }
        { total += 1 }
        END { print total + 0 }
    ' "$@"
}

workspace=()
benchmark=()
for f in $files; do
    if grep -qxF "$f" <<<"$test_only"; then
        continue
    fi
    case $f in
    crates/benchmark/*) benchmark+=("$f") ;;
    *) workspace+=("$f") ;;
    esac
done

printf 'non-test Rust lines: %s (crates/benchmark, not included: %s)\n' \
    "$(count "${workspace[@]}")" "$(count "${benchmark[@]}")"
