#!/usr/bin/env sh
# The size count every `[simplicity]` PR reports (ROADMAP ground rules):
# non-blank lines that are not `//` comments (doc comments included),
# counted up to the first `#[cfg(test)]` line of each file, so a file's
# unit-test module is left out. Prints one `count path` line per file and
# a total.
#
# usage: scripts/code-lines.sh [FILE|DIR]...   (default: crates)
# Directories are searched for `*.rs` files; `tests/`, `benches/` and
# `examples/` directories inside them are skipped.
set -eu

[ "$#" -gt 0 ] || set -- crates

for arg in "$@"; do
    if [ -d "$arg" ]; then
        find "$arg" \( -name tests -o -name benches -o -name examples -o -name target \) -prune \
            -o -name '*.rs' -type f -print
    else
        printf '%s\n' "$arg"
    fi
done | LC_ALL=C sort | while read -r file; do
    awk '/^#\[cfg\(test\)\]/ { exit }
         { line = $0; sub(/^[ \t]+/, "", line)
           if (line != "" && substr(line, 1, 2) != "//") n++ }
         END { printf "%d %s\n", n, FILENAME }' "$file"
done | awk '{ print; total += $1 } END { printf "%d total\n", total }'
