#!/usr/bin/env bash
# Line counts per crate: non-test, unit-test and integration-test lines.
#
#   scripts/loc.sh [--files] [CRATE_DIR...]
#
# CRATE_DIR names a directory under crates/ (e.g. `runtime`); with none
# given, every crate is counted. --files adds one row per source file.
#
# A source file's non-test lines are those above the `#[cfg(test)]`
# that opens its test module: the attribute whose next line that is
# neither blank, a comment nor another attribute starts a `mod`. An
# earlier `#[cfg(test)]` on an import or a helper stays non-test code.
# A file without a test module is all non-test. Its unit-test lines are
# the rest. Integration-test lines are every line under the crate's
# tests/ directory.
set -euo pipefail
cd "$(dirname "$0")/.."

files=0
if [[ "${1:-}" == "--files" ]]; then
    files=1
    shift
fi
if [[ $# -eq 0 ]]; then
    set -- $(ls crates)
fi

# Prints "<non-test> <unit-test>" for one file.
split() {
    awk '
        { line[NR] = $0 }
        END {
            cut = NR
            for (i = 1; i <= NR && cut == NR; i++) {
                if (line[i] !~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/) continue
                for (j = i + 1; j <= NR; j++) {
                    if (line[j] ~ /^[ \t]*($|\/\/|#\[)/) continue
                    if (line[j] ~ /^[ \t]*(pub(\([a-z]+\))? )?mod /) cut = i - 1
                    break
                }
            }
            print cut, NR - cut
        }' "$1"
}

printf '%-28s %9s %9s %12s\n' crate non-test unit-test integration
for crate in "$@"; do
    dir="crates/$crate"
    [[ -d "$dir/src" ]] || { echo "loc.sh: no crate at $dir" >&2; exit 2; }
    non=0 unit=0 integ=0
    while IFS= read -r f; do
        read -r n u < <(split "$f")
        non=$((non + n)) unit=$((unit + u))
        if [[ $files -eq 1 ]]; then
            printf '  %-26s %9d %9d\n' "${f#"$dir"/}" "$n" "$u"
        fi
    done < <(find "$dir/src" -name '*.rs' | sort)
    if [[ -d "$dir/tests" ]]; then
        integ=$(find "$dir/tests" -name '*.rs' -exec cat {} + | wc -l)
    fi
    printf '%-28s %9d %9d %12d\n' "$crate" "$non" "$unit" "$integ"
done
