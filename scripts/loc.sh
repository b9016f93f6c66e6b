#!/usr/bin/env bash
# Count the tracked Rust lines outside benchmark/ at HEAD, split into
# non-test and test code, and their change since a revision:
#
#   scripts/loc.sh <rev>
#
# A file's lines from the `#[cfg(test)]` that opens its test `mod` to its
# end count as test; every file under a `tests/` directory counts as test.
# Both revisions are read from git, so uncommitted edits are not counted.
set -euo pipefail
cd "$(dirname "$0")/.."
rev="${1:?usage: scripts/loc.sh <rev>}"

# Print "<non-test> <test>" line totals of the tree at revision $1.
count() {
    git ls-tree -r --name-only "$1" | grep '\.rs$' | grep -v '^benchmark/' |
        while read -r path; do
            case "/${path}" in
                */tests/*) git show "$1:${path}" | awk 'END { print 0, NR }' ;;
                *) git show "$1:${path}" | awk '
                    test == 0 && prev ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/ &&
                        $0 ~ /^[ \t]*(pub(\([a-z]+\))? )?mod / { test = NR - 1 }
                    { prev = $0 }
                    END { if (test == 0) test = NR + 1; print test - 1, NR - test + 1 }' ;;
            esac
        done | awk '{ code += $1; test += $2 } END { print code + 0, test + 0 }'
}

read -r head_code head_test <<< "$(count HEAD)"
read -r base_code base_test <<< "$(count "${rev}")"
signed() { printf '%+d' "$1"; }
printf '*.rs outside benchmark/ at HEAD (%s), change since %s (%s)\n' \
    "$(git rev-parse --short HEAD)" "${rev}" "$(git rev-parse --short "${rev}")"
printf '%-9s %8s %8s\n' "" lines change
printf '%-9s %8d %8s\n' non-test "${head_code}" "$(signed $((head_code - base_code)))"
printf '%-9s %8d %8s\n' test "${head_test}" "$(signed $((head_test - base_test)))"
printf '%-9s %8d %8s\n' total $((head_code + head_test)) \
    "$(signed $((head_code + head_test - base_code - base_test)))"
