#!/usr/bin/env bash
# Reachability scan: every `pub` item under crates/*/src that no file but
# its own names.
#
#   scripts/reach.sh [root] [out]     (defaults: the repo root, <root>/results/UNREACHED.txt)
#
# 1. Lists every `pub fn|struct|enum|mod|const|static|trait|type` under
#    <root>/crates/*/src.
# 2. Builds one token index over crates/, tests/, examples/, src/ and
#    benchmark/{src,tests}. Lines whose first non-blank characters are `//`
#    are skipped, so a doc mention does not keep an item alive.
# 3. Writes `<file>: pub <kind> <name>` for every item whose name appears in
#    no file but the one defining it, sorted, to <out>. A `pub fn` must be
#    named outside a `pub use` line: a crate root re-exporting a function
#    does not call it. Types keep the plain rule, since re-exporting is how
#    a type callers only see through inference is reached.
#
# A name shared by two items counts as reached for both, so the scan can miss
# a dead item but never flags a live one. scripts/verify.sh fails when a line
# of the output is missing from the committed results/UNREACHED.txt; a
# survivor kept on purpose stays there with a trailing ` # <reason>`.
set -euo pipefail
root="$(cd "${1:-$(dirname "$0")/..}" && pwd)"
out="${2:-$root/results/UNREACHED.txt}"

cd "$root"
dirs=()
for d in crates tests examples src benchmark/src benchmark/tests; do
    [ -d "$d" ] && dirs+=("$d")
done

# One awk process reads every file (named on stdin), so the index is whole.
find "${dirs[@]}" -name '*.rs' | LC_ALL=C sort | awk '
    {
        file = $0
        while ((getline line < file) > 0) {
            if (line ~ /^[ \t]*\/\//) continue
            # A `pub use` item list may span lines; it ends at its `;`.
            if (line ~ /^[ \t]*pub[ \t]+use[ \t]/) in_use = 1
            # An item definition: `pub [const|unsafe|async|extern "C"]* <kind> <name>`.
            if (file ~ /^crates\/[^\/]+\/src\// &&
                match(line, /^[ \t]*pub[ \t]+((const|unsafe|async|extern[ \t]+"[^"]*")[ \t]+)*(fn|struct|enum|mod|const|static|trait|type)[ \t]+(mut[ \t]+)?[A-Za-z_][A-Za-z0-9_]*/)) {
                n = split(substr(line, RSTART, RLENGTH), w, /[ \t]+/)
                kind = w[n - 1] == "mut" ? w[n - 2] : w[n - 1]
                items[++count] = file ": pub " kind " " w[n]
                item_name[count] = w[n]
                item_fn[count] = kind == "fn"
            }
            was_use = in_use
            if (in_use && line ~ /;/) in_use = 0
            gsub(/[^A-Za-z0-9_]+/, " ", line)
            t = split(line, tok, " ")
            for (i = 1; i <= t; i++) {
                key = tok[i] SUBSEP file
                if (!(key in seen)) { seen[key] = 1; files[tok[i]]++ }
                if (!was_use && !(key in called)) { called[key] = 1; callers[tok[i]]++ }
            }
        }
        close(file)
    }
    END {
        for (i = 1; i <= count; i++) {
            # The defining file always holds the name; any second file reaches it.
            reached = item_fn[i] ? callers[item_name[i]] : files[item_name[i]]
            if (reached < 2) print items[i]
        }
    }
' | LC_ALL=C sort -u > "$out"
