#!/usr/bin/env bash
# Reachability scan: every `pub` item under crates/*/src that no product
# code outside its own file names.
#
#   scripts/reach.sh [root] [out]     (defaults: the repo root, stdout)
#
# Product code is crates/*/src, examples/, src/ and benchmark/src, with every
# `#[cfg(test)]` item skipped (a `#[cfg(test)] mod name;` skips the module's
# whole file). No `tests/` directory is read: a name only a test uses does not
# keep an item alive.
#
# 1. Lists every `pub fn|struct|enum|mod|const|static|trait|type` in
#    product code under <root>/crates/*/src.
# 2. Builds one token index over product code. Lines whose first non-blank
#    characters are `//` are skipped, so a doc mention does not keep an item
#    alive.
# 3. Writes `<file>: pub <kind> <name>` for every item that no product file
#    but the one defining it reaches, sorted, to <out>:
#    - a type, const, static, trait or mod is reached when another file
#      names it;
#    - a `pub fn` must be named outside a `pub use` line: a crate root
#      re-exporting a function does not call it. (Re-exporting is how a type
#      that callers only see through inference is reached, so types keep the
#      plain rule.)
#    - a `pub fn` with no `self` receiver in an inherent `impl Type` block
#      must also be called as `Type::name`, or as `Self::name` inside an
#      `impl Type` block, somewhere in product code: a bare name shared with
#      another item (`RateLadder::paper` against `RouterConfig::paper`) does
#      not reach it. Trait impls are exempt.
#
# scripts/verify.sh fails when a line of the output is missing from the
# committed results/UNREACHED.txt; a survivor kept on purpose stays there
# with a trailing ` # oracle: <caller>` or ` # <reason>`.
set -euo pipefail
root="$(cd "${1:-$(dirname "$0")/..}" && pwd)"
if [ $# -ge 2 ]; then
    exec >"$2"
fi

cd "$root"
dirs=()
for d in crates/*/src examples src benchmark/src; do
    [ -d "$d" ] && dirs+=("$d")
done

# One awk process reads every file (named on stdin), so the index is whole.
find "${dirs[@]}" -name '*.rs' \
    | LC_ALL=C sort | awk '
    function indent(s) { match(s, /^[ \t]*/); return RLENGTH }
    # The last path segment of the type an `impl` header names, and whether
    # it implements a trait (`impl<..> Trait for Type<..>`).
    function impl_type(s,    rest, depth, i, c, out) {
        sub(/^[ \t]*(unsafe[ \t]+)?impl/, "", s)
        rest = ""; depth = 0
        for (i = 1; i <= length(s); i++) {
            c = substr(s, i, 1)
            if (c == "<") depth++
            else if (c == ">") depth--
            else if (depth == 0) rest = rest c
        }
        impl_trait = rest ~ /[ \t]for[ \t]/
        if (impl_trait) sub(/^.*[ \t]for[ \t]+/, "", rest)
        sub(/^[ \t]+/, "", rest)
        match(rest, /^[A-Za-z_][A-Za-z0-9_:]*/)
        out = substr(rest, RSTART, RLENGTH)
        sub(/^.*::/, "", out)
        return out
    }
    # The text after a fn name up to its parameter list (generics skipped).
    function params_after(s,    depth, i, c) {
        depth = 0
        for (i = 1; i <= length(s); i++) {
            c = substr(s, i, 1)
            if (c == "<") depth++
            else if (c == ">") depth--
            else if (c == "(" && depth == 0) return substr(s, i + 1)
        }
        return ""
    }
    { list[++nfiles] = $0; is_file[$0] = 1 }
    END {
        # Pass 1: files that a `#[cfg(test)] mod name;` compiles for tests only.
        for (f = 1; f <= nfiles; f++) {
            file = list[f]; dir = file; sub(/[^\/]+$/, "", dir)
            if (file !~ /(lib|main|mod)\.rs$/) { d = file; sub(/\.rs$/, "/", d); dir = d }
            attr = 0
            while ((getline line < file) > 0) {
                if (line ~ /^[ \t]*#\[cfg\(test\)\]/) { attr = 1; continue }
                if (attr && match(line, /^[ \t]*(pub[ \t]+)?mod[ \t]+[A-Za-z0-9_]+[ \t]*;/)) {
                    m = line; sub(/^[ \t]*(pub[ \t]+)?mod[ \t]+/, "", m); sub(/[ \t]*;.*$/, "", m)
                    test_only[dir m ".rs"] = 1; test_only[dir m "/mod.rs"] = 1
                }
                if (line !~ /^[ \t]*#\[/) attr = 0
            }
            close(file)
        }
        # Pass 2: items and the token index.
        for (f = 1; f <= nfiles; f++) {
            file = list[f]
            if (file in test_only) continue
            skip = -1; attr = -1; in_use = 0; impl_ind = -1
            while ((getline line < file) > 0) {
                ind = indent(line)
                # A `#[cfg(test)]` item: skip it to the `}` at its own indent,
                # or to its `;` / closing brace when it fits on one line.
                if (skip >= 0) {
                    if (pending) {
                        if (line ~ /^[ \t]*#\[/) continue
                        pending = 0
                        if (line ~ /;[ \t]*$/ || line ~ /\}[ \t]*$/ && gsub(/\{/, "{", line) == gsub(/\}/, "}", line)) skip = -1
                        continue
                    }
                    if (ind == skip && line ~ /^[ \t]*\}/) skip = -1
                    continue
                }
                if (line ~ /^[ \t]*#\[cfg\(test\)\]/) { skip = ind; pending = 1; continue }
                if (line ~ /^[ \t]*\/\//) continue
                if (impl_ind >= 0 && ind == impl_ind && line ~ /^[ \t]*\}/) impl_ind = -1
                # An impl block opens (a one-line `impl .. {}` holds no items).
                if (line ~ /^[ \t]*(unsafe[ \t]+)?impl[ \t<]/ && line !~ /\}[ \t]*$/) {
                    cur_impl = impl_type(line); cur_trait = impl_trait; impl_ind = ind
                }
                # A `pub use` item list may span lines; it ends at its `;`.
                if (line ~ /^[ \t]*pub[ \t]+use[ \t]/) in_use = 1
                # An item definition: `pub [const|unsafe|async|extern "C"]* <kind> <name>`.
                if (file ~ /^crates\/[^\/]+\/src\// &&
                    match(line, /^[ \t]*pub[ \t]+((const|unsafe|async|extern[ \t]+"[^"]*")[ \t]+)*(fn|struct|enum|mod|const|static|trait|type)[ \t]+(mut[ \t]+)?[A-Za-z_][A-Za-z0-9_]*/)) {
                    n = split(substr(line, RSTART, RLENGTH), w, /[ \t]+/)
                    kind = w[n - 1] == "mut" ? w[n - 2] : w[n - 1]
                    items[++count] = file ": pub " kind " " w[n]
                    item_name[count] = w[n]
                    item_file[count] = file
                    item_fn[count] = kind == "fn"
                    item_qual[count] = ""
                    if (kind == "fn" && impl_ind >= 0 && !cur_trait) {
                        p = params_after(substr(line, RSTART + RLENGTH))
                        if (p ~ /^[ \t]*$/ && (getline nxt < file) > 0) {
                            # The parameter list opens the line: read its first
                            # parameter from the next line, then index that line too.
                            p = nxt; held = nxt
                        }
                        if (p !~ /^[ \t]*(&[ \t]*('\''[A-Za-z_]+[ \t]+)?)?(mut[ \t]+)?self([^A-Za-z0-9_]|$)/)
                            item_qual[count] = cur_impl "::" w[n]
                    }
                }
                was_use = in_use
                if (in_use && line ~ /;/) in_use = 0
                for (pass = 0; pass < 2; pass++) {
                    if (pass == 1) { if (held == "") break; line = held; held = "" }
                    # Qualified paths `A::b`, with `Self` read as the impl type.
                    s = line
                    while (match(s, /[A-Za-z_][A-Za-z0-9_]*::[A-Za-z_][A-Za-z0-9_]*/)) {
                        q = substr(s, RSTART, RLENGTH)
                        s = substr(s, RSTART + RLENGTH)
                        if (q ~ /^Self::/) {
                            if (impl_ind < 0) continue
                            sub(/^Self/, cur_impl, q)
                        }
                        qfiles[q] = 1
                    }
                    gsub(/[^A-Za-z0-9_]+/, " ", line)
                    t = split(line, tok, " ")
                    for (i = 1; i <= t; i++) {
                        key = tok[i] SUBSEP file
                        if (!(key in seen)) { seen[key] = 1; files[tok[i]]++ }
                        if (!was_use && !(key in called)) { called[key] = 1; callers[tok[i]]++ }
                    }
                }
            }
            close(file)
        }
        for (i = 1; i <= count; i++) {
            # The defining file always holds the name; any second file reaches it.
            reached = item_fn[i] ? callers[item_name[i]] : files[item_name[i]]
            # A self-less fn also needs one `Type::name` (or `Self::name` in an
            # `impl Type`) somewhere in product code.
            if (item_qual[i] != "" && !(item_qual[i] in qfiles)) reached = 0
            if (reached < 2) print items[i]
        }
    }
' | LC_ALL=C sort -u
